#!/usr/bin/env python3
"""wavehop benchmark: corpus_scan and hop_sweep.

Run from the root of a checkout:

    python3 wavebench/run.py --workload corpus_scan --seed 1 --seconds 30 --trace 0
    python3 wavebench/run.py --workload all --seed 1            # every workload

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports per-layer metrics from a separate traced run of a
fixed request count, next to an untraced run of the same requests, and
the tracing overhead between the two.  The last line of standard output
is one JSON object; earlier lines name each metric with its unit and
give the environment record.  A failed output check makes the exit code
1; a checkout without ``src/wavehop`` makes it 2, with no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from wavebench.spans import parse_importtime  # noqa: E402
from wavebench.stats import median_rate, windowed_tail  # noqa: E402

WORKLOADS = ("corpus_scan", "hop_sweep")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUT = ROOT / ".bench_out"

END_TO_END = {
    "throughput_audio_x": "x",  # audio seconds per request second, median over batches
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",  # see stats.windowed_tail for the percentile
    "setup_s": "s",  # import wavehop + warm-up; median of worker.SETUP_REPEATS processes
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "signal_io.read_wav.ms": "ms",
    "signal_io.bytes_read": "bytes",
    "signal_io.decimate.ms": "ms",
    "wavelet.sample_wavelet.ms": "ms",
    "wavelet.taps": "count",
    "wavelet.cwth_strided.ms": "ms",
    "wavelet.cwth_strided.self_ms": "ms",
    "wavelet.cwt_fft.ms": "ms",
    "wavelet.cwth_decimate.ms": "ms",
    "wavelet.rows": "count",
    "wavelet.rows_direct": "count",
    "wavelet.rows_dense": "count",
    "wavelet.direct_share": "ratio",
    "wavelet.hop_speedup_min": "x",
    "kernels.strided_correlate.ms": "ms",
    "kernels.calls": "count",
    "kernels.macs": "count",
    "kernels.bytes_computed": "bytes",
    "kernels.macs_per_s": "1/s",
    "scalogram.write_matrix_bin.ms": "ms",
    "scalogram.magnitude.ms": "ms",
    "scalogram.render.ms": "ms",
    "scalogram.write_pgm.ms": "ms",
    "scalogram.bytes_written": "bytes",
    "dwt.dwt_decompose.ms": "ms",
    "metrics.energy_score.ms": "ms",
    "metrics.auc_roc.ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_signal_ms": "ms",
    "inputs.repeat_length_share": "ratio",
    "requests.failed_ratio": "ratio",
    "trace.overhead_pct": "%",
}

# Requests in a traced run: fixed, so every count in it repeats exactly.
TRACE_REQUESTS = {"corpus_scan": 48, "hop_sweep": 27}  # whole batches
IMPORTTIME_REPEATS = 3
HOPS = (1, 8, 32, 128)


class BenchFailure(Exception):
    """A worker process failed; the run has no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})  # BLAS threads never stack on row threads
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_process(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Run ``cmd`` as a new process group; on timeout kill the whole group and wait."""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True,
                          **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchFailure(f"{cmd[2:4]} exceeded {timeout:.0f} s") from None
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker(workload: str, seed: int, mode: str, workdir: Path, timeout: float,
           seconds: float | None = None, requests: int | None = None) -> dict:
    result = workdir / f"{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "wavebench.worker", "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(workdir / mode),
           "--result", str(result)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if requests is not None:
        cmd += ["--requests", str(requests)]
    proc = run_process(cmd, timeout)
    if proc.returncode != 0:
        raise BenchFailure(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def failures_of(res: dict) -> list[str]:
    return [f for o in res["outcomes"] for f in o["failures"]] + res["run_failures"]


def failed_count(res: dict) -> int:
    return sum(1 for o in res["outcomes"] if o["failures"]) + len(res["run_failures"])


def request_seconds(res: dict) -> list[float]:
    return [o["latency_s"] for o in res["outcomes"] if o["latency_s"] is not None]


def completed_batches(res: dict) -> list[list[dict]]:
    """The outcomes of requests that completed, grouped by batch, in run order."""
    groups: dict[int, list[dict]] = {}
    for o in res["outcomes"]:
        if o["latency_s"] is not None:
            groups.setdefault(o["batch"], []).append(o)
    return list(groups.values())


def repeat_share(outcomes: list[dict]) -> float:
    """Share of requests with an input whose length an earlier request had."""
    seen, repeats, total = set(), 0, 0
    for o in outcomes:
        if o["length"] is not None:
            total += 1
            repeats += o["length"] in seen
            seen.add(o["length"])
    return repeats / total if total else 0.0


def hop_speedup_min(outcomes: list[dict]) -> float:
    """min over H of sum(cwt_fft time) / sum(cwth_strided(H) time); 0 if not run."""
    parts = [o["parts"] for o in outcomes if "cwt_fft" in o["parts"]]
    if not parts:
        return 0.0
    full = sum(p["cwt_fft"] for p in parts)
    return min(full / sum(p[f"cwth_strided.{h}"] for p in parts) for h in HOPS)


def untraced(workload: str, seed: int, seconds: int, workdir: Path):
    res = worker(workload, seed, "run", workdir, 170, seconds=seconds)
    setups = res["setup_runs_s"]
    latencies = request_seconds(res)
    if not latencies:
        raise BenchFailure(f"{workload}: no request completed")
    batches = completed_batches(res)
    t = windowed_tail([[o["latency_s"] for o in b] for b in batches])
    metrics = {
        "throughput_audio_x": median_rate([(sum(o["audio_s"] for o in b),
                                            sum(o["latency_s"] for o in b)) for b in batches]),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * t.value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    record = {
        "tail": {"percentile": t.percentile, "beyond": t.beyond, "samples": t.samples,
                 "windows": t.windows},
        "batches": len(batches),
        "setup_runs_s": setups,
        "hop_speedup_min": hop_speedup_min(res["outcomes"]),
        "repeat_length_share": repeat_share(res["outcomes"]),
        "latencies_s": latencies,
    }
    return metrics, {k: END_TO_END[k] for k in metrics}, res, record


def import_breakdown() -> dict[str, float]:
    totals, scipy_signal = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_process([sys.executable, "-X", "importtime", "-c", "import wavehop"], 15,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        cumulative = parse_importtime(proc.stderr.decode())
        if proc.returncode != 0 or "wavehop" not in cumulative:
            raise BenchFailure("python -X importtime -c 'import wavehop' failed")
        totals.append(cumulative["wavehop"])
        scipy_signal.append(cumulative.get("scipy.signal", 0.0))
    return {"cli.import_ms": statistics.median(totals),
            "cli.import_scipy_signal_ms": statistics.median(scipy_signal)}


def traced(workload: str, seed: int, workdir: Path):
    n = TRACE_REQUESTS[workload]
    res = worker(workload, seed, "traced", workdir, 70, requests=n)
    plain = res["plain_outcomes"]
    runs = [res, {"outcomes": plain, "run_failures": []}]
    pairs = [(p["latency_s"], o["latency_s"]) for p, o in zip(plain, res["outcomes"])
             if p["latency_s"] and o["latency_s"]]
    metrics = dict(res["layers"])
    metrics.update(import_breakdown())
    attempted = sum(len(r["outcomes"]) for r in runs)
    metrics.update({
        "wavelet.hop_speedup_min": hop_speedup_min(plain),
        "inputs.repeat_length_share": repeat_share(plain),
        "requests.failed_ratio": sum(failed_count(r) for r in runs) / attempted,
        "trace.overhead_pct": 100.0 * (statistics.median(t / p for p, t in pairs) - 1.0)
        if pairs else 0.0,
    })
    record = {"absent_hooks": res["absent_hooks"], "spans_file": res["spans_file"],
              "untraced_request_s": sum(p for p, _ in pairs),
              "traced_request_s": sum(t for _, t in pairs)}
    metrics = {k: metrics[k] for k in PER_LAYER if k in metrics}
    units = {k: PER_LAYER[k] for k in metrics}
    return metrics, units, {"outcomes": [o for r in runs for o in r["outcomes"]],
                            "run_failures": [f for r in runs for f in r["run_failures"]],
                            "env": res["env"]}, record


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def bench_one(workload: str, seed: int, seconds: int, trace: int):
    workdir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if trace:
        metrics, units, res, record = traced(workload, seed, workdir)
    else:
        metrics, units, res, record = untraced(workload, seed, seconds, workdir)
    failures = failures_of(res)
    env = dict(res["env"], **source_identity(), seed=seed, seconds=seconds, trace=trace)
    record.update(workload=workload, env=env, metrics=metrics, units=units,
                  attempted=len(res["outcomes"]), failed=failed_count(res), failures=failures)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"{workload}  seed {seed}  trace {trace}  ({path.relative_to(ROOT)})")
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            t = record["tail"]
            note = (f"  (p{t['percentile']:.1f}: median over {t['windows']} windows,"
                    f" {t['samples']} requests in them, {t['beyond']}+ beyond in each)")
        print(f"  {name:32s} {value:14.6g} {units[name]}{note}")
    if not trace and record["hop_speedup_min"]:
        print(f"  {'hop_speedup_min':32s} {record['hop_speedup_min']:14.6g} x  (layer number)")
    print(f"  failed {record['failed']} of {record['attempted']} requests")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env, sort_keys=True))
    return metrics, units, record["attempted"], record["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "wavehop" / "__init__.py").is_file():
        print(f"error: no wavehop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, units, n, bad = bench_one(name, args.seed, args.seconds, args.trace)
            prefix = f"{name}." if len(names) > 1 else ""
            for key, value in values.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
            attempted += n
            failed += bad
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
