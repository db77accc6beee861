"""One workload in one process: ``python -m wavebench.worker``.

Modes:
  setup   import wavehop and run the warm-up request, report the time
  run     set up, then run requests closed-loop for ``--seconds`` of
          request time (or exactly ``--requests`` requests), check outputs;
          with a time budget, time SETUP_REPEATS - 1 more fresh set-ups
          between batches
  traced  run ``--requests`` requests twice, with and without spans
          recorded, and report the layers

The parent (run.py) sets the thread environment and PYTHONPATH.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

T_START = time.perf_counter()
import wavehop  # noqa: E402  - timed as part of set-up

IMPORT_S = time.perf_counter() - T_START

from . import workloads  # noqa: E402
from .spans import Hooks, Tracer, has_ancestor, self_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7  # fresh set-ups per timed run: this process's own and 6 between batches
SETUP_TIMEOUT_S = 30


def _file_bytes(index):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[index])}


def _rows(args, kwargs, result):
    return {"rows": 0 if result is None else result.values.shape[0]}


def _taps(args, kwargs, result):
    return {"taps": 0 if result is None else result.size}


def _kernel(args, kwargs, result):
    # strided_correlate(xpad, taps_re, taps_im, hop, frames)
    _, taps_re, _, hop, frames = args
    width = taps_re.shape[0]
    span = (frames - 1) * hop + width  # signal samples the frames touch
    return {"macs": frames * width * 2, "bytes": 8 * (span + 2 * width + 2 * frames)}


# Functions the benchmark calls itself: attribute of ``wavehop`` -> (span, count).
CALL_SITES = {
    "read_wav": ("signal_io.read_wav", _file_bytes(0)),
    "cwth_strided": ("wavelet.cwth_strided", _rows),
    "cwt_fft": ("wavelet.cwt_fft", None),
    "cwth_decimate": ("wavelet.cwth_decimate", None),
    "dwt_decompose": ("dwt.dwt_decompose", None),
    "write_matrix_bin": ("scalogram.write_matrix_bin", _file_bytes(1)),
    "magnitude": ("scalogram.magnitude", None),
    "render": ("scalogram.render", None),
    "write_pgm": ("scalogram.write_pgm", _file_bytes(1)),
    "energy_score": ("metrics.energy_score", None),
    "auc_roc": ("metrics.auc_roc", None),
}

# Names wavelet.py looks up at call time, rebound for the traced run only.
CALL_TIME_NAMES = [
    ("wavehop._kernels", "strided_correlate", "kernels.strided_correlate", _kernel),
    ("wavehop.wavelet", "sample_wavelet", "wavelet.sample_wavelet", _taps),
    ("wavehop.wavelet", "decimate", "signal_io.decimate", None),
]


def plain_ops():
    return types.SimpleNamespace(**{name: getattr(wavehop, name) for name in CALL_SITES})


def traced_ops(tracer: Tracer):
    return types.SimpleNamespace(**{name: tracer.wrap(span, getattr(wavehop, name), count)
                                    for name, (span, count) in CALL_SITES.items()})


def install_hooks(hooks: Hooks) -> None:
    for module, attr, span, count in CALL_TIME_NAMES:
        hooks.rebind(module, attr, span, count)


def make_workload(name: str, seed: int, workdir: Path):
    return workloads.WORKLOADS[name](wavehop, seed, workdir)


def one_request(workload, ops, spec, index, tracer=None):
    try:
        if tracer is None:
            return workload.request(ops, spec)
        with tracer.request_span(index):
            return workload.request(ops, spec)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        return workloads.Outcome(None, failures=[f"{spec}: {type(exc).__name__}: {exc}"])


def run_requests(workload, ops, seconds=None, requests=None, pauses=0, pause=None):
    """Closed loop, one client.  Stops at a batch boundary once the summed
    request time reaches ``seconds``, or after exactly ``requests``.

    With ``pauses`` > 0 and a time budget, ``pause()`` is called at the
    first batch boundary past each of ``pauses`` evenly spaced fractions
    of ``seconds``, while no request is running.  Pauses a last long
    batch skipped over are all taken before returning.
    """
    outcomes = []
    busy = 0.0
    done = 0  # pauses taken
    for b, batch in enumerate(workload.batches()):
        for spec in batch:
            if requests is not None and len(outcomes) >= requests:
                return outcomes
            outcomes.append(one_request(workload, ops, spec, len(outcomes)))
            outcomes[-1].batch = b
            busy += outcomes[-1].latency_s or 0.0
        if requests is None:
            last = busy >= seconds
            while done < pauses and (last or busy >= seconds * (done + 1) / (pauses + 1)):
                pause()
                done += 1
            if last:
                return outcomes


def fresh_setup(args) -> float:
    """One set-up in a fresh process, run while this process waits: a new
    worker in ``setup`` mode imports wavehop and runs the warm-up."""
    result = args.workdir / "setup.json"
    result.unlink(missing_ok=True)
    subprocess.run([sys.executable, "-m", "wavebench.worker", "--workload", args.workload,
                    "--seed", str(args.seed), "--mode", "setup",
                    "--workdir", str(args.workdir / "setup"), "--result", str(result)],
                   stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(result.read_text())["setup_s"]


def run_paired(plain_workload, traced_workload, ops, tracer, requests):
    """The same ``requests`` requests twice, recorded and not, side by side.

    Each request runs on both sides back to back, the side that goes
    first alternating, so the slow and fast spells of a shared machine
    fall on both sides of the overhead comparison.
    """
    plain, traced = [], []
    for plain_batch, traced_batch in zip(plain_workload.batches(), traced_workload.batches()):
        for plain_spec, traced_spec in zip(plain_batch, traced_batch):
            k = len(traced)
            if k >= requests:
                return plain, traced
            sides = [(plain_workload, plain_spec, plain, False),
                     (traced_workload, traced_spec, traced, True)]
            for workload, spec, out, active in (sides if k % 2 == 0 else sides[::-1]):
                tracer.active = active
                out.append(one_request(workload, ops, spec, k, tracer if active else None))
            tracer.active = False


def layer_metrics(spans, absent_names) -> dict[str, float]:
    """Per-layer totals over the traced run; names in run.PER_LAYER."""
    by_id = {s.id: s for s in spans}
    selfs = self_seconds(spans)
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total_ms(name):
        return 1000.0 * sum(s.seconds for s in named.get(name, ()))

    def self_ms(name):
        return 1000.0 * sum(selfs[s.id] for s in named.get(name, ()))

    def attr_sum(names, key):
        found = [s for n in names for s in named.get(n, ())]
        if any(key not in s.attrs for s in found):
            return None  # the count could not be taken: absent
        return sum(s.attrs[key] for s in found)

    out = {}
    for span in [n for n, _ in CALL_SITES.values()] + [n for _, _, n, _ in CALL_TIME_NAMES]:
        out[f"{span}.ms"] = total_ms(span)
    out["wavelet.cwth_strided.self_ms"] = self_ms("wavelet.cwth_strided")
    out["signal_io.bytes_read"] = attr_sum(["signal_io.read_wav"], "bytes")
    out["wavelet.taps"] = attr_sum(["wavelet.sample_wavelet"], "taps")
    out["scalogram.bytes_written"] = attr_sum(
        ["scalogram.write_matrix_bin", "scalogram.write_pgm"], "bytes")
    kernel_spans = named.get("kernels.strided_correlate", [])
    rows = attr_sum(["wavelet.cwth_strided"], "rows")
    direct = sum(has_ancestor(s, "wavelet.cwth_strided", by_id) for s in kernel_spans)
    out["wavelet.rows"] = rows
    out["wavelet.rows_direct"] = direct
    out["wavelet.rows_dense"] = None if rows is None else rows - direct
    out["wavelet.direct_share"] = None if rows is None else (direct / rows if rows else 0.0)
    out["kernels.calls"] = len(kernel_spans)
    macs = out["kernels.macs"] = attr_sum(["kernels.strided_correlate"], "macs")
    out["kernels.bytes_computed"] = attr_sum(["kernels.strided_correlate"], "bytes")
    kernel_s = out["kernels.strided_correlate.ms"] / 1000.0
    out["kernels.macs_per_s"] = None if macs is None else (macs / kernel_s if kernel_s else 0.0)

    lost = {
        "wavehop._kernels.strided_correlate": [
            "kernels.strided_correlate.ms", "kernels.calls", "kernels.macs",
            "kernels.bytes_computed", "kernels.macs_per_s", "wavelet.rows_direct",
            "wavelet.rows_dense", "wavelet.direct_share"],
        "wavehop.wavelet.sample_wavelet": ["wavelet.sample_wavelet.ms", "wavelet.taps"],
        "wavehop.wavelet.decimate": ["signal_io.decimate.ms"],
    }
    for name in absent_names:
        for metric in lost.get(name, ()):
            out[metric] = None
    return {k: v for k, v in out.items() if v is not None}


def environment(workload) -> dict:
    import numpy
    import scipy

    kernels = sys.modules.get("wavehop._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wavehop": getattr(wavehop, "__version__", None),
        "numba_enabled": getattr(kernels, "NUMBA_ENABLED", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload_threads": workload.threads,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavebench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(wavehop.__file__).resolve().parents:
        print(f"error: wavehop imported from {wavehop.__file__}, not {src}", file=sys.stderr)
        return 2

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.workdir)
    start = time.perf_counter()
    workload.warmup(plain_ops())
    warm_s = time.perf_counter() - start
    result = {"workload": args.workload, "mode": args.mode, "setup_s": IMPORT_S + warm_s,
              "env": environment(workload)}

    if args.mode == "run":
        setups = [result["setup_s"]]

        def pause():
            setups.append(fresh_setup(args))

        outcomes = run_requests(workload, plain_ops(), args.seconds, args.requests,
                                SETUP_REPEATS - 1, pause)
        result["setup_runs_s"] = setups
        run_failures = workload.finish(plain_ops())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_failures += workload.final_checks()
    elif args.mode == "traced":
        tracer = Tracer()
        traced_workload = make_workload(args.workload, args.seed, args.workdir / "t")
        with Hooks(tracer) as hooks:
            install_hooks(hooks)
            ops = traced_ops(tracer)
            plain, outcomes = run_paired(workload, traced_workload, ops, tracer, args.requests)
            tracer.active = True
            run_failures = traced_workload.finish(ops)
            tracer.active = False
        run_failures += traced_workload.final_checks()
        result["plain_outcomes"] = [dataclasses.asdict(o) for o in plain]
        result["layers"] = layer_metrics(tracer.spans, hooks.absent)
        result["absent_hooks"] = hooks.absent
        spans_path = args.workdir / "spans.jsonl"
        with spans_path.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
        result["spans_file"] = str(spans_path)
    else:
        outcomes, run_failures = [], []

    result["outcomes"] = [dataclasses.asdict(o) for o in outcomes]
    result["run_failures"] = run_failures
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
