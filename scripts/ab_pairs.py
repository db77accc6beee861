"""Time this checkout against a parent commit in alternating pairs of runs.

    python scripts/ab_pairs.py PARENT_REF [--pairs 10] [--workload corpus_scan|hop_sweep|all]
                               [--seed 1]
    python scripts/ab_pairs.py PARENT_REF --in-process SCALES,N,HOP [SCALES,N,HOP ...]
                               [--pairs 10] [--seed 1]

Extracts ``PARENT_REF`` with ``git archive`` into a temporary directory,
removed afterwards.  The side that goes first alternates from pair to
pair, so a slow spell of the host lands on both.

By default, copies this checkout's ``wavebench/`` over the parent's and
runs ``wavebench/run.py --trace 0`` once in each tree per pair, for
``BENCHMARK.json``'s ``run_seconds``, so the same harness times each
side's ``src``.  For each end-to-end metric that ``BENCHMARK.json``
names, prints the parent's median → this checkout's median, in how many
pairs this checkout was better, and the interquartile range of the
parent's runs.

With ``--in-process``, imports both trees' packages into this one
interpreter, on one BLAS thread, and times ``cwth_strided`` calls of
each on every given cell: ``SCALES`` scales of the benchmark's grid
(20-7 200 Hz at 16 kHz), ``N`` samples of seeded noise and hop ``HOP``,
after one untimed call of each side.  For each cell it prints the same
figures of the calls' milliseconds.

Either way the figures, with every run's values, go to the first
``AB_<k>.json`` at the root of the checkout that does not exist.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def pair_orders(pairs: int) -> list[tuple[str, str]]:
    """The order of the two sides in each pair: the parent first in even pairs."""
    return [SIDES if index % 2 == 0 else SIDES[::-1] for index in range(pairs)]


def run_pairs(pairs: int, runner) -> dict[str, list[dict]]:
    """Each side's metrics, one dict per pair in pair order, from ``runner(side)``."""
    runs = {side: [] for side in SIDES}
    for order in pair_orders(pairs):
        for side in order:
            runs[side].append(runner(side))
    return runs


def summarise(runs: dict[str, list[dict]], better: dict[str, str]) -> dict[str, dict]:
    """Per metric key: both medians, the pairs this checkout won and the parent's IQR.

    ``better`` maps a metric's name, the key's part after its workload
    prefix, to ``"higher"`` or ``"lower"``; keys it lacks are skipped.
    """
    summary = {}
    for key in runs["parent"][0]:
        direction = better.get(key.rsplit(".", 1)[-1])
        if direction is None:
            continue
        parent = [run[key] for run in runs["parent"]]
        change = [run[key] for run in runs["change"]]
        sign = 1 if direction == "higher" else -1
        q1, _, q3 = statistics.quantiles(parent, n=4)
        summary[key] = {"better": direction, "parent_median": statistics.median(parent),
                        "change_median": statistics.median(change),
                        "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                        "pairs": len(parent), "parent_iqr": q3 - q1,
                        "parent": parent, "change": change}
    return summary


def benchmark() -> tuple[dict[str, str], int]:
    """From ``BENCHMARK.json``: each end-to-end metric's better direction, and the run length."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({metric["name"]: metric["better"] for metric in declared["end_to_end"]},
            declared["run_seconds"])


def benchmark_runner(trees: dict[str, Path], workload: str, seed: int, seconds: int):
    """A runner that runs ``wavebench/run.py`` in a side's tree and returns its metric values."""
    def run(side: str) -> dict:
        proc = subprocess.run(
            [sys.executable, "wavebench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=trees[side], capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{side}: wavebench/run.py exited with {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        keys = {key if workload == "all" else f"{workload}.{key}": value["value"]
                for key, value in result["metrics"].items()}
        print(f"  {side:6s} " + "  ".join(f"{k} {v:.4g}" for k, v in keys.items()), flush=True)
        return keys

    return run


def extract(ref: str, dest: Path) -> None:
    """The files of commit ``ref`` of this checkout's repository, written under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def load_package(package_dir: Path, name: str):
    """The ``wavehop`` package in ``package_dir``, imported as ``name``: its modules import each
    other relatively, so two trees' packages live side by side in one interpreter."""
    spec = importlib.util.spec_from_file_location(name, package_dir / "__init__.py",
                                                  submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def parse_cell(text: str) -> tuple[int, int, int]:
    """``SCALES,N,HOP`` as three ints."""
    scales, n, hop = (int(part) for part in text.split(","))
    return scales, n, hop


def cell_call(package, cell: tuple[int, int, int], seed: int):
    """A call of ``package``'s ``cwth_strided`` on ``cell``'s grid, noise and hop."""
    import numpy as np  # here, once ``main`` has set the BLAS threads

    scales, n, hop = cell
    grid = package.make_scale_grid(20.0, 7200.0, scales, 16_000.0)
    signal_buffer = package.SignalBuffer(np.random.default_rng(seed).standard_normal(n), 16_000.0)
    return lambda: package.cwth_strided(signal_buffer, grid, hop=hop)


def time_cells(calls: dict[str, dict], pairs: int, timer=time.perf_counter) -> dict[str, dict]:
    """``summarise``'s figures of the milliseconds of each cell's calls, in alternating pairs.

    ``calls[side][cell]`` is a side's call of the cell.  Each cell is
    called once per side untimed, then ``pairs`` times per side.
    """
    summary = {}
    for cell in calls["parent"]:
        key = f"{','.join(map(str, cell))}.ms"

        def run(side: str) -> dict:
            start = timer()
            calls[side][cell]()
            return {key: (timer() - start) * 1e3}

        for side in SIDES:
            calls[side][cell]()
        summary |= summarise(run_pairs(pairs, run), {"ms": "lower"})
    return summary


def default_out() -> Path:
    k = 1
    while (ROOT / f"AB_{k}.json").exists():
        k += 1
    return ROOT / f"AB_{k}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all",
                        choices=("corpus_scan", "hop_sweep", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--in-process", nargs="+", type=parse_cell, metavar="SCALES,N,HOP",
                        help="time cwth_strided calls of both packages in this interpreter")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    better, seconds = benchmark()

    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        parent = Path(tmp) / "parent"
        extract(args.parent_ref, parent)
        if args.in_process:
            # one BLAS thread, as wavebench runs the transforms; set before numpy loads
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[name] = "1"
            packages = {side: load_package(tree / "src" / "wavehop", f"wavehop_{side}")
                        for side, tree in (("parent", parent), ("change", ROOT))}
            summary = time_cells({side: {cell: cell_call(package, cell, args.seed)
                                         for cell in args.in_process}
                                  for side, package in packages.items()}, args.pairs)
        else:
            shutil.copytree(ROOT / "wavebench", parent / "wavebench", dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees = {"parent": parent, "change": ROOT}
            summary = summarise(run_pairs(args.pairs, benchmark_runner(
                trees, args.workload, args.seed, seconds)), better)

    for key, s in summary.items():
        print(f"{key:36s} {s['parent_median']:10.4g} -> {s['change_median']:10.4g}"
              f"  better in {s['wins']}/{s['pairs']}  parent IQR {s['parent_iqr']:.4g}")
    record = {"parent_ref": args.parent_ref, "seed": args.seed, "orders": pair_orders(args.pairs),
              "metrics": summary}
    if args.in_process:
        record |= {"in_process": [list(cell) for cell in args.in_process]}
    else:
        record |= {"workload": args.workload, "seconds": seconds}
    out = default_out()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
