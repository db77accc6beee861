"""Time this checkout against a parent commit in alternating pairs of benchmark runs.

    python scripts/ab_pairs.py PARENT_REF [--pairs 10] [--workload corpus_scan|hop_sweep|all]
                               [--seed 1]

Checks ``PARENT_REF`` out with ``git worktree add`` under a temporary
directory, copies this checkout's ``wavebench/`` over the parent's, and
runs ``wavebench/run.py --trace 0`` once in each tree per pair, for
``BENCHMARK.json``'s ``run_seconds``, so the same harness times each
side's ``src``.  The side that goes first
alternates from pair to pair, so a slow spell of the host lands on both.
The worktree is removed afterwards.

For each end-to-end metric that ``BENCHMARK.json`` names, prints the
parent's median → this checkout's median, in how many pairs this
checkout was better, and the interquartile range of the parent's runs,
and writes them with every run's values to the first ``AB_<k>.json``
at the root of the checkout that does not exist.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
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
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    better, seconds = benchmark()

    # a terminated run still removes its worktree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(parent), args.parent_ref],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            shutil.copytree(ROOT / "wavebench", parent / "wavebench", dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees = {"parent": parent, "change": ROOT}
            runs = run_pairs(args.pairs, benchmark_runner(trees, args.workload, args.seed,
                                                          seconds))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent)], cwd=ROOT,
                           check=False, capture_output=True)

    summary = summarise(runs, better)
    for key, s in summary.items():
        print(f"{key:36s} {s['parent_median']:10.4g} -> {s['change_median']:10.4g}"
              f"  better in {s['wins']}/{s['pairs']}  parent IQR {s['parent_iqr']:.4g}")
    record = {"parent_ref": args.parent_ref, "workload": args.workload, "seed": args.seed,
              "seconds": seconds, "orders": pair_orders(args.pairs), "metrics": summary}
    out = default_out()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
