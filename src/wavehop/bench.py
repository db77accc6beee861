"""Wall-clock comparison of the transform paths.

Each timed method gets one untimed warm-up call, then ``reps`` timed
runs, taken round-robin across the methods; the report carries the
median and minimum, the speedup of the method's median over the full
FFT transform's median on the same signal and grid, and, for
``cwt_fft`` and ``cwth_strided``, the seconds the router's model
predicts for the call.  ``bench_env`` records what the
timings depend on: library versions, CPUs and thread settings.

Timings cover the transform only: no file I/O, no rendering.  Runs are
sequential on one thread unless ``threads`` is raised, and the same
thread setting is applied to every method so the comparison stays fair.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .dwt import DB4, dwt_decompose
from .errors import InvalidCount, InvalidParameter
from .signal_io import SignalBuffer, _check_int
from .wavelet import (
    MorletParams,
    ScaleGrid,
    cwt_fft,
    cwth_decimate,
    cwth_strided,
    plan_for,
    schedule,
)

FULL_METHOD = "cwt_fft"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class BenchReport:
    method: str
    signal_length: int
    scale_count: int
    hop: int
    repetitions: int
    median_seconds: float
    min_seconds: float
    speedup_vs_full: float
    predicted_seconds: float | None = None  # the seconds model's price, where it prices the method

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def bench_env(threads: int = 1) -> dict:
    """The environment timings depend on: versions, CPU count, BLAS/OpenMP thread settings."""
    return {
        "python": "{}.{}.{}".format(*sys.version_info),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "threads": threads,
    }


def summarize(times: list[float]) -> tuple[float, float]:
    """(median, min) of a list of timings."""
    return statistics.median(times), min(times)


def bench_single(
    signal: SignalBuffer,
    grid: ScaleGrid,
    params: MorletParams | None = None,
    hop: int = 128,
    reps: int = 5,
    *,
    include_decimate: bool = False,
    include_dwt: bool = False,
    threads: int = 1,
) -> list[BenchReport]:
    """Time the full transform against its hopped variants on one signal.

    Always measures ``cwt_fft`` (the reference for speedup_vs_full) and
    ``cwth_strided``; flags add the decimate path and the dyadic DWT.
    The DWT is db4 at min(12, log2 N) levels.  A ``hop`` or ``threads``
    that is not a whole number >= 1 raises InvalidHop or InvalidParameter
    before any call.
    """
    if reps < 3:
        raise InvalidCount(f"reps must be >= 3, got {reps}")
    hop, threads = _check_int(hop), _check_int(threads, "threads", InvalidParameter)
    params = params or MorletParams()

    jobs = {
        FULL_METHOD: lambda: cwt_fft(signal, grid, params, threads=threads),
        "cwth_strided": lambda: cwth_strided(signal, grid, params, hop, threads=threads),
    }
    if include_decimate:
        jobs["cwth_decimate"] = lambda: cwth_decimate(signal, grid, params, hop, threads=threads)
    if include_dwt:
        levels = min(12, int(math.log2(len(signal))))
        jobs["dwt"] = lambda: dwt_decompose(signal, DB4, levels)

    for fn in jobs.values():
        fn()  # warm-up, excluded
    times = {name: [] for name in jobs}
    for _ in range(reps):  # round-robin, so a slow spell of the host hits every method
        for name, fn in jobs.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    measured = {name: summarize(t) for name, t in times.items()}
    full_median = measured[FULL_METHOD][0]
    widths = plan_for(params, grid).widths
    predicted = {
        FULL_METHOD: schedule(len(signal), widths, 1).seconds,
        "cwth_strided": schedule(len(signal), widths, hop).seconds,
    }

    return [
        BenchReport(
            method=name,
            signal_length=len(signal),
            scale_count=grid.count,
            hop=hop if name.startswith("cwth") else 1,
            repetitions=reps,
            median_seconds=median,
            min_seconds=best,
            speedup_vs_full=full_median / median,
            predicted_seconds=predicted.get(name),
        )
        for name, (median, best) in measured.items()
    ]


def extrapolate_dataset(report: BenchReport, file_count: int) -> float:
    """Hours to process ``file_count`` files at this report's median time."""
    if file_count < 1:
        raise ValueError(f"file_count must be >= 1, got {file_count}")
    return report.median_seconds * file_count / 3600.0


def reports_to_jsonl(reports: list[BenchReport]) -> str:
    return "\n".join(r.to_json() for r in reports) + "\n"
