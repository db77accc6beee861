"""The two workloads: requests, warm-up and output checks.

A request is one input taken through all of its operations.  Each
request times only the program's work; its output checks run after the
timed part and never count toward latency.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inputs

ACCEPT_REL = 1e-9  # strided == cwt_fft(...)[:, ::H], the acceptance tolerance
HOPS = (1, 8, 32, 128)
DWT_LEVELS = 6
REF_STEP = 8  # hop_sweep keeps every 8th cwt_fft column; hops 8, 32, 128 check against it
REF_ROWS = 4  # hop 1 checks against a reference built this many rows at a time


@dataclass
class Outcome:
    latency_s: float | None  # None when the request raised
    audio_s: float = 0.0
    length: int | None = None  # input length in samples, if the request has one
    failures: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)
    batch: int = 0  # index of the batch the request ran in


def err_and_scale(actual: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """(max |actual - reference|, max |reference|), one row at a time."""
    if actual.shape != reference.shape:
        return math.inf, 1.0
    scale = max(float(np.max(np.abs(row))) for row in reference)
    worst = max(float(np.max(np.abs(a - r))) for a, r in zip(actual, reference))
    return worst, scale


def max_rel_err(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max |actual - reference| over max |reference|."""
    worst, scale = err_and_scale(actual, reference)
    return worst / scale if scale else worst


def check_scg1(wh, path, matrix) -> list[str]:
    """An SCG1 file must read back bit-exactly as the matrix cast to complex64."""
    back = wh.read_matrix_bin(path)
    want = matrix.values.astype(np.complex64)
    same = (
        back.values.shape == want.shape
        and back.values.astype(np.complex64).tobytes() == want.tobytes()
        and back.hop == matrix.hop
        and back.source_rate == matrix.source_rate
        and np.array_equal(back.scale_grid.scales, matrix.scale_grid.scales)
    )
    return [] if same else [f"{path.name}: SCG1 does not read back bit-exactly"]


def _write_blob(path: Path, blob: bytes) -> Path:
    path.write_bytes(blob)
    return path


class Workload:
    """Run-level steps; a workload without them keeps these defaults."""

    def finish(self, ops) -> list[str]:
        """Timed run-level work after the last request; returns failures."""
        return []

    def final_checks(self) -> list[str]:
        """Untimed checks after peak memory is read; returns failures."""
        return []


class CorpusScan(Workload):
    """Same-length WAV files through the paper's pipeline, one thread."""

    name = "corpus_scan"
    threads = 1
    hop = 128
    scales = 64

    def __init__(self, wh, seed: int, workdir: Path):
        self.wh = wh
        self.seed = seed
        self.files = inputs.make_corpus(seed)
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        self.paths = [_write_blob(workdir / "in" / f.name, f.blob) for f in self.files]
        self.warmup_path = _write_blob(workdir / "in" / "warmup.wav", inputs.corpus_warmup_blob(seed))
        self.out = workdir / "out"
        self.grid = wh.make_scale_grid(20.0, 0.45 * inputs.RATE, self.scales, inputs.RATE)
        self.first: dict[int, object] = {}  # file index -> its first coefficient matrix
        self.scores: list[float] = []
        self.labels: list[int] = []

    def batches(self):
        for p in itertools.count():
            yield inputs.corpus_pass_order(self.seed, p)

    def warmup(self, ops) -> None:
        self._pipeline(ops, self.warmup_path, self.out / "warmup")

    def _pipeline(self, ops, path: Path, stem: Path):
        signal = ops.read_wav(path)
        matrix = ops.cwth_strided(signal, self.grid, hop=self.hop, threads=self.threads)
        ops.write_matrix_bin(matrix, stem.with_suffix(".scg1"))
        ops.write_pgm(ops.render(ops.magnitude(matrix, "log_db")), stem.with_suffix(".pgm"))
        return signal, matrix, ops.energy_score(matrix)

    def request(self, ops, index: int) -> Outcome:
        spec = self.files[index]
        stem = self.out / Path(spec.name).stem
        start = time.perf_counter()
        try:
            signal, matrix, score = self._pipeline(ops, self.paths[index], stem)
        except self.wh.WavehopError as exc:
            latency = time.perf_counter() - start
            expected = spec.expected_error and isinstance(exc, getattr(self.wh, spec.expected_error))
            if expected:
                return Outcome(latency)
            return Outcome(latency, failures=[f"{spec.name}: {type(exc).__name__}: {exc}"])
        latency = time.perf_counter() - start

        if spec.expected_error:
            return Outcome(latency, failures=[f"{spec.name}: no {spec.expected_error} raised"])
        failures = check_scg1(self.wh, stem.with_suffix(".scg1"), matrix)
        first = self.first.setdefault(index, matrix)
        if not np.array_equal(first.values, matrix.values):
            failures.append(f"{spec.name}: output differs from its first request")
        self.scores.append(score)
        self.labels.append(spec.label)
        return Outcome(latency, signal.duration, len(signal), failures)

    def finish(self, ops) -> list[str]:
        """The run's one AUC, checked against an exhaustive pairwise oracle."""
        if not self.scores:
            return []
        auc = ops.auc_roc(self.wh.LabeledScores(self.scores, self.labels))
        scores = np.asarray(self.scores)
        labels = np.asarray(self.labels)
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        oracle = float(np.mean((pos > neg) + 0.5 * (pos == neg)))
        return [] if abs(auc - oracle) <= 1e-12 else [f"auc_roc {auc!r} != oracle {oracle!r}"]

    def final_checks(self) -> list[str]:
        """Each file's strided output against the dense transform, subsampled."""
        failures = []
        for index, matrix in sorted(self.first.items()):
            signal = self.wh.read_wav(self.paths[index])
            full = self.wh.cwt_fft(signal, self.grid, threads=2)
            err = max_rel_err(matrix.values, full.values[:, :: self.hop])
            if not err <= ACCEPT_REL:
                failures.append(f"{self.files[index].name}: strided rel err {err:.3e}")
        return failures


class HopSweep(Workload):
    """Distinct lengths through every transform path, one thread."""

    name = "hop_sweep"
    threads = 1
    scales = 8
    decimate_hop = 32

    def __init__(self, wh, seed: int, workdir: Path):
        self.wh = wh
        self.seed = seed
        self.lengths = inputs.HopLengths(seed)
        rate = inputs.RATE
        self.grid = wh.make_scale_grid(20.0, 0.45 * rate, self.scales, rate)
        low_rate = rate / self.decimate_hop
        self.decimated_grid = wh.make_scale_grid(20.0, 0.45 * low_rate, self.scales, low_rate)

    def batches(self):
        while True:
            yield self.lengths.next_round()

    def warmup(self, ops) -> None:
        self.request(ops, inputs.HOP_WARMUP_SAMPLES)

    def request(self, ops, n: int) -> Outcome:
        wh = self.wh
        signal = wh.SignalBuffer(inputs.hop_signal(self.seed, n), inputs.RATE)
        parts = {}
        failures = []

        def timed(key, fn, *args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            parts[key] = time.perf_counter() - start
            return result

        # Only every REF_STEP-th reference column is kept, so that no full-size
        # copy of the benchmark's own sits next to the program's output and
        # peak RSS stays the program's.
        full = timed("cwt_fft", ops.cwt_fft, signal, self.grid, threads=self.threads)
        reference = full.values[:, ::REF_STEP].copy()
        del full
        for hop in HOPS:
            hopped = timed(f"cwth_strided.{hop}", ops.cwth_strided, signal, self.grid,
                           hop=hop, threads=self.threads)
            if hop % REF_STEP == 0:
                err = max_rel_err(hopped.values, reference[:, :: hop // REF_STEP])
            else:
                err = self._rel_err_by_rows(signal, hopped.values, hop)
            if not err <= ACCEPT_REL:
                failures.append(f"n={n} hop={hop}: strided rel err {err:.3e}")
            del hopped
        del reference
        reduced = timed("cwth_decimate", ops.cwth_decimate, signal, self.decimated_grid,
                        hop=self.decimate_hop, anti_alias=True, threads=self.threads)
        if reduced.values.shape != (self.scales, -(-n // self.decimate_hop)):
            failures.append(f"n={n}: decimated shape {reduced.values.shape}")
        decomp = timed("dwt_decompose", ops.dwt_decompose, signal, wh.DB4, DWT_LEVELS)
        lengths = [d.size for d in decomp.details]
        if lengths != [-(-n // 2 ** m) for m in range(1, DWT_LEVELS + 1)]:
            failures.append(f"n={n}: dwt detail lengths {lengths}")
        return Outcome(sum(parts.values()), n / inputs.RATE, n, failures, parts)

    def _rel_err_by_rows(self, signal, values: np.ndarray, hop: int) -> float:
        """``values`` against ``cwt_fft(...)[:, ::hop]``, built REF_ROWS scales at a time."""
        worst = scale = 0.0
        scales = self.grid.scales
        for first in range(0, scales.size, REF_ROWS):
            rows = slice(first, first + REF_ROWS)
            block = self.wh.cwt_fft(signal, self.wh.ScaleGrid(scales[rows]), threads=self.threads)
            block_worst, block_scale = err_and_scale(values[rows], block.values[:, ::hop])
            worst, scale = max(worst, block_worst), max(scale, block_scale)
        return worst / scale if scale else worst


WORKLOADS = {w.name: w for w in (CorpusScan, HopSweep)}
