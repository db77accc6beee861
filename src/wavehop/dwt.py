"""Dyadic filter-bank DWT and its heat-map reconstruction.

Analysis convolves with the low/high-pass pair under periodic extension
and keeps every second output, so level m holds ceil(N / 2^m)
coefficients.  With orthonormal banks (Haar, db4) each even-length step
is an orthogonal transform; odd intermediate lengths wrap one sample
twice and conserve energy only approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBank, TooManyLevels
from .signal_io import SignalBuffer


@dataclass
class FilterBank:
    """Analysis filter pair; taps indexed in ascending order."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    def __post_init__(self):
        self.lowpass = np.asarray(self.lowpass, dtype=np.float64)
        self.highpass = np.asarray(self.highpass, dtype=np.float64)
        if self.lowpass.ndim != 1 or self.lowpass.size < 2:
            raise InvalidBank("lowpass needs at least two taps")
        if self.lowpass.shape != self.highpass.shape:
            raise InvalidBank(
                f"tap counts differ: {self.lowpass.size} vs {self.highpass.size}"
            )


def quadrature_mirror(lowpass) -> np.ndarray:
    """Highpass taps g[j] = (-1)^j * h[M-1-j] for an orthonormal lowpass h."""
    h = np.asarray(lowpass, dtype=np.float64)
    signs = (-1.0) ** np.arange(h.size)
    return signs * h[::-1]


_SQRT_HALF = 1.0 / math.sqrt(2.0)

_HAAR_LOW = np.array([_SQRT_HALF, _SQRT_HALF])

# Daubechies 4-vanishing-moment scaling taps (8 taps, sums to sqrt(2))
_DB4_LOW = np.array([
    0.230377813308855230,
    0.714846570552541500,
    0.630880767929590400,
    -0.027983769416983850,
    -0.187034811718881140,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
])

HAAR = FilterBank("haar", _HAAR_LOW, quadrature_mirror(_HAAR_LOW))
DB4 = FilterBank("db4", _DB4_LOW, quadrature_mirror(_DB4_LOW))


@dataclass
class DwtDecomposition:
    """Per-level detail coefficients plus the final approximation.

    ``details[m-1]`` holds level m (ceil(N / 2^m) values); the
    approximation is the low-pass residue after the last level.
    """

    levels: int
    details: list[np.ndarray]
    approximation: np.ndarray
    source_length: int


def dwt_decompose(signal: SignalBuffer, bank: FilterBank, levels: int) -> DwtDecomposition:
    """Iterated analysis: filter, keep even-indexed outputs, recurse low-pass."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    n = len(signal)
    if 2 ** levels > n:
        raise TooManyLevels(f"{levels} levels need at least {2 ** levels} samples, have {n}")
    filters = np.stack([bank.highpass, bank.lowpass], axis=1)
    current = signal.samples
    details = []
    for _ in range(levels):
        both = _analysis_step(current, filters)
        details.append(both[:, 0].copy())
        current = both[:, 1].copy()
    return DwtDecomposition(levels, details, current, n)


def _analysis_step(x: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Both filters of one level: column c of the result is
    y[k] = sum_j filters[j, c] * x[(2k + j) mod n], k = 0 .. ceil(n/2)-1.

    ``x`` is extended periodically by taps-1 samples (wrapping more than
    once when it is shorter than the filters), so every stride-2 window
    is contiguous and one matrix product serves both filters.
    """
    n = x.size
    taps = filters.shape[0]
    extended = np.resize(x, n + taps - 1)  # np.resize repeats x cyclically
    stride = extended.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        extended, shape=((n + 1) // 2, taps), strides=(2 * stride, stride), writeable=False
    )
    return windows @ filters


def dwt_scalogram(decomp: DwtDecomposition) -> np.ndarray:
    """Rebuild a (levels+1) x N magnitude matrix by sample-and-hold.

    Row m-1 repeats |detail[m]| 2^m times along time; the last row holds
    the approximation magnitudes.  Rows run fine to coarse top to bottom.
    """
    n = decomp.source_length
    out = np.empty((decomp.levels + 1, n))
    for i, detail in enumerate(decomp.details):
        out[i] = np.repeat(np.abs(detail), 2 ** (i + 1))[:n]
    out[decomp.levels] = np.repeat(np.abs(decomp.approximation), 2 ** decomp.levels)[:n]
    return out
