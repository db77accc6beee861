"""Morlet wavelet sampling, scale grids, and the CWT computation paths.

Four paths produce a :class:`CoefficientMatrix`:

``cwt_direct``    windowed dot products at every translation; the slow,
                  readable reference.
``cwt_fft``       the same transform per scale row via FFT convolution.
``cwth_strided``  coefficients only at translations 0, H, 2H, ...; each
                  retained column is mathematically the full-transform
                  column at that position.  Each row goes direct or
                  spectral, as ``route_rows`` prices it.
``cwth_decimate`` decimate the signal by H first, then run the full FFT
                  transform on the shorter signal.

The two hop-size interpretations are deliberately separate operations:
they do not produce the same coefficients.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import _kernels
from .errors import InvalidCount, InvalidParameter, InvalidRange, InvalidScale
from .signal_io import SignalBuffer, decimate, _check_hop


@dataclass
class MorletParams:
    """Complex Morlet mother wavelet parameters.

    The wavelet is (pi*bandwidth)^-1/2 * exp(-t^2/bandwidth) *
    exp(-i*2*pi*center_frequency*t); sampling conjugates it and applies
    the 1/sqrt(scale) energy normalization.  ``support_radius`` sets how
    many Gaussian envelope widths of taps are kept (truncation error at
    the default 6 is below 1e-8 of the envelope mass).
    """

    center_frequency: float = 1.0
    bandwidth: float = 1.5
    support_radius: float = 6.0

    def __post_init__(self):
        if not self.center_frequency > 0:
            raise InvalidParameter("center_frequency must be positive")
        if not self.bandwidth > 0:
            raise InvalidParameter("bandwidth must be positive")
        if not self.support_radius >= 3:
            raise InvalidParameter("support_radius must be at least 3")


@dataclass
class ScaleGrid:
    """Strictly ascending positive wavelet scales (samples per cycle unit)."""

    scales: np.ndarray

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=np.float64)
        if self.scales.ndim != 1 or self.scales.size < 1:
            raise ValueError("scales must be a non-empty 1-D sequence")
        if not np.all(self.scales > 0):
            raise ValueError("scales must be positive")
        if not np.all(np.diff(self.scales) > 0):
            raise ValueError("scales must be strictly ascending")

    @property
    def count(self) -> int:
        return self.scales.size


@dataclass
class CoefficientMatrix:
    """Complex wavelet coefficients, rows = ascending scales, columns = frames.

    Column k corresponds to translation k*hop in source samples;
    ``source_rate`` is the rate of the signal the transform actually ran
    on (the decimated rate for the decimate path).
    """

    values: np.ndarray
    hop: int
    source_rate: float
    scale_grid: ScaleGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        self.hop = _check_hop(self.hop)
        self.source_rate = float(self.source_rate)
        if not self.source_rate > 0:
            raise ValueError("source_rate must be positive")
        if self.values.shape[0] != self.scale_grid.count:
            raise ValueError(
                f"row count {self.values.shape[0]} != scale count {self.scale_grid.count}"
            )

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def columns(self) -> int:
        return self.values.shape[1]


def make_scale_grid(
    f_min: float,
    f_max: float,
    count: int,
    sample_rate: float,
    params: MorletParams | None = None,
) -> ScaleGrid:
    """Build ``count`` scales covering [f_min, f_max] Hz, geometrically spaced.

    Frequencies run from f_max down to f_min, so the resulting scales
    ascend.  ``count == 1`` requires f_min == f_max.
    """
    params = params or MorletParams()
    if not (0 < f_min <= f_max < sample_rate / 2):
        raise InvalidRange(
            f"need 0 < f_min <= f_max < rate/2, got [{f_min}, {f_max}] at rate {sample_rate}"
        )
    if count < 1:
        raise InvalidCount(f"count must be >= 1, got {count}")
    if count == 1 and f_min != f_max:
        raise InvalidCount("count == 1 needs f_min == f_max")
    freqs = np.geomspace(f_max, f_min, count)
    return ScaleGrid(params.center_frequency * sample_rate / freqs)


def scale_to_frequency(scale: float, params: MorletParams, sample_rate: float) -> float:
    """Center frequency in Hz analyzed by ``scale`` at ``sample_rate``."""
    if not (scale > 0 and math.isfinite(scale)):
        raise InvalidScale(f"scale must be positive and finite, got {scale!r}")
    return params.center_frequency * sample_rate / scale


def sample_wavelet(params: MorletParams, scale: float) -> np.ndarray:
    """Sample the conjugated, 1/sqrt(scale)-normalized wavelet at ``scale``.

    Returns an odd-length complex array; tap k (relative to the center
    index L = ceil(support_radius * scale * sqrt(bandwidth/2))) holds
    conj(psi)(k/scale) / sqrt(scale).
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise InvalidScale(f"scale must be positive and finite, got {scale!r}")
    b = params.bandwidth
    half_width = math.ceil(params.support_radius * scale * math.sqrt(b / 2.0))
    t = np.arange(-half_width, half_width + 1) / scale
    envelope = (math.pi * b) ** -0.5 * np.exp(-(t * t) / b)
    # conj of exp(-i*2*pi*C*t) is exp(+i*2*pi*C*t)
    taps = envelope * np.exp(2j * np.pi * params.center_frequency * t)
    return taps / math.sqrt(scale)


# --- transform paths ---------------------------------------------------------


def cwt_direct(
    signal: SignalBuffer, grid: ScaleGrid, params: MorletParams | None = None
) -> CoefficientMatrix:
    """Full transform by windowed dot products at every translation.

    Reference path: one dot product per (scale, translation), windows
    zero-padded at the signal boundaries.  Prefer ``cwt_fft`` for speed.
    """
    params = params or MorletParams()
    x = signal.samples
    n = x.size
    out = np.empty((grid.count, n), dtype=np.complex128)
    for row, scale in enumerate(grid.scales):
        taps = sample_wavelet(params, scale)
        half = taps.size // 2
        for b in range(n):
            lo = max(0, b - half)
            hi = min(n, b + half + 1)
            out[row, b] = np.dot(x[lo:hi], taps[lo - b + half: hi - b + half])
    return CoefficientMatrix(out, 1, signal.sample_rate, _copy_grid(grid))


def cwt_fft(
    signal: SignalBuffer,
    grid: ScaleGrid,
    params: MorletParams | None = None,
    *,
    threads: int = 1,
) -> CoefficientMatrix:
    """Full transform via FFT convolution: every row is a spectral row at hop 1.

    Matches ``cwt_direct`` elementwise up to floating-point roundoff.
    ``threads`` > 1 computes scale rows concurrently; results are
    identical regardless of row evaluation order.
    """
    params = params or MorletParams()
    taps_per_row = [sample_wavelet(params, s) for s in grid.scales]
    out = _transform(signal.samples, taps_per_row, 1, [True] * grid.count, threads)
    return CoefficientMatrix(out, 1, signal.sample_rate, _copy_grid(grid))


def cwth_strided(
    signal: SignalBuffer,
    grid: ScaleGrid,
    params: MorletParams | None = None,
    hop: int = 128,
    *,
    threads: int = 1,
) -> CoefficientMatrix:
    """Transform evaluated only at translations 0, hop, 2*hop, ...

    Column k equals column k*hop of the full transform; nothing else is
    computed.  Each scale row takes whichever of two routes
    ``route_rows`` predicts to be faster:

    - direct: ceil(N/hop) windowed dot products by
      ``_kernels.strided_correlate``, a cost proportional to the frames;
    - spectral: the row's product with the signal spectrum, folded into
      ``hop`` aliased bands, then one inverse FFT of length M/hop (the
      same row function ``cwt_fft`` uses, where hop is 1).

    The choice depends only on the signal length, the tap counts and the
    hop, so repeated calls give bit-identical coefficients.
    """
    params = params or MorletParams()
    hop = _check_hop(hop)
    x = signal.samples
    taps_per_row = [sample_wavelet(params, s) for s in grid.scales]
    spectral = route_rows(x.size, [t.size for t in taps_per_row], hop)
    out = _transform(x, taps_per_row, hop, spectral, threads)
    return CoefficientMatrix(out, hop, signal.sample_rate, _copy_grid(grid))


def cwth_decimate(
    signal: SignalBuffer,
    grid: ScaleGrid,
    params: MorletParams | None = None,
    hop: int = 128,
    anti_alias: bool = False,
    *,
    threads: int = 1,
) -> CoefficientMatrix:
    """Decimate the signal by ``hop``, then run the full FFT transform.

    Unlike ``cwth_strided`` this changes the signal the wavelets see:
    the scales now act on the decimated rate, and frequencies above the
    new Nyquist alias unless ``anti_alias`` is set.
    """
    hop = _check_hop(hop)
    reduced = decimate(signal, hop, anti_alias)
    inner = cwt_fft(reduced, grid, params, threads=threads)
    return CoefficientMatrix(inner.values, hop, reduced.sample_rate, inner.scale_grid)


# --- shared row machinery ----------------------------------------------------


def _copy_grid(grid: ScaleGrid) -> ScaleGrid:
    return ScaleGrid(grid.scales.copy())


def fold_len(n: int, widths, hop: int) -> int:
    """FFT length M of the spectral rows: a multiple of ``hop``, free of wrap-around.

    A kernel centred at index 0 reaches ``half = width // 2`` samples
    either side, so translations 0..n-1 need M >= n + half; M/hop is a
    fast FFT length.
    """
    half = max(widths) // 2
    return hop * sfft.next_fast_len(-(-(n + half) // hop))


def route_rows(n: int, widths, hop: int) -> list[bool]:
    """Per scale row, True where the spectral route is predicted faster.

    A pure function of the signal length, the tap counts and the hop,
    priced in seconds by ``_kernels.direct_seconds`` and
    ``_kernels.spectral_seconds``.  The signal spectrum that spectral
    rows share is paid once; when the rows that would go spectral save
    less than it costs, every row stays direct.
    """
    frames = -(-n // hop)
    fft_len = fold_len(n, widths, hop)
    spectral_s = _kernels.spectral_seconds(fft_len, hop)
    savings = [_kernels.direct_seconds(w, hop, frames) - spectral_s for w in widths]
    if sum(s for s in savings if s > 0) <= _kernels.fft_seconds(fft_len):
        return [False] * len(widths)
    return [s > 0 for s in savings]


def _transform(x, taps_per_row, hop: int, spectral, threads: int) -> np.ndarray:
    """Columns 0, hop, 2*hop, ... of every row, each by the route ``spectral`` names."""
    n = x.size
    frames = -(-n // hop)
    widths = [t.size for t in taps_per_row]
    max_half = max(widths) // 2
    spectrum = sfft.fft(x, fold_len(n, widths, hop)) if any(spectral) else None
    if not all(spectral):
        # tail sized so the direct kernel's block reshape stays in bounds
        xpad = np.zeros(max_half + n + max_half + 2 * hop)
        xpad[max_half:max_half + n] = x
    out = np.empty((len(taps_per_row), frames), dtype=np.complex128)

    def one_row(row: int) -> None:
        taps = taps_per_row[row]
        if spectral[row]:
            out[row] = _spectral_row(spectrum, taps, hop, frames)
            return
        base = xpad[max_half - taps.size // 2:]
        taps_re = np.ascontiguousarray(taps.real)
        taps_im = np.ascontiguousarray(taps.imag)
        re, im = _kernels.strided_correlate(base, taps_re, taps_im, hop, frames)
        out[row] = re + 1j * im

    _run_rows(one_row, len(taps_per_row), threads)
    return out


def _spectral_row(spectrum, taps, hop: int, frames: int) -> np.ndarray:
    """Translations 0, hop, ..., (frames-1)*hop of one row, from the signal spectrum.

    The reversed taps sit centred at index 0 (wrapping circularly), so
    the circular convolution's sample b is the row's translation b.
    Keeping every hop-th sample of it equals summing the hop aliased
    bands of its spectrum and taking one inverse FFT of length M/hop
    (Crochiere & Rabiner, Multirate Digital Signal Processing, 1983).
    At hop 1 the fold is the identity and this is the dense row.
    """
    m = spectrum.size
    half = taps.size // 2
    # when the taps outgrow the signal the two ends overlap, but only at
    # lags of n or more (m >= n + half), which meet no sample
    kernel = np.zeros(m, dtype=np.complex128)
    kernel[:half + 1] = taps[half::-1]
    kernel[m - half:] = taps[:half:-1]
    product = sfft.fft(kernel, overwrite_x=True)
    product *= spectrum
    if hop > 1:
        product = product.reshape(hop, m // hop).sum(axis=0)
    row = sfft.ifft(product, overwrite_x=True)[:frames]
    row /= hop
    return row


def _run_rows(one_row, count: int, threads: int) -> None:
    if threads <= 1:
        for row in range(count):
            one_row(row)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one_row, range(count)))
