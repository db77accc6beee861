"""Morlet wavelet sampling, scale grids, and the CWT computation paths.

Four paths produce a :class:`CoefficientMatrix`:

``cwt_direct``    windowed dot products at every translation; the slow,
                  readable reference.
``cwth_strided``  coefficients only at translations 0, H, 2H, ...; each
                  retained column is mathematically the full-transform
                  column at that position.  Each row goes direct or
                  spectral, as its ``schedule`` prices it.
``cwt_fft``       the full transform: ``cwth_strided`` at H = 1.
``cwth_decimate`` decimate the signal by H first, then run the full
                  transform on the shorter signal.

The two hop-size interpretations are deliberately separate operations:
they do not produce the same coefficients.  ``cwth_strided`` (and so
``cwt_fft`` and ``cwth_decimate``) runs on a :class:`CwtPlan`, the
grid's taps sampled once and kept in a small cache (``plan_for``).
Which rows go spectral, in which block layout and at what predicted
price is one cached, pure function of (length, taps, hop): ``schedule``.

There is one spectral route, the overlap-save block row: spectral rows
are grouped into width classes (``schedule``), each class takes one
batched FFT of overlapping signal segments and one of its rows'
kernels, and each of its rows multiplies its kernel spectrum into the
segment spectra, folds every block into hop bands and takes one batched
inverse FFT; at hop 1 the fold is the identity.  Work is sized by what can reach a sample: at most 2N - 1
taps, and a hop of N or more computes as hop N.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (
    CoefficientOverflow,
    InvalidCount,
    InvalidParameter,
    InvalidRange,
    InvalidScale,
)
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
        for name in ("center_frequency", "bandwidth", "support_radius"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.center_frequency > 0:
            raise InvalidParameter("center_frequency must be positive")
        if not self.bandwidth > 0:
            raise InvalidParameter("bandwidth must be positive")
        if not self.support_radius >= 3:
            raise InvalidParameter("support_radius must be at least 3")


@dataclass
class ScaleGrid:
    """Strictly ascending positive finite wavelet scales (samples per cycle unit)."""

    scales: np.ndarray

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=np.float64)
        if self.scales.ndim != 1 or self.scales.size < 1:
            raise InvalidScale("scales must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.scales)):
            raise InvalidScale("scales must be finite")
        if not np.all(self.scales > 0):
            raise InvalidScale("scales must be positive")
        if not np.all(np.diff(self.scales) > 0):
            raise InvalidScale("scales must be strictly ascending")

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
    ascend.  ``count == 1`` requires f_min == f_max, and a narrowest
    wavelet within one sample of its centre, a lone spike, raises InvalidScale.
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
    scales = params.center_frequency * sample_rate / np.geomspace(f_max, f_min, count)
    reach = params.support_radius * scales[0] * math.sqrt(params.bandwidth / 2.0)
    if not reach >= 1:
        raise InvalidScale(f"scale {scales[0]:.6g} reaches {reach:.3g} samples a side, not one")
    return ScaleGrid(scales)


def scale_to_frequency(scale: float, params: MorletParams, sample_rate: float) -> float:
    """Center frequency in Hz analyzed by ``scale`` at ``sample_rate``."""
    if not (scale > 0 and math.isfinite(scale)):
        raise InvalidScale(f"scale must be positive and finite, got {scale!r}")
    return params.center_frequency * sample_rate / scale


# the most taps a side a scale may need: 0.08 Hz at 16 kHz with the default wavelet
MAX_HALF_WIDTH = 1 << 20


def sample_wavelet(params: MorletParams, scale: float) -> np.ndarray:
    """Sample the conjugated, 1/sqrt(scale)-normalized wavelet at ``scale``.

    Returns an odd-length complex array; tap k (relative to the center
    index L = ceil(support_radius * scale * sqrt(bandwidth/2))) holds
    conj(psi)(k/scale) / sqrt(scale).  A scale whose L passes
    ``MAX_HALF_WIDTH`` raises InvalidScale before anything is allocated.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise InvalidScale(f"scale must be positive and finite, got {scale!r}")
    b = params.bandwidth
    reach = params.support_radius * scale * math.sqrt(b / 2.0)
    if not reach <= MAX_HALF_WIDTH:
        raise InvalidScale(f"scale {float(scale):.6g} needs {reach:.3g} taps a side,"
                           f" more than the {MAX_HALF_WIDTH} allowed")
    half_width = math.ceil(reach)
    t = np.arange(-half_width, half_width + 1) / scale
    # taps past sqrt(750 * b) are 0 outright, their envelope below the least double
    near = np.abs(t) <= math.sqrt(min(750.0 * b, np.finfo(np.float64).max))
    envelope = np.zeros(t.size)
    envelope[near] = (math.pi * b) ** -0.5 * np.exp(-(t[near] * t[near]) / b)
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
    """The full transform: ``cwth_strided`` at hop 1, its rows routed as at any hop.

    Matches ``cwt_direct`` elementwise up to floating-point roundoff,
    whichever route each row takes.  ``threads`` is as in ``cwth_strided``.
    """
    return cwth_strided(signal, grid, params, 1, threads=threads)


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
    computed.  The taps come from the cached :class:`CwtPlan` of
    (params, grid), and each scale row takes whichever of two routes
    its ``schedule`` predicts to be faster:

    - direct: ceil(N/hop) dot products, taken as one polyphase matmul
      by ``_kernels.strided_correlate``, a cost proportional to the frames;
    - spectral: the block row of the row's width class, whose segment
      spectra are folded into ``hop`` aliased bands before one batched
      inverse FFT of length block_len/hop.

    The choice depends only on the signal length, the tap counts and the
    hop, so repeated calls give bit-identical coefficients whatever
    ``threads`` is; above 1 it sizes a row pool kept across calls.
    """
    hop = _check_hop(hop)
    plan = plan_for(params or MorletParams(), grid)
    out = plan.execute(signal.samples, hop, threads)
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
    """Decimate the signal by ``hop``, then run the full transform, ``cwt_fft``.

    Unlike ``cwth_strided`` this changes the signal the wavelets see:
    the scales now act on the decimated rate, and frequencies above the
    new Nyquist alias unless ``anti_alias`` is set.
    """
    hop = _check_hop(hop)
    reduced = decimate(signal, hop, anti_alias)
    inner = cwt_fft(reduced, grid, params, threads=threads)
    return CoefficientMatrix(inner.values, hop, reduced.sample_rate, inner.scale_grid)


# --- plans and their cache ---------------------------------------------------


class CwtPlan:
    """One grid's wavelet taps, sampled once, and the row loop that runs on them.

    Taps do not depend on the signal, so a plan serves every length and
    hop.  Each row is held once, as read-only contiguous arrays of its
    real and imaginary parts: the direct kernel takes them as they are,
    and ``_kernel_spectra`` writes them into the real and imaginary parts
    of a width class's kernels.  Kernel spectra depend on the block
    length, hence on the signal length, so a plan holds none.
    """

    def __init__(self, params: MorletParams, grid: ScaleGrid):
        self.scales = grid.scales.copy()
        self.scales.setflags(write=False)
        self.taps = []
        for scale in self.scales:
            # looked up at call time, so a rebinding of sample_wavelet is seen
            taps = sample_wavelet(params, scale)
            parts = (np.ascontiguousarray(taps.real), np.ascontiguousarray(taps.imag))
            for part in parts:
                part.setflags(write=False)
            self.taps.append(parts)
        self.widths = [re.size for re, _ in self.taps]
        # no coefficient exceeds the largest sample times this
        self.gain = max(float(np.abs(re).sum() + np.abs(im).sum()) for re, im in self.taps)

    @property
    def count(self) -> int:
        return len(self.taps)

    def explain(self, n: int, hop: int) -> list[dict]:
        """One record per row: scale, tap count, route, predicted seconds and block layout.

        Read from ``schedule(n, widths, hop)``, as ``execute`` reads it.
        ``direct_s`` is the row's direct-route seconds.  A spectral row's
        ``spectral_s`` prices its block row without the block spectra its
        width class shares, and ``block_len``, ``blocks`` and ``class``
        (an index into the schedule's ``classes``) give its layout; a
        direct row has no class, so these four are None.
        """
        sched = schedule(n, self.widths, hop)
        records = [{"scale": float(scale), "taps": width, "route": "direct",
                    "direct_s": direct_s, "spectral_s": None, "block_len": None,
                    "blocks": None, "class": None}
                   for scale, width, direct_s in zip(self.scales, self.widths, sched.direct_s)]
        for index, cls in enumerate(sched.classes):
            spectral_s = cls.row_seconds(sched.hop)
            for row in cls.rows:
                records[row] |= {"route": "spectral", "spectral_s": spectral_s,
                                 "block_len": cls.block_len, "blocks": cls.blocks,
                                 "class": index}
        return records

    def execute(self, x: np.ndarray, hop: int, threads: int = 1) -> np.ndarray:
        """Columns 0, hop, 2*hop, ... of every row of the transform of ``x``.

        Each row is one task that writes its row, by the route
        ``schedule(x.size, widths, hop)`` names, on the calling thread or on
        ``_pool(threads)``: the direct rows, then each width class's, so only
        one class's block spectra are held.  Samples that could overflow a
        coefficient or a spectrum raise CoefficientOverflow before any work.
        """
        peak = float(max(x.max(), -x.min()))
        if not peak * self.gain < _kernels.SAFE_PEAK:
            raise CoefficientOverflow(f"samples up to {peak:.3g} against taps of gain"
                                      f" {self.gain:.3g} may overflow the coefficients")
        n = x.size
        sched = schedule(n, self.widths, hop)
        widths, hop, frames, routes = sched.widths, sched.hop, sched.frames, sched.routes
        taps = [(re[(re.size - w) // 2:][:w], im[(im.size - w) // 2:][:w])
                for (re, im), w in zip(self.taps, widths)]
        direct = [row for row in range(self.count) if not routes[row]]
        if direct:
            pad = max(widths) // 2
            # the zeros each direct row's kernel layout reads past the signal
            xpad = np.zeros(pad + n + pad + hop + 2 * _kernels.MIN_SPAN)
            xpad[pad:pad + n] = x
        # out after xpad: the other order measured ~400 more page faults a corpus_scan request
        out = np.empty((self.count, frames), dtype=np.complex128)
        run = map if threads <= 1 else _pool(threads).map
        if direct:
            # list() waits for the tasks and raises their errors
            list(run(_direct_row, [out[row] for row in direct], repeat(xpad),
                     [taps[row] for row in direct], repeat(pad), repeat(hop), repeat(frames)))
        for cls in sched.classes:
            spectra = _block_spectra(x, cls)
            kernels = _kernel_spectra(cls, taps)
            list(run(_block_row, [out[row] for row in cls.rows], repeat(spectra), repeat(cls),
                     kernels, repeat(hop)))
            del spectra, kernels
        return out

PLAN_CACHE_SIZE = 8


def plan_for(params: MorletParams, grid: ScaleGrid) -> CwtPlan:
    """The cached plan of (params, grid), built on a miss; least recently used go first.

    The key is the parameter values and the scale bytes, never the
    objects, so mutating a ``MorletParams`` or passing a new grid with
    other scales builds a new plan.  Safe to call from several threads.
    """
    return _build_plan(params.center_frequency, params.bandwidth, params.support_radius,
                       grid.scales.tobytes())


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _build_plan(center_frequency: float, bandwidth: float, support_radius: float,
                scales: bytes) -> CwtPlan:
    return CwtPlan(MorletParams(center_frequency, bandwidth, support_radius),
                   ScaleGrid(np.frombuffer(scales)))


clear_plan_cache = _build_plan.cache_clear


# --- shared row machinery ----------------------------------------------------


def _copy_grid(grid: ScaleGrid) -> ScaleGrid:
    return ScaleGrid(grid.scales.copy())


def _reach(n: int, widths, hop: int) -> tuple[tuple, int]:
    """The tap counts and hop that matter on a signal of ``n`` samples.

    A lag of ``n`` or more meets no sample, so a row needs at most
    2n - 1 taps; and any hop of ``n`` or more keeps column 0 alone, as a
    hop of ``n`` does.  Work sized by these is bounded by the signal,
    whatever the scale or the hop.
    """
    return tuple(min(w, 2 * n - 1) for w in widths), min(hop, n)


# candidate block lengths, in units of a class's reach 2*pad + 1
BLOCK_FACTORS = (2, 3, 4, 8)


class BlockClass(NamedTuple):
    """Rows whose spectral route shares one batch of block spectra.

    Segment k is ``x[k*step - pad : k*step - pad + block_len]``, zeros
    outside the signal; ``blocks`` segments cover translations
    0..n-1, ``step`` of them each.  ``rows`` are the row indices.
    """

    pad: int
    block_len: int
    step: int
    blocks: int
    rows: tuple = ()

    def spectra_seconds(self) -> float:
        """Predicted seconds of the batched FFT of the segments, paid once per class."""
        return _kernels.fft_seconds(self.block_len, self.blocks)

    def row_seconds(self, hop: int) -> float:
        """Predicted seconds of one of its rows: ``_kernels.spectral_seconds``."""
        return _kernels.spectral_seconds(self.block_len, hop, self.blocks)


def class_options(n: int, pad: int, hop: int) -> list[BlockClass]:
    """The layouts a class of this pad may take: one block, then blocks of ``BLOCK_FACTORS``.

    A single block of ``block_len >= n + pad`` is free of wrap-around:
    only lags past the signal wrap, and they land in the zeros before
    it; its step is the whole block.  Blocks of ``factor * (2*pad + 1)``
    (rounded up to a fast multiple of ``hop``) are options while shorter
    than that and holding at least one hop of step.
    """
    one = hop * _next_fast_len(-(-(n + pad) // hop))
    return [BlockClass(pad, one, one, 1)] + [
        BlockClass(pad, block_len, step, -(-n // step))
        for block_len, step in _factor_blocks(pad, hop) if block_len < one]


@functools.lru_cache(maxsize=1024)
def _factor_blocks(pad: int, hop: int) -> tuple:
    """(block_len, step) of each of ``BLOCK_FACTORS`` whose step holds a hop."""
    shapes = []
    for factor in BLOCK_FACTORS:
        block_len = hop * _next_fast_len(-(-factor * (2 * pad + 1) // hop))
        step = (block_len - 2 * pad) // hop * hop
        if step >= hop:
            shapes.append((block_len, step))
    return tuple(shapes)


# the largest length the table of FFT-friendly lengths holds
SMOOTH_LIMIT = 1 << 32


def _next_fast_len(target: int) -> int:
    """The least integer >= ``target`` built from the factors 2, 3, 5, 7 and 11.

    These are the lengths pocketfft transforms fastest, and the value is
    ``scipy.fft.next_fast_len(target)``'s.  A bisection of a sorted table
    up to ``SMOOTH_LIMIT``; past it, the least odd such number times the
    least power of two that reaches ``target``.
    """
    table = _smooth_table()
    index = bisect.bisect_left(table, target)
    if index < len(table):
        return table[index]
    return min(odd << ((target - 1) // odd).bit_length()
               for odd in _smooth_numbers(2 * target, (3, 5, 7, 11)))


@functools.cache
def _smooth_table() -> list[int]:
    return _smooth_numbers(SMOOTH_LIMIT)


def _smooth_numbers(limit: int, primes: tuple = (2, 3, 5, 7, 11)) -> list[int]:
    """Every integer up to ``limit`` with no prime factor outside ``primes``, ascending."""
    numbers = [1]
    for prime in primes:
        grown = []
        for number in numbers:
            while number <= limit:
                grown.append(number)
                number *= prime
        numbers = grown
    return sorted(numbers)


class Schedule(NamedTuple):
    """How one transform call computes its rows, and what the model predicts it costs.

    ``widths`` and ``hop`` are what reaches the signal (``_reach``),
    ``frames`` the retained columns and ``classes`` the width classes of
    the spectral rows.  ``direct_s`` is each row's direct-route seconds,
    ``routes`` is True where a row goes spectral, and ``seconds`` prices
    the call: each direct row by its direct seconds, each class by its
    block spectra and its rows.
    """

    widths: tuple
    hop: int
    frames: int
    classes: tuple
    direct_s: tuple
    routes: tuple
    seconds: float


def schedule(n: int, widths, hop: int) -> Schedule:
    """The :class:`Schedule` of rows of these tap counts on ``n`` samples at ``hop``.

    A pure function of the signal length, the tap counts and the hop,
    cached.  Taken in order of tap count, the narrowest rows stay direct
    and the rest are split into runs, each a class padded for its widest
    row in the ``class_options`` layout the seconds model prices
    cheapest.  The split and the direct prefix are the cheapest of all
    (one shortest-path pass over the run ends), so the call is never
    priced above all rows direct or one class of a single block; a class
    is taken only where it is strictly cheaper than direct rows.
    """
    return _schedule(n, *_reach(n, widths, hop))


@functools.lru_cache(maxsize=256)
def _schedule(n: int, widths: tuple, hop: int) -> Schedule:
    frames = -(-n // hop)
    direct_s = tuple(_kernels.direct_seconds(w, hop, frames) for w in widths)
    order = sorted(range(len(widths)), key=widths.__getitem__)
    options = [class_options(n, widths[row] // 2, hop) for row in order]
    # prices[j, o]: (spectra, row) seconds of option o of a class ending at row j in order
    prices = np.full((len(order), 1 + len(BLOCK_FACTORS), 2), np.inf)
    for j, row_options in enumerate(options):
        prices[j, :len(row_options)] = [(cls.spectra_seconds(), cls.row_seconds(hop))
                                        for cls in row_options]
    # best[j]: seconds of the cheapest schedule of the first j rows in order, at
    # first all direct; where a class is cheaper, it starts at row start[j] in the
    # layout last[j]
    best = np.concatenate([[0.0], np.cumsum([direct_s[row] for row in order])])
    start, last = [0] * len(best), [None] * len(best)
    counts = np.arange(len(order), 0, -1)
    for end in range(1, len(best)):
        # per option and first row of the run: the run's seconds
        runs = prices[end - 1, :, :1] + prices[end - 1, :, 1:] * counts[-end:]
        seconds = best[:end] + runs.min(axis=0)
        first = int(seconds.argmin())
        if seconds[first] < best[end]:
            best[end], start[end] = seconds[first], first
            last[end] = options[end - 1][int(runs[:, first].argmin())]
    classes = []
    end = len(order)
    while last[end] is not None:
        classes.append(last[end]._replace(rows=tuple(order[start[end]:end])))
        end = start[end]
    spectral = set(order[end:])
    routes = tuple(row in spectral for row in range(len(widths)))
    return Schedule(widths, hop, frames, tuple(reversed(classes)), direct_s, routes,
                    float(best[-1]))


def _block_spectra(x: np.ndarray, cls: BlockClass) -> np.ndarray:
    """The ``(blocks, block_len)`` spectra of the class's segments of ``x``.

    The segments are real, so each spectrum is conjugate-symmetric: one
    real FFT gives bins 0 .. block_len // 2, and the upper bins are the
    conjugates of the lower ones, bin k being conj(bin block_len - k).
    """
    xpad = np.zeros((cls.blocks - 1) * cls.step + cls.block_len)
    xpad[cls.pad:cls.pad + x.size] = x
    segments = np.lib.stride_tricks.sliding_window_view(xpad, cls.block_len)[::cls.step]
    spectra = np.empty((cls.blocks, cls.block_len), dtype=np.complex128)
    half = cls.block_len // 2 + 1
    np.fft.rfft(segments, axis=-1, out=spectra[:, :half])
    np.conjugate(spectra[:, cls.block_len - half:0:-1], out=spectra[:, half:])
    return spectra


def _kernel_spectra(cls: BlockClass, taps) -> np.ndarray:
    """The ``(rows, block_len)`` kernel spectra of the class's rows, in the order of ``cls.rows``.

    ``taps[row]`` is the row's (real, imaginary) taps.  A row's kernel is
    its reversed taps, lag d at index -pad - d modulo the block, so lag
    -pad of a row as wide as the class wraps to index 0.  All kernels are
    laid out in one contiguous buffer and transformed in place by one
    batched FFT.
    """
    kernels = np.zeros((len(cls.rows), cls.block_len), dtype=np.complex128)
    for kernel, row in zip(kernels, cls.rows):
        width = taps[row][0].size
        start = cls.block_len - cls.pad - width // 2
        # lag -pad of a row as wide as the class, one past the block's end, wraps to index 0
        wrap = max(0, start + width - cls.block_len)
        for part, row_taps in zip((kernel.real, kernel.imag), taps[row]):
            part[start:start + width - wrap] = row_taps[wrap:][::-1]
            part[:wrap] = row_taps[:wrap][::-1]
    return np.fft.fft(kernels, axis=-1, out=kernels)


def _direct_row(out, xpad, taps, pad: int, hop: int, frames: int) -> None:
    """A direct row into ``out``; ``xpad`` is the signal after ``pad`` zeros."""
    taps_re, taps_im = taps
    base = xpad[pad - taps_re.size // 2:]
    re, im = _kernels.strided_correlate(base, taps_re, taps_im, hop, frames)
    out[...] = re + 1j * im


def _block_row(out, spectra, cls: BlockClass, kernel, hop: int) -> None:
    """Translations 0, hop, 2*hop, ... of one row into ``out``, from its class's block spectra.

    ``kernel`` is the row's kernel spectrum (``_kernel_spectra``).
    Overlap-save (Stockham, "High-speed convolution and correlation",
    1966): in each segment, output i is translation k*step + i, which
    reaches segment samples pad + i - half .. pad + i + half, so the
    first ``step`` outputs of every block are free of wrap-around.
    Keeping every hop-th output of a block equals summing the hop
    aliased bands of its spectrum and taking one inverse FFT of
    length block_len/hop (Crochiere & Rabiner, Multirate Digital Signal
    Processing, 1983); at hop 1 the fold is the identity.
    """
    blocks, block_len = spectra.shape
    product = kernel * spectra
    if hop > 1:
        product = product.reshape(blocks, hop, block_len // hop).sum(axis=1)
    outputs = np.fft.ifft(product, axis=-1, out=product)
    keep = cls.step // hop
    whole, rest = divmod(out.size, keep)
    np.divide(outputs[:whole, :keep], hop, out=out[:whole * keep].reshape(whole, keep))
    if rest:
        np.divide(outputs[whole, :rest], hop, out=out[whole * keep:])


@functools.lru_cache(maxsize=1)
def _pool(threads: int) -> ThreadPoolExecutor:
    """The row pool of ``threads`` threads, kept across calls; another count or a fork drops it."""
    return ThreadPoolExecutor(max_workers=threads)


os.register_at_fork(after_in_child=_pool.cache_clear)
