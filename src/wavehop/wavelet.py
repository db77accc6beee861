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

The direct rows are cut, in order of tap count, into stacks
(``schedule``'s ``stacks``, sized by ``_kernels.stack_sizes``): each
stack is one polyphase product of ``_kernels.stacked_correlate``, within
``_kernels.CHUNK_PRODUCTS`` unless it is one row, and each stack's taps,
laid out for that product, are held across calls in ``held_layouts``.

There is one spectral route, overlap-save: spectral rows are grouped
into width classes (``schedule``), and each class takes one batched FFT
of overlapping signal segments.  A row's kernel spectrum times the
segment spectra, every block folded into hop bands, is the spectrum of
the retained outputs; at hop 1 the fold is the identity.  A class
computes that product and fold in one of two executions, whichever its
``schedule`` prices cheaper: ``"row"``, each row on its own
(``_block_row``, one batched inverse FFT a row), or ``"band"``, all its
rows at once in the fold's polyphase form: each segment's phases take
real FFTs of length block_len/hop (``_band_spectra``), and bin m of
every block and row is one matmul by the kernels' phase spectra
(``_band_rows``, one inverse FFT a class).  Both executions lay a row's
taps out one way (``_lay_taps``) and transform them by an unscaled
inverse FFT.  One rule holds a class's kernels, in either execution: a
layout whose block length does not depend on the signal (``_holds``)
takes them from ``held_layouts``, one byte-bounded LRU that every plan
shares and that holds the stacked taps as well, and a single block,
whose block length follows the signal, builds them in the call.  Work
is sized by what can reach a sample: at most 2N - 1 taps, and a hop of
N or more computes as hop N.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (
    InvalidCount,
    InvalidParameter,
    InvalidRange,
    InvalidScale,
)
from .signal_io import SignalBuffer, decimate, _check_int


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
        self.hop = _check_int(self.hop)
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
    with np.errstate(over="ignore"):  # a scale past the largest double is inf: refused below
        scales = params.center_frequency * sample_rate / np.geomspace(f_max, f_min, count)
    # Python floats: a product past the largest double is inf, refused below, with no warning
    reach = params.support_radius * float(scales[0]) * math.sqrt(params.bandwidth / 2.0)
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
    reach = params.support_radius * float(scale) * math.sqrt(b / 2.0)
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

    - direct: ceil(N/hop) dot products, taken with the other rows of its
      stack as one polyphase matmul by ``_kernels.stacked_correlate``, a
      cost proportional to the frames;
    - spectral: the block row of the row's width class, whose segment
      spectra are folded into ``hop`` aliased bands before one batched
      inverse FFT of length block_len/hop.

    The choice depends only on the signal length, the tap counts and the
    hop, so repeated calls give bit-identical coefficients whatever
    ``threads`` is; above 1 it sizes a row pool kept across calls.  A
    ``hop`` or ``threads`` that is not a whole number >= 1 raises
    InvalidHop or InvalidParameter before any work.
    """
    hop, threads = _check_int(hop), _check_int(threads, "threads", InvalidParameter)
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
    _check_int(threads, "threads", InvalidParameter)  # before decimate's work; it checks hop
    reduced = decimate(signal, hop, anti_alias)
    inner = cwt_fft(reduced, grid, params, threads=threads)
    return CoefficientMatrix(inner.values, hop, reduced.sample_rate, inner.scale_grid)


# --- plans and their cache ---------------------------------------------------


class CwtPlan:
    """One grid's wavelet taps, sampled once, and the row loop that runs on them.

    Taps do not depend on the signal, so a plan serves every length and
    hop.  Each row is held once, as read-only contiguous arrays of its
    real and imaginary parts, and a plan does not change after it is
    built.  ``_kernels.stack_taps`` lays a stack's rows out for the
    direct kernel's product, ``_kernel_spectra`` a row class's kernel
    spectra and ``_band_kernels`` a band's polyphase kernel spectra for
    its matmuls.  ``execute`` takes each from ``held_layouts``, under a
    key that starts with the plan's ``serial``, wherever its layout does
    not follow the signal, and builds it in the call wherever it does, by
    one rule (``_held_key``).
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
        self.serial = next(_plan_serials)  # this plan's part of its held layouts' keys

    @property
    def count(self) -> int:
        return len(self.taps)

    def explain(self, n: int, hop: int) -> list[dict]:
        """One record per row: scale, tap count, route, predicted seconds and layout.

        Read from ``schedule(n, widths, hop)``, as ``execute`` reads it.
        ``direct_s`` is the row's direct-route seconds.  A direct row's
        ``stack`` is an index into the schedule's ``stacks``.  A spectral
        row's ``spectral_s`` prices it without the block spectra its width
        class shares (``class_row_seconds``), ``block_len``, ``blocks`` and
        ``class`` (an index into the schedule's ``classes``) give its
        layout, and ``execution`` is its class's, ``"row"`` or ``"band"``.
        ``held`` is whether the row's layout, its stack's taps or its
        class's kernels in its execution, is held across calls
        (``_held_key``).  A field of the other route is None.  A bad ``n``
        or ``hop`` raises as in ``schedule``.
        """
        sched = schedule(n, self.widths, hop)
        records = [{"scale": float(scale), "taps": width, "route": "direct",
                    "direct_s": direct_s, "stack": None, "spectral_s": None, "block_len": None,
                    "blocks": None, "class": None, "execution": None, "held": None}
                   for scale, width, direct_s in zip(self.scales, self.widths, sched.direct_s)]
        for index, rows in enumerate(sched.stacks):
            held = self._held_key(sched, hop, rows) is not None
            for row in rows:
                records[row] |= {"stack": index, "held": held}
        for index, cls in enumerate(sched.classes):
            spectral_s = class_row_seconds(cls, sched.hop)
            held = self._held_key(sched, hop, cls.rows, cls) is not None
            for row in cls.rows:
                records[row] |= {"route": "spectral", "spectral_s": spectral_s,
                                 "block_len": cls.block_len, "blocks": cls.blocks,
                                 "class": index, "execution": cls.execution, "held": held}
        return records

    def execute(self, x: np.ndarray, hop: int, threads: int = 1) -> np.ndarray:
        """Columns 0, hop, 2*hop, ... of every row of the transform of ``x``.

        ``schedule(x.size, widths, hop)`` lays out the work: each stack of
        direct rows is one task, then each width class's rows one task
        each, or a band class's chunks of bins one task each, so only one
        class's segment spectra are held.  Each task writes its own rows or
        bins, on the calling thread or on ``_pool(threads)``.
        Samples that could overflow a coefficient or a spectrum raise
        CoefficientOverflow, and a bad ``hop``, a bad ``threads`` or an
        empty ``x`` InvalidHop or InvalidParameter, before any work.
        """
        threads = _check_int(threads, "threads", InvalidParameter)
        sched = schedule(x.size, self.widths, hop)
        _kernels.check_overflow(x, self.gain, "the coefficients")
        widths, frames = sched.widths, sched.frames
        out = np.empty((self.count, frames), dtype=np.complex128)
        if sched.stacks:
            pad = max(widths) // 2
            xpad = _kernels.zero_padded(x, pad, sched.hop)
        run = map if threads <= 1 else _pool(threads).map
        if sched.stacks:
            # each stack reads xpad from its widest row's first tap
            starts = [xpad[pad - max(widths[row] for row in rows) // 2:] for rows in sched.stacks]
            stacks = [held_layouts.get(self._held_key(sched, hop, rows), lambda: (
                _kernels.stack_taps([self._row_taps(row, widths[row]) for row in rows], sched.hop)))
                for rows in sched.stacks]
            # list() waits for the tasks and raises their errors
            list(run(_direct_stack, repeat(out), starts, stacks, sched.stacks, repeat(frames)))
        for cls in sched.classes:
            build = _kernel_spectra if cls.execution == "row" else _band_kernels
            kernels = held_layouts.get(self._held_key(sched, hop, cls.rows, cls), lambda: build(
                cls, [self._row_taps(row, widths[row]) for row in cls.rows], sched.hop))
            if cls.execution == "row":
                spectra = _block_spectra(x, cls)
                list(run(_block_row, [out[row] for row in cls.rows], repeat(spectra),
                         repeat(cls), kernels, repeat(sched.hop)))
            else:
                spectra = _band_spectra(x, cls, sched.hop)
                _band_rows(out, spectra, cls, kernels, sched.hop, run)
            del spectra, kernels
        return out

    def _held_key(self, sched: Schedule, hop: int, rows: tuple, cls: BlockClass | None = None):
        """The ``held_layouts`` key of the stacked taps of ``rows``, or with ``cls`` of its
        kernels in its execution, at ``hop``; None where that layout is built in each call.

        One rule, whatever the execution: a layout is held unless it
        follows the signal.  Work laid out for rows or a hop that
        ``_kernels.reach`` cut serves signals this short alone, and a
        class's kernels are held where its layout ``_holds``; a single
        block's block length follows the signal's length.  A row and a
        band of the same rows and block length are two entries.
        """
        whole = sched.hop == hop and all(sched.widths[row] == self.widths[row] for row in rows)
        held = whole and (cls is None or _holds(cls, hop))
        layout = None if cls is None else (cls.block_len, cls.execution)
        return (self.serial, hop, rows, layout) if held else None

    def _row_taps(self, row: int, width: int) -> tuple:
        """The row's (real, imaginary) taps, cut to the ``width`` around the centre that matter."""
        return tuple(part[(part.size - width) // 2:][:width] for part in self.taps[row])


PLAN_CACHE_SIZE = 8
# the most bytes of layouts held across calls, by all plans together
HELD_BYTES = 16 << 20


class HeldLayouts:
    """Layouts held across calls, by key, in one LRU bounded by bytes: a plan's stacked taps
    (``_kernels.Stack``) and its classes' kernels (``_kernel_spectra``, ``_band_kernels``).

    ``get`` returns the entry of ``key``, or builds it with ``build()``
    and holds it, then drops the least recently used entries until the
    total ``nbytes`` is within ``budget`` again; an entry larger than
    the budget, or of key None, is returned and not held.  Safe to call
    from several threads; two threads missing the same key each build
    it, with the same result.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries = OrderedDict()
        self.bytes = 0
        self.lock = threading.Lock()

    def get(self, key, build):
        with self.lock:
            if key in self.entries:
                self.entries.move_to_end(key)
                return self.entries[key]
        value = build()
        with self.lock:
            if key is not None and key not in self.entries and value.nbytes <= self.budget:
                self.entries[key] = value
                self.bytes += value.nbytes
                while self.bytes > self.budget:
                    self.bytes -= self.entries.popitem(last=False)[1].nbytes
        return value

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.bytes = 0


held_layouts = HeldLayouts(HELD_BYTES)
_plan_serials = itertools.count()


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


def clear_plan_cache() -> None:
    """Drop every cached plan and every layout held for one."""
    _build_plan.cache_clear()
    held_layouts.clear()


# --- shared row machinery ----------------------------------------------------


def _copy_grid(grid: ScaleGrid) -> ScaleGrid:
    return ScaleGrid(grid.scales.copy())


# candidate block lengths, in units of a class's reach 2*pad + 1
BLOCK_FACTORS = (2, 3, 4, 8)


class BlockClass(NamedTuple):
    """Rows whose spectral route shares one batch of block spectra.

    Segment k is ``x[k*step - pad : k*step - pad + block_len]``, zeros
    outside the signal; ``blocks`` segments cover translations
    0..n-1, ``step`` of them each.  ``rows`` are the row indices.
    ``execution`` is ``"row"``, each row's product and fold on its own
    (``_block_row``), or ``"band"``, all of them in one matmul over bins
    (``_band_rows``).
    """

    pad: int
    block_len: int
    step: int
    blocks: int
    rows: tuple = ()
    execution: str = "row"


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


def _next_fast_len(target: int) -> int:
    """The least integer >= ``target`` built from the factors 2, 3, 5, 7 and 11.

    These are the lengths pocketfft transforms fastest, and the value is
    ``scipy.fft.next_fast_len(target)``'s.  A bisection of the table of
    such integers up to the least power of two that reaches ``target``,
    itself one of them.
    """
    table = _smooth_numbers((target - 1).bit_length())
    return table[bisect.bisect_left(table, target)]


@functools.cache
def _smooth_numbers(bits: int) -> list[int]:
    """Every integer up to ``2**bits`` with no prime factor above 11, ascending."""
    numbers = [1]
    for prime in (2, 3, 5, 7, 11):
        grown = []
        for number in numbers:
            while number <= 1 << bits:
                grown.append(number)
                number *= prime
        numbers = grown
    return sorted(numbers)


class Schedule(NamedTuple):
    """How one transform call computes its rows, and what the model predicts it costs.

    ``widths`` and ``hop`` are what reaches the signal (``_kernels.reach``),
    ``frames`` the retained columns and ``classes`` the width classes of
    the spectral rows.  ``direct_s`` is each row's direct-route seconds,
    ``routes`` is True where a row goes spectral, and ``seconds`` prices
    the call: each direct row by its direct seconds, each class by its
    block spectra and its rows, in its execution (``_class_prices``).
    ``stacks`` cuts the direct rows, in order of tap count, into the
    stacks ``_kernels.stacked_correlate`` computes (``_stacks``); they
    are not priced apart from their rows.
    """

    widths: tuple
    hop: int
    frames: int
    classes: tuple
    direct_s: tuple
    routes: tuple
    seconds: float
    stacks: tuple


def schedule(n: int, widths, hop: int) -> Schedule:
    """The :class:`Schedule` of rows of these tap counts on ``n`` samples at ``hop``.

    A pure function of the signal length, the tap counts and the hop,
    cached.  Taken in order of tap count, the narrowest rows stay direct
    and the rest are split into runs, each a class padded for its widest
    row in the ``class_options`` layout and the execution, row or band,
    that the seconds model prices cheapest; every layout is offered in
    both executions, and a band takes at most the rows
    ``_band_capacity`` allows.  The split and the direct prefix are
    the cheapest of all (one shortest-path pass over the run ends), so
    the call is never priced above all rows direct or one class of a
    single block; a class is taken only where it is strictly cheaper
    than direct rows.  An ``n`` or ``hop`` that is not a whole number
    >= 1 raises InvalidParameter or InvalidHop.
    """
    n, hop = _check_int(n, "n", InvalidParameter), _check_int(hop)
    return _schedule(n, *_kernels.reach(n, widths, hop))


@functools.lru_cache(maxsize=256)
def _schedule(n: int, widths: tuple, hop: int) -> Schedule:
    frames = -(-n // hop)
    direct_s = tuple(_kernels.direct_seconds(w, hop, frames) for w in widths)
    order = sorted(range(len(widths)), key=widths.__getitem__)
    options = [class_options(n, widths[row] // 2, hop) for row in order]
    # option o of a class ending at row j in order is layout o // 2 of its options in execution
    # EXECUTIONS[o % 2]; prices[j, o]: its seconds paid once per class (the segment spectra, and
    # a band's own fixed cost) and per row, inf past the row's options; most[j, o]: the rows
    # it may take (``_band_capacity``)
    width = len(EXECUTIONS) * (1 + len(BLOCK_FACTORS))
    prices = np.array([[price for cls in row_options
                        for price in _class_prices(cls, hop)]
                       + [(np.inf, np.inf)] * (width - len(EXECUTIONS) * len(row_options))
                       for row_options in options])
    most = np.array([[count for cls in row_options
                      for count in (len(order), _band_capacity(cls, hop))]
                     + [0] * (width - len(EXECUTIONS) * len(row_options))
                     for row_options in options])
    # best[j]: seconds of the cheapest schedule of the first j rows in order, at
    # first all direct; where a class is cheaper, it starts at row start[j] in the
    # layout last[j]
    best = np.concatenate([[0.0], np.cumsum([direct_s[row] for row in order])])
    start, last = [0] * len(best), [None] * len(best)
    counts = np.arange(len(order), 0, -1)
    for end in range(1, len(best)):
        # per option and first row of the run: the run's seconds
        runs = prices[end - 1, :, :1] + prices[end - 1, :, 1:] * counts[-end:]
        runs[most[end - 1, :, None] < counts[-end:]] = np.inf
        seconds = best[:end] + runs.min(axis=0)
        first = int(seconds.argmin())
        if seconds[first] < best[end]:
            best[end], start[end] = seconds[first], first
            layout, execution = divmod(int(runs[:, first].argmin()), len(EXECUTIONS))
            last[end] = options[end - 1][layout]._replace(execution=EXECUTIONS[execution])
    classes = []
    end = len(order)
    while last[end] is not None:
        classes.append(last[end]._replace(rows=tuple(order[start[end]:end])))
        end = start[end]
    spectral = set(order[end:])
    routes = tuple(row in spectral for row in range(len(widths)))
    return Schedule(widths, hop, frames, tuple(reversed(classes)), direct_s, routes,
                    float(best[-1]), _stacks(n, widths, order[:end], hop, frames))


EXECUTIONS = ("row", "band")


def _holds(cls: BlockClass, hop: int) -> bool:
    """Whether a class of this layout holds its kernels across calls, in either execution: a
    layout of ``_factor_blocks``, whose ``block_len`` does not follow the signal's length."""
    return (cls.block_len, cls.step) in _factor_blocks(cls.pad, hop)


def _class_prices(cls: BlockClass, hop: int) -> tuple:
    """(seconds paid once, seconds per row) of a class of this layout in each of ``EXECUTIONS``.

    Every layout is offered both ways.  A block row is priced with its
    kernel's FFT, held or not, until the model is refitted; a band's
    kernels cost nothing per call where the layout ``_holds`` them, and
    their build where it does not (``_kernels.band_seconds``).
    """
    shape = cls.block_len, hop, cls.blocks
    spectra = _kernels.fft_seconds(cls.block_len, cls.blocks)
    fixed, one = (_kernels.band_seconds(*shape, rows, _holds(cls, hop)) for rows in (0, 1))
    return (spectra, _kernels.spectral_seconds(*shape)), (spectra + fixed, one - fixed)


def class_row_seconds(cls: BlockClass, hop: int) -> float:
    """Predicted seconds of one row of ``cls``, the segment spectra the class shares excluded:
    a block row's, or a band row's share of its class, the build of kernels its layout does not
    hold included."""
    if cls.execution == "row":
        return _kernels.spectral_seconds(cls.block_len, hop, cls.blocks)
    rows = len(cls.rows)
    return _kernels.band_seconds(cls.block_len, hop, cls.blocks, rows, _holds(cls, hop)) / rows


# the most bytes one band class's kernels, or its folded spectra, may take
BAND_CLASS_BYTES = 8 << 20
# a band class's matmuls are split into tasks of this many bytes of segment spectra
BAND_CHUNK_BYTES = 1 << 18


def _band_capacity(cls: BlockClass, hop: int) -> int:
    """The most rows a band class of this layout takes: as many as keep its kernels,
    ``rows * block_len`` points, and its folded spectra, ``rows * blocks * block_len / hop``,
    within ``BAND_CLASS_BYTES``."""
    return BAND_CLASS_BYTES // (16 * cls.block_len * -(-cls.blocks // hop))


def _stacks(n: int, widths: tuple, direct, hop: int, frames: int) -> tuple:
    """The ``direct`` rows, taken in order of tap count, cut into ``_kernels.stack_sizes``.

    The rows that ``_kernels.reach`` may have cut, ``2n - 1`` taps wide,
    are cut apart from the others, so a short signal still finds the
    others' stacks held (``CwtPlan._held_key``).
    """
    whole = bisect.bisect_left([widths[row] for row in direct], 2 * n - 1)
    stacks = []
    for part in (direct[:whole], direct[whole:]):
        start = 0
        for size in _kernels.stack_sizes([widths[row] for row in part], hop, frames):
            stacks.append(tuple(part[start:start + size]))
            start += size
    return tuple(stacks)


def _block_spectra(x: np.ndarray, cls: BlockClass) -> np.ndarray:
    """The ``(blocks, block_len)`` spectra of the class's segments of ``x``.

    The segments are real, so each spectrum is conjugate-symmetric: one
    real FFT gives bins 0 .. block_len // 2, and the upper bins are the
    conjugates of the lower ones, bin k being conj(bin block_len - k).
    """
    segments = np.lib.stride_tricks.sliding_window_view(_padded(x, cls), cls.block_len)[::cls.step]
    spectra = np.empty((cls.blocks, cls.block_len), dtype=np.complex128)
    half = cls.block_len // 2 + 1
    np.fft.rfft(segments, axis=-1, out=spectra[:, :half])
    np.conjugate(spectra[:, cls.block_len - half:0:-1], out=spectra[:, half:])
    return spectra


def _kernel_spectra(cls: BlockClass, taps, hop: int) -> np.ndarray:
    """The ``(rows, block_len)`` kernel spectra of the class's rows, in the order of ``cls.rows``.

    ``taps`` holds each of those rows' (real, imaginary) taps, in that
    order.  Laid out as ``_lay_taps`` places them, a row's taps ``W``
    make block output i the sum of ``W[c]`` times the segment's sample
    ``i + c``, a circular correlation; so its kernel spectrum is ``sum_c
    W[c] * exp(2j*pi*k*c/block_len)``, their unscaled inverse FFT, taken
    for all rows by one batched transform in place.  The fold sums
    ``hop`` bands, and the taps' ``1/hop`` makes that sum the retained
    outputs' spectrum, exactly so at a power-of-two hop.  Read-only, as
    it may be held.
    """
    kernels = np.zeros((len(cls.rows), cls.block_len), dtype=np.complex128)
    _lay_taps(kernels.T, cls, [(re * (1 / hop), im * (1 / hop)) for re, im in taps])
    np.fft.ifft(kernels, axis=-1, norm="forward", out=kernels)
    kernels.setflags(write=False)
    return kernels


def _lay_taps(laid, cls: BlockClass, taps) -> None:
    """Row r's taps into column r of ``laid``, ``(block_len, rows)``, from index ``pad - (width -
    1) // 2``, where the segment sample that block output 0 meets with its first tap sits.  The
    one placement of both executions' kernels: no row reaches past the block's end."""
    for row, (re, im) in enumerate(taps):
        first = cls.pad - (re.size - 1) // 2
        laid.real[first:first + re.size, row] = re
        laid.imag[first:first + im.size, row] = im


def _padded(x: np.ndarray, cls: BlockClass) -> np.ndarray:
    """``x`` from index ``pad`` of zeros as long as the class's segments reach: the padded
    signal of both executions' segment spectra."""
    xpad = np.zeros((cls.blocks - 1) * cls.step + cls.block_len)
    xpad[cls.pad:cls.pad + x.size] = x
    return xpad


def _band_spectra(x: np.ndarray, cls: BlockClass, hop: int) -> np.ndarray:
    """The ``(block_len/hop, blocks, hop)`` polyphase spectra of the class's segments of ``x``.

    [m, b, p] is bin m of the FFT of segment b's samples p, p + hop, ...
    (``M = block_len/hop`` of them): one real FFT along the first axis
    of a strided view of the segments writes bins 0 .. M // 2, and the
    upper bins are the conjugates of the lower ones, as in
    ``_block_spectra``.
    """
    bins = cls.block_len // hop
    xpad = _padded(x, cls)
    sample = xpad.strides[0]
    # [q, b, p]: segment b's sample q*hop + p
    phases = np.lib.stride_tricks.as_strided(
        xpad, (bins, cls.blocks, hop), (hop * sample, cls.step * sample, sample), writeable=False)
    spectra = np.empty((bins, cls.blocks, hop), dtype=np.complex128)
    half = bins // 2 + 1
    np.fft.rfft(phases, axis=0, out=spectra[:half])
    np.conjugate(spectra[bins - half:0:-1], out=spectra[half:])
    return spectra


def _band_kernels(cls: BlockClass, taps, hop: int) -> np.ndarray:
    """The class's kernels in the band's polyphase layout, ``(M, hop, rows)``, M = block_len/hop.

    ``taps`` is as in ``_kernel_spectra``, and laid out as there
    (``_lay_taps``).  Cut into ``(M, hop)`` rows ``W``, the laid taps
    make retained output j the sum of ``W[c, p]`` times phase p's sample
    ``j + c``, a circular correlation of length M; so [m, p, r] is
    ``sum_c W[c, p] * exp(2j*pi*m*c/M)`` of row r's ``W``, its unscaled
    inverse FFT.  The taps are written straight into that layout and
    transformed there, in place.  Read-only, as it may be held.
    """
    band = np.zeros((cls.block_len // hop, hop, len(cls.rows)), dtype=np.complex128)
    _lay_taps(band.reshape(cls.block_len, len(cls.rows)), cls, taps)
    np.fft.ifft(band, axis=0, norm="forward", out=band)
    band.setflags(write=False)
    return band


def _direct_stack(out, xpad, stack: _kernels.Stack, rows: tuple, frames: int) -> None:
    """A stack's direct ``rows`` into their rows of ``out``; ``xpad`` starts at its widest row's
    first tap."""
    for row, (re, im) in zip(rows, _kernels.stacked_correlate(xpad, stack, frames)):
        coefficients = out[row]
        coefficients.real, coefficients.imag = re, im


def _block_row(out, spectra, cls: BlockClass, kernel, hop: int) -> None:
    """Translations 0, hop, 2*hop, ... of one row into ``out``, from its class's block spectra.

    ``kernel`` is the row's kernel spectrum (``_kernel_spectra``).
    Overlap-save (Stockham, "High-speed convolution and correlation",
    1966): in each segment, output i is translation k*step + i, which
    reaches segment samples pad + i - half .. pad + i + half, so the
    first ``step`` outputs of every block are free of wrap-around.
    Keeping every hop-th output of a block equals summing the hop
    aliased bands of its spectrum over ``hop`` and taking one inverse FFT
    of length block_len/hop (Crochiere & Rabiner, Multirate Digital
    Signal Processing, 1983); at hop 1 the fold is the identity.
    """
    blocks, block_len = spectra.shape
    product = kernel * spectra
    if hop > 1:
        product = product.reshape(blocks, hop, block_len // hop).sum(axis=1)
    _retained(out, np.fft.ifft(product, axis=-1, out=product), cls.step // hop)


def _band_rows(out, spectra, cls: BlockClass, kernels, hop: int, run=map) -> None:
    """Translations 0, hop, 2*hop, ... of every row of ``cls`` into its rows of ``out``.

    The polyphase form of the block row's product and fold (Crochiere &
    Rabiner, 1983): a block's retained outputs are the sum over phases
    ``p`` of the circular correlations, of length ``M = block_len/hop``,
    of its samples ``p, p + hop, ...`` with each row's phase-p taps, so
    bin m of them, for every block and row, is the ``(blocks, hop)``
    slab of ``spectra`` (``_band_spectra``) at m times the kernels'
    ``(hop, rows)`` (``_band_kernels``), a matmul read in place.  The
    bins are taken as many at a time as ``BAND_CHUNK_BYTES`` of spectra
    hold, so by the shape alone and never by a thread count, and ``run``
    maps over the chunks; then one inverse FFT of the ``(M, blocks,
    rows)`` products along their first axis, in place.
    """
    bins, blocks, _ = spectra.shape
    folded = np.empty((bins, blocks, len(cls.rows)), dtype=np.complex128)
    chunk = max(1, BAND_CHUNK_BYTES // (16 * blocks * hop))

    def fold(start: int) -> None:
        chunk_bins = slice(start, start + chunk)
        np.matmul(spectra[chunk_bins], kernels[chunk_bins], out=folded[chunk_bins])

    list(run(fold, range(0, bins, chunk)))
    outputs = np.fft.ifft(folded, axis=0, out=folded)
    for index, row in enumerate(cls.rows):
        _retained(out[row], outputs[:, :, index].T, cls.step // hop)


def _retained(out, outputs, keep: int) -> None:
    """The first ``keep`` outputs of each block, in order, into ``out``: the frames they hold."""
    whole, rest = divmod(out.size, keep)
    out[:whole * keep].reshape(whole, keep)[...] = outputs[:whole, :keep]
    if rest:
        out[whole * keep:] = outputs[whole, :rest]


@functools.lru_cache(maxsize=1)
def _pool(threads: int) -> ThreadPoolExecutor:
    """The row pool of ``threads`` threads, kept across calls; another count or a fork drops it."""
    return ThreadPoolExecutor(max_workers=threads)


os.register_at_fork(after_in_child=_pool.cache_clear)
