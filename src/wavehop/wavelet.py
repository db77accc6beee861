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

There is one spectral route, the overlap-save block row: rows are
grouped into width classes (``block_layout``), each class takes one
batched FFT of overlapping signal segments, and each of its rows
multiplies its kernel spectrum into them, folds every block into hop
bands and takes one batched inverse FFT; at hop 1 the fold is the
identity.  Work is sized by what can reach a sample: at most 2N - 1
taps, and a hop of N or more computes as hop N.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

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
    """The full transform: ``cwth_strided`` at hop 1, its rows routed as at any hop.

    Matches ``cwt_direct`` elementwise up to floating-point roundoff,
    whichever route each row takes.  ``threads`` > 1 computes scale rows
    concurrently; results are identical regardless of row evaluation
    order.
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

    - direct: ceil(N/hop) windowed dot products by
      ``_kernels.strided_correlate``, a cost proportional to the frames;
    - spectral: the block row of the row's width class, whose segment
      spectra are folded into ``hop`` aliased bands before one batched
      inverse FFT of length block_len/hop.

    The choice depends only on the signal length, the tap counts and the
    hop, so repeated calls give bit-identical coefficients.
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
    and the block row writes them into its kernel's real and imaginary
    parts.  Kernel spectra depend on the block length, hence on the
    signal length, so a plan holds none.
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

    @property
    def count(self) -> int:
        return len(self.taps)

    def explain(self, n: int, hop: int) -> list[dict]:
        """One record per row: scale, tap count, route, predicted seconds and block layout.

        Read from ``schedule(n, widths, hop)``, as ``execute`` reads it.
        ``direct_s`` and ``spectral_s`` are both routes' predicted
        seconds, the latter for the row's block row without the block
        spectra its width class shares; ``block_len``, ``blocks`` and
        ``class`` (an index into the schedule's ``classes``) give its
        layout.
        """
        sched = schedule(n, self.widths, hop)
        records = [None] * self.count
        for index, cls in enumerate(sched.classes):
            spectral_s = cls.row_seconds(sched.hop)
            for row in cls.rows:
                records[row] = {
                    "scale": float(self.scales[row]),
                    "taps": self.widths[row],
                    "route": "spectral" if sched.routes[row] else "direct",
                    "direct_s": sched.direct_s[row],
                    "spectral_s": spectral_s,
                    "block_len": cls.block_len,
                    "blocks": cls.blocks,
                    "class": index,
                }
        return records

    def execute(self, x: np.ndarray, hop: int, threads: int = 1) -> np.ndarray:
        """Columns 0, hop, 2*hop, ... of every row of the transform of ``x``.

        Each row takes the route ``schedule(x.size, widths, hop)`` names.
        Spectral rows run one width class at a time, so only that class's
        block spectra are held.
        """
        n = x.size
        sched = schedule(n, self.widths, hop)
        widths, hop, frames, routes = sched.widths, sched.hop, sched.frames, sched.routes
        taps = [(re[(re.size - w) // 2:][:w], im[(im.size - w) // 2:][:w])
                for (re, im), w in zip(self.taps, widths)]
        direct = [row for row in range(self.count) if not routes[row]]
        if direct:
            pad = max(widths) // 2
            # tail sized so the direct kernel's block reshape stays in bounds
            xpad = np.zeros(pad + n + pad + 2 * hop)
            xpad[pad:pad + n] = x
        out = np.empty((self.count, frames), dtype=np.complex128)

        def direct_row(row: int) -> None:
            taps_re, taps_im = taps[row]
            base = xpad[pad - taps_re.size // 2:]
            re, im = _kernels.strided_correlate(base, taps_re, taps_im, hop, frames)
            out[row] = re + 1j * im

        with _row_runner(threads) as run:
            run(direct_row, direct)
            for cls in sched.classes:
                rows = [row for row in cls.rows if routes[row]]
                if not rows:
                    continue
                spectra = _block_spectra(x, cls)

                def block_row(row: int, spectra=spectra, cls=cls) -> None:
                    _block_row(out[row], spectra, cls, *taps[row], hop)

                run(block_row, rows)
                del spectra, block_row
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
    one = hop * sfft.next_fast_len(-(-(n + pad) // hop))
    return [BlockClass(pad, one, one, 1)] + [
        BlockClass(pad, block_len, step, -(-n // step))
        for block_len, step in _factor_blocks(pad, hop) if block_len < one]


@functools.lru_cache(maxsize=1024)
def _factor_blocks(pad: int, hop: int) -> tuple:
    """(block_len, step) of each of ``BLOCK_FACTORS`` whose step holds a hop."""
    shapes = []
    for factor in BLOCK_FACTORS:
        block_len = hop * sfft.next_fast_len(-(-factor * (2 * pad + 1) // hop))
        step = (block_len - 2 * pad) // hop * hop
        if step >= hop:
            shapes.append((block_len, step))
    return tuple(shapes)


def block_layout(n: int, widths: tuple, hop: int) -> tuple[BlockClass, ...]:
    """The width classes of the block rows of ``n`` samples at ``hop``.

    A pure function of (n, every row's tap count, hop), never of which
    rows are routed spectral; ``schedule`` caches it.  Taken in order of
    tap count, the rows are split into runs, each a class padded for its
    widest row in the ``class_options`` layout the seconds model prices
    cheapest; the split is the cheapest of all (a shortest-path pass
    over the run ends), so it is never priced above one class of a
    single block.
    """
    order = sorted(range(len(widths)), key=widths.__getitem__)
    options = [class_options(n, widths[row] // 2, hop) for row in order]
    # prices[j, o]: (spectra, row) seconds of option o of a class ending at row j in order
    prices = np.full((len(order), 1 + len(BLOCK_FACTORS), 2), np.inf)
    for j, row_options in enumerate(options):
        prices[j, :len(row_options)] = [(cls.spectra_seconds(), cls.row_seconds(hop))
                                        for cls in row_options]
    # best[j]: seconds of the cheapest layout of the first j rows in order,
    # whose last class starts at row start[j] in the layout last[j]
    best = np.zeros(len(order) + 1)
    start, last = [0] * len(best), [None] * len(best)
    counts = np.arange(len(order), 0, -1)
    for end in range(1, len(best)):
        # per option and first row of the run: the run's seconds
        runs = prices[end - 1, :, :1] + prices[end - 1, :, 1:] * counts[-end:]
        seconds = best[:end] + runs.min(axis=0)
        first = int(seconds.argmin())
        best[end], start[end] = seconds[first], first
        last[end] = options[end - 1][int(runs[:, first].argmin())]
    classes = []
    end = len(order)
    while end:
        classes.append(last[end]._replace(rows=tuple(order[start[end]:end])))
        end = start[end]
    return tuple(reversed(classes))


class Schedule(NamedTuple):
    """How one transform call computes its rows, and what the model predicts it costs.

    ``widths`` and ``hop`` are what reaches the signal (``_reach``),
    ``frames`` the retained columns and ``classes`` the rows'
    ``block_layout``.  ``direct_s`` is each row's direct-route seconds,
    ``routes`` is True where a row goes spectral, and ``seconds`` prices
    the call: each row by its route, plus the block spectra of each
    class with a spectral row, once.
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
    cached.  The rows of at least some tap count go spectral: the count
    whose routes the model prices cheapest.  When none is cheaper than
    all-direct, every row stays direct.
    """
    return _schedule(n, *_reach(n, widths, hop))


@functools.lru_cache(maxsize=256)
def _schedule(n: int, widths: tuple, hop: int) -> Schedule:
    frames = -(-n // hop)
    classes = block_layout(n, widths, hop)
    direct_s = tuple(_kernels.direct_seconds(w, hop, frames) for w in widths)
    owner = {row: index for index, cls in enumerate(classes) for row in cls.rows}
    row_s = [cls.row_seconds(hop) for cls in classes]
    # the total of each tap-count threshold: all rows direct, then each row's
    # spectral minus direct seconds, widest first, with its class's block
    # spectra where the class first has one; ties keep more rows direct
    order = sorted(range(len(widths)), key=lambda row: (-widths[row], row))
    total = best = sum(direct_s)
    least, paid = math.inf, set()
    for k, row in enumerate(order):
        index = owner[row]
        if index not in paid:
            paid.add(index)
            total += classes[index].spectra_seconds()
        total += row_s[index] - direct_s[row]
        if (k + 1 == len(order) or widths[order[k + 1]] != widths[row]) and total < best:
            best, least = total, widths[row]
    routes = tuple(w >= least for w in widths)
    return Schedule(widths, hop, frames, classes, direct_s, routes, best)


def _block_spectra(x: np.ndarray, cls: BlockClass) -> np.ndarray:
    """The ``(blocks, block_len)`` spectra of the class's segments of ``x``."""
    xpad = np.zeros((cls.blocks - 1) * cls.step + cls.block_len)
    xpad[cls.pad:cls.pad + x.size] = x
    segments = np.lib.stride_tricks.sliding_window_view(xpad, cls.block_len)[::cls.step]
    return sfft.fft(segments, axis=-1)


def _block_row(out, spectra, cls: BlockClass, taps_re, taps_im, hop: int) -> None:
    """Translations 0, hop, 2*hop, ... of one row into ``out``, from its class's block spectra.

    Overlap-save (Stockham, "High-speed convolution and correlation",
    1966): in each segment, output i is translation k*step + i, which
    reaches segment samples pad + i - half .. pad + i + half, so the
    first ``step`` outputs of every block are free of wrap-around.  Lag
    d of the reversed taps sits at index -pad - d, modulo the block.
    Keeping every hop-th output of a block equals summing the hop
    aliased bands of its spectrum and taking one inverse FFT of
    length block_len/hop (Crochiere & Rabiner, Multirate Digital Signal
    Processing, 1983); at hop 1 the fold is the identity.
    """
    blocks, block_len = spectra.shape
    half = taps_re.size // 2
    # one spare slot: lag -pad lands on index block_len, which is index 0
    kernel = np.zeros(block_len + 1, dtype=np.complex128)
    start = block_len - cls.pad - half
    kernel.real[start:start + taps_re.size] = taps_re[::-1]
    kernel.imag[start:start + taps_im.size] = taps_im[::-1]
    kernel[0] = kernel[block_len]
    product = sfft.fft(kernel[:block_len], overwrite_x=True) * spectra
    if hop > 1:
        product = product.reshape(blocks, hop, block_len // hop).sum(axis=1)
    outputs = sfft.ifft(product, axis=-1, overwrite_x=True)
    keep = cls.step // hop
    whole, rest = divmod(out.size, keep)
    np.divide(outputs[:whole, :keep], hop, out=out[:whole * keep].reshape(whole, keep))
    if rest:
        np.divide(outputs[whole, :rest], hop, out=out[whole * keep:])


@contextmanager
def _row_runner(threads: int):
    """A ``run(one_row, rows)`` that calls ``one_row`` on each row, on ``threads`` threads."""
    if threads <= 1:
        def run(one_row, rows):
            for row in rows:
                one_row(row)

        yield run
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield lambda one_row, rows: list(pool.map(one_row, rows))
