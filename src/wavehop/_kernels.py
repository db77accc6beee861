"""The strided transform's direct kernel, and the seconds model of every route.

``cwth_strided`` computes its direct scale rows by this module's kernel,
``stacked_correlate``, a few stacks of rows at a time, and the rest by
the width classes of ``wavelet.py``'s spectral route.  ``direct_seconds``,
``spectral_seconds`` (a class's row taken alone) and ``band_seconds``
(a class's rows taken as one band) predict wall time from the shape
alone, and ``fft_seconds`` the segment spectra a width class shares, so
the route is a pure function of (length, taps, hop) and never changes a
result beyond roundoff.  The direct kernel is a polyphase
matmul whose inner dimension is at least ``MIN_SPAN``, computed in the
runs ``product_runs`` sets and priced row by row.  A stack's rows share
one product and one centre, its widest row's, so ``row_layout`` alone
places a row in it: ``stack_sizes`` cuts a call's direct rows into
stacks under the one budget, ``CHUNK_PRODUCTS``, that bounds every run,
``stack_shape`` reads each row's place, ``stack_taps`` lays
out a stack's taps once, and ``wavelet.held_layouts`` holds that layout
across calls.  ``strided_correlate`` is the stack of one row, the form
``signal_io.decimate`` (the anti-alias FIR, real taps alone) and the
calibration script call.  ``reach`` cuts the tap counts and the hop to
what meets a signal; callers check the signal with ``check_overflow``
and pad it with ``zero_padded``.

Each price sums constants times terms: ``direct_terms``, ``fft_terms``,
``row_terms`` and ``band_terms`` count what each constant of
``DIRECT_CONSTANTS``, ``FFT_CONSTANTS``, ``ROW_CONSTANTS`` and
``BAND_CONSTANTS`` multiplies, so a new term goes here alone.
``PYTHONPATH=src python scripts/calibrate_router.py`` fits the
constants on those functions and prints the block to paste below.
The block was fitted on a 2-vCPU x86 host (numpy 2.4, scipy 1.17, one
BLAS thread) with a since-dropped paging term, ``CALL_S`` and ``BLOCK_S``
per call, the kernel without phases at hops above 2 only, FFTs timed on
``scipy.fft`` (pocketfft, as ``numpy.fft``) and each row's kernel FFT
alone, where a class's kernels now take one batched FFT.  The band
constants alone come from a later, busier run of an earlier form of the
script, which read the FFT constants 1.7-3.3x higher than those above,
so they price a band about twice as dear, relative to the other routes,
as it runs.  The script now fits every family in one run, in that run's
seconds, so a refit pastes its whole block; README's "Calibration" says
why the band constants stay until then.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import CoefficientOverflow

# Products of more elements (8 MB) are computed a run of frames at a time (``product_runs``),
# and a stack of several rows takes no more (``stack_sizes``).
CHUNK_PRODUCTS = 1 << 20
# Least inner dimension of the direct kernel's matmul; a hop below it takes frames in
# ceil(MIN_SPAN / hop) phases (``polyphase``), since BLAS runs far below peak on a smaller one.
MIN_SPAN = 32

# The largest sample times the taps' L1 norm bounds every sum of ``strided_correlate``;
# the spectral route's segment spectra, products, folds and inverse FFTs grow that bound
# by at most block_len**2, far below 2**128, so below this nothing can overflow.
SAFE_PEAK = np.finfo(np.float64).max / 2.0**128

# The seconds model's constants, as the calibration script prints them.
CALL_S = 1.6e-06
BLOCK_S = 9.5e-07
SAMPLE_S = 2.8e-10
PRODUCT_S = 6.4e-10
MAC_S = 1.9e-11
FFT_CALL_S = 3.8e-06
FFT_S = 5.2e-10
FFT_BATCH_S = 4.3e-10
FFT_PRIME_S = 1e-10
ROW_CALL_S = 7.5e-06
SPECTRAL_POINT_S = 2.4e-09
BAND_BIN_S = 3.2e-08
BAND_POINT_S = 2.9e-09
BAND_KERNEL_S = 2.2e-09
BAND_FOLD_S = 1.3e-08
BAND_MAC_S = 2.8e-10
BAND_ROW_S = 2.7e-06


def check_overflow(x: np.ndarray, gain: float, guarded: str) -> None:
    """Raise CoefficientOverflow unless ``x``'s peak times ``gain``, the taps' L1 norm, is safe."""
    peak = float(max(x.max(), -x.min()))
    if not peak * gain < SAFE_PEAK:
        raise CoefficientOverflow(f"samples up to {peak:.3g} against taps of gain {gain:.3g}"
                                  f" may overflow {guarded}")


def zero_padded(x: np.ndarray, pad: int, hop: int) -> np.ndarray:
    """``x`` between ``pad`` zeros and ``pad + hop + 2*MIN_SPAN``: frame k of ``2*pad + 1`` taps
    covers ``[k*hop : k*hop + 2*pad + 1]``, and ``strided_correlate`` reads fewer than
    ``hop + 2*MIN_SPAN`` samples past the last frame."""
    xpad = np.zeros(pad + x.size + pad + hop + 2 * MIN_SPAN)
    xpad[pad:pad + x.size] = x
    return xpad


def reach(n: int, widths, hop: int) -> tuple[tuple, int]:
    """The tap counts and hop that matter on a signal of ``n`` samples.

    A lag of ``n`` or more meets no sample, so a row needs at most
    2n - 1 taps; and any hop of ``n`` or more keeps column 0 alone, as a
    hop of ``n`` does.  Work sized by these is bounded by the signal,
    whatever the scale or the hop.
    """
    return tuple(min(w, 2 * n - 1) for w in widths), min(hop, n)


def strided_correlate(xpad, taps_re, taps_im, hop, frames):
    """Correlate ``xpad`` with the taps at translations 0, hop, 2*hop, ...

    ``xpad`` must already be offset so that frame k covers
    ``xpad[k*hop : k*hop + len(taps)]``, and hold the zeros the layout
    reads past the last frame's taps (``zero_padded``); a shorter
    ``xpad`` raises ValueError.  Returns (real, imag) parts;
    ``taps_im`` None computes the real part alone and returns None as
    the imaginary part.  The stack of this one row, by
    ``stacked_correlate``.
    """
    (re, im), = stacked_correlate(xpad, stack_taps([(taps_re, taps_im)], hop), frames)
    return re, im


class Stack(NamedTuple):
    """Rows whose frames ``stacked_correlate`` takes from one product: ``stack_taps``'s layout.

    ``taps`` is the ``(parts * phases * sum(blocks), span)`` stacked tap
    matrix, row r's band first by part, then phase, then block;
    ``leads``, ``blocks`` and ``reach`` are ``stack_shape``'s.
    """

    taps: np.ndarray
    parts: int
    hop: int
    leads: tuple
    blocks: tuple
    reach: int

    @property
    def nbytes(self) -> int:
        return self.taps.nbytes


def row_layout(width, widest, hop: int):
    """(lead, blocks) of a row of ``width`` taps in a stack centred on its ``widest`` row.

    The row's first tap is ``widest // 2 - width // 2`` samples past the
    widest row's, ``lead * span + rem``: its phase-s taps sit at
    ``rem + s*hop`` in a band of ``blocks`` blocks of ``span``, summed
    from signal row ``lead``.  The widest row is at lead 0, and no row
    reads past its last block, so its ``blocks`` are the stack's reach.
    Ints or numpy arrays, elementwise.
    """
    phases, span, _ = polyphase(hop, 1)
    lead, rem = divmod(widest // 2 - width // 2, span)
    return lead, -(-(rem + (phases - 1) * hop + width) // span)


def stack_shape(widths, hop: int) -> tuple[tuple, tuple, int]:
    """(leads, blocks, reach) of a stack of rows of these tap counts: each one's ``row_layout``,
    and the most signal rows a group's frames read."""
    widest = max(widths)
    leads, blocks = zip(*(row_layout(width, widest, hop) for width in widths))
    return leads, blocks, row_layout(widest, widest, hop)[1]


def stack_sizes(widths, hop: int, frames: int) -> tuple:
    """How many rows each stack takes, in order, of rows of these ascending tap counts.

    A row joins the current stack while the stack's whole product,
    ``2*phases*sum(blocks) * (groups + reach - 1)`` elements, stays
    within ``CHUNK_PRODUCTS``, the budget ``product_runs`` holds each
    run to; otherwise it starts the next.  So a stack of several rows is
    one run, and only a row alone past the budget is cut into runs.  A
    stack ends at its widest row j, whose blocks are its reach, and row
    r's blocks in it (``row_layout``) do not depend on where the stack
    starts, so one pass of cumulative sums over ``blocks[j, r]`` sizes
    every candidate stack.
    """
    if len(widths) < 2:
        return (1,) * len(widths)
    phases, _, groups = polyphase(hop, frames)
    widths = np.asarray(widths)
    # [j, r]: row r in a stack centred on row j, read for r <= j alone
    _, blocks = row_layout(widths, widths[:, None], hop)
    counts = np.cumsum(blocks, axis=1).tolist()
    reach = np.diagonal(blocks).tolist()
    sizes, start = [], 0
    for row in range(1, len(widths)):
        blocks = counts[row][row] - (counts[row][start - 1] if start else 0)
        if 2 * phases * blocks * (groups + reach[row] - 1) > CHUNK_PRODUCTS:
            sizes.append(row - start)
            start = row
    return tuple(sizes) + (len(widths) - start,)


def stack_taps(taps, hop: int) -> Stack:
    """The :class:`Stack` of rows of (real, imaginary or None) ``taps``, centred on the widest.

    Every row's imaginary taps are None, or none is.  The layout does
    not depend on the signal, so a stack held across calls is laid out once.
    """
    widths = [re.shape[0] for re, _ in taps]
    leads, blocks, reach = stack_shape(widths, hop)
    parts = 1 if taps[0][1] is None else 2
    phases, span, _ = polyphase(hop, 1)
    matrix = np.zeros((parts * phases * sum(blocks), span))
    widest, base = max(widths), 0
    for (re, im), width, lead, count in zip(taps, widths, leads, blocks):
        rem = widest // 2 - width // 2 - lead * span  # as ``row_layout`` places the row
        band = matrix[base:base + parts * phases * count].reshape(parts, phases, count * span)
        for s in range(phases):
            band[:, s, rem + s * hop:rem + s * hop + width] = (re,) if im is None else (re, im)
        base += parts * phases * count
    matrix.setflags(write=False)
    return Stack(matrix, parts, hop, leads, blocks, reach)


def stacked_correlate(xpad, stack: Stack, frames: int) -> list:
    """Each stacked row's (real, imag) frames, as ``strided_correlate`` gives them, in one product.

    ``xpad`` starts at the widest row's first tap and holds the zeros
    that row reads past the last frame.  A polyphase split (Crochiere
    & Rabiner, Multirate Digital Signal Processing, 1983) of the frames
    into ``phases`` (``polyphase``): frame ``g*phases + s`` is
    translation ``g*span`` of the taps shifted by ``s*hop``.  With the
    signal as rows of ``span`` samples and each phase's taps as blocks of
    ``span``, every frame of every row is one contiguous matmul,
    ``(2*phases*sum(blocks), span) x (span, groups+reach-1)``, plus a
    sum over row r's block q of product rows shifted by ``lead_r + q``.
    The product is laid out one block per row, so that sum is one
    strided reduction per row, down the diagonal its blocks make in the
    product, and it is computed in the runs of groups
    ``product_runs`` sets, so memory grows with the tap count rather
    than with the signal.
    """
    _, parts, hop, leads, blocks, reach = stack
    phases, span, groups = polyphase(hop, frames)
    rows = groups + reach - 1
    x2d = xpad[:rows * span].reshape(rows, span)
    chunk, _ = product_runs(2 * phases * sum(blocks), reach, groups)
    runs = [[] for _ in blocks]
    for start in range(0, groups, chunk):
        count = min(chunk, groups - start)
        # products[base_r + (c*phases + s)*blocks_r + q, i] = taps[same row] . x2d[start + i]
        products = stack.taps @ x2d[start:start + count + reach - 1].T
        down, right = products.strides
        base = 0
        for row_runs, lead, row_blocks in zip(runs, leads, blocks):
            # [c*phases + s, q, i]: product row base + (c*phases + s)*blocks + q at column
            # lead + q + i, so the row's blocks lie on one diagonal
            diagonals = np.ndarray((parts * phases, row_blocks, count), products.dtype, products,
                                   base * down + lead * right,
                                   (down * row_blocks, down + right, right))
            row_runs.append(np.add.reduce(diagonals, axis=1))
            base += parts * phases * row_blocks
        del products, diagonals  # free this run's product before the next one is allocated
    frames_of = []
    for row_runs in runs:
        out = row_runs[0] if len(row_runs) == 1 else np.concatenate(row_runs, axis=1)
        # out[c*phases + s, g] is frame g*phases + s
        out = out.reshape(parts, phases, groups).transpose(0, 2, 1).reshape(parts, -1)
        frames_of.append((out[0, :frames], None if parts == 1 else out[1, :frames]))
    return frames_of


def polyphase(hop: int, frames: int) -> tuple[int, int, int]:
    """(phases, span, groups) of ``stacked_correlate``; ``span = phases*hop >= MIN_SPAN``."""
    phases = -(-MIN_SPAN // hop)
    return phases, phases * hop, -(-frames // phases)


def product_runs(products: int, reach: int, groups: int) -> tuple[int, int]:
    """(groups per run, signal rows multiplied) of ``products`` product rows whose groups read
    ``reach`` signal rows.

    The whole product, ``products * (groups + reach - 1)`` elements, is
    one run unless it exceeds ``CHUNK_PRODUCTS``.  Then each run holds as
    many groups as keep its product within that budget, and at least
    ``reach``; every run multiplies ``reach - 1`` signal rows beyond its
    groups.
    """
    chunk = groups
    if products * (groups + reach - 1) > CHUNK_PRODUCTS:
        chunk = max(reach, CHUNK_PRODUCTS // products - reach + 1)
    return chunk, groups + -(-groups // chunk) * (reach - 1)


DIRECT_CONSTANTS = ("CALL_S", "BLOCK_S", "SAMPLE_S", "PRODUCT_S", "MAC_S")


def direct_terms(width: int, hop: int, frames: int) -> tuple:
    """What each of ``DIRECT_CONSTANTS`` multiplies in one ``strided_correlate`` call.

    Each run's matmul and ``blocks`` slice-adds, plus a slice-add placing
    each phase's taps past the first; the signal samples and product
    elements each run multiplies, with several phases' copy into frame
    order as product elements; and each element's ``span`` multiply-adds.
    """
    phases, span, groups = polyphase(hop, frames)
    _, blocks = row_layout(width, width, hop)
    chunk, rows = product_runs(2 * phases * blocks, blocks, groups)
    runs = -(-groups // chunk)
    products = 2 * phases * blocks * rows
    return (runs, runs * blocks + phases - 1, rows * span,
            products + 2 * phases * groups * (phases > 1), products * span)


def direct_seconds(width: int, hop: int, frames: int) -> float:
    """Predicted seconds of one ``strided_correlate`` call: its ``direct_terms`` priced."""
    runs, blocks, samples, products, macs = direct_terms(width, hop, frames)
    return (CALL_S * runs + BLOCK_S * blocks + SAMPLE_S * samples + PRODUCT_S * products
            + MAC_S * macs)


FFT_CONSTANTS = ("FFT_CALL_S", "FFT_S", "FFT_BATCH_S", "FFT_PRIME_S")


def fft_terms(length: int, count: int = 1) -> tuple:
    """What each of ``FFT_CONSTANTS`` multiplies in a call of ``count`` complex FFTs of ``length``.

    The call; then per FFT its points times log2(length), alone or in a
    batch of several; and its points times the prime factors of the
    length above 11, each adding a generic radix pass.
    """
    points = count * length
    log_points = points * math.log2(max(length, 2))
    return 1, log_points * (count == 1), log_points * (count > 1), points * _large_prime_sum(length)


def fft_seconds(length: int, count: int = 1) -> float:
    """Predicted seconds of a call of ``count`` complex FFTs of ``length``: ``fft_terms`` priced."""
    return FFT_CALL_S + count * _each_fft_seconds(length, count > 1)


@functools.lru_cache(maxsize=1024)
def _each_fft_seconds(length: int, batched: bool) -> float:
    """Seconds of each FFT of a call, the call excluded: a lone one, or one of a ``batched`` two."""
    count = 1 + batched
    _, alone, in_batch, prime_points = fft_terms(length, count)
    return (FFT_S * alone + FFT_BATCH_S * in_batch + FFT_PRIME_S * prime_points) / count


ROW_CONSTANTS = ("ROW_CALL_S", "SPECTRAL_POINT_S")


def row_terms(block_len: int, blocks: int = 1) -> tuple:
    """What each of ``ROW_CONSTANTS`` multiplies in a block row beyond its FFTs: the row, and
    each point of its ``blocks`` block spectra (product and fold)."""
    return 1, blocks * block_len


def spectral_seconds(block_len: int, hop: int, blocks: int = 1) -> float:
    """Predicted seconds of one block row, the block spectra its class shares excluded.

    Its ``row_terms`` priced, the kernel's FFT at ``block_len`` and the
    batched inverse FFTs of length ``block_len / hop``.
    """
    rows, points = row_terms(block_len, blocks)
    return (ROW_CALL_S * rows + SPECTRAL_POINT_S * points + fft_seconds(block_len)
            + fft_seconds(block_len // hop, blocks))


BAND_CONSTANTS = ("BAND_BIN_S", "BAND_POINT_S", "BAND_KERNEL_S", "BAND_FOLD_S", "BAND_MAC_S",
                  "BAND_ROW_S")


def band_terms(block_len: int, hop: int, blocks: int, rows: int) -> tuple:
    """What each of ``BAND_CONSTANTS`` multiplies in a class of ``rows`` taken as one band.

    Each bin's small matmul, ``(blocks, hop) x (hop, rows)``; each point
    of the segment spectra; each kernel point the matmuls read; each
    point of the folded spectra, inverse transformed and copied into the
    output; each complex multiply-add; and each row.  These are the
    terms of a band whose kernels are held: ``band_seconds`` prices the
    build of kernels that are not held on the same kernel points and the
    FFT constants, so the calibration times bands on kernels laid out
    beforehand.  The constants were
    fitted when the band copied its spectra into the matmuls' layout,
    which it now reads in place, and a class's segment spectra are still
    priced as ``blocks`` FFTs of ``block_len`` (``wavelet._class_prices``),
    not the band's ``blocks * hop`` real FFTs of ``block_len / hop``,
    until the next refit.
    """
    bins = block_len // hop
    return (bins, blocks * block_len, rows * block_len, rows * blocks * bins,
            rows * blocks * block_len, rows)


def band_seconds(block_len: int, hop: int, blocks: int, rows: int, held: bool = True) -> float:
    """Predicted seconds of a band class of ``rows``, the segment spectra it shares excluded.

    Its ``band_terms`` priced, and the ``rows * blocks`` inverse FFTs of
    length ``block_len / hop`` taken as one batch.  Kernels ``held``
    across calls cost nothing per call.  Others are built in the call
    (``wavelet._band_kernels``): zeroed and laid out, two more passes
    over the kernel points at ``BAND_KERNEL_S``, then transformed, one
    more call of ``rows * hop`` inverse FFTs of length ``block_len /
    hop``.  Affine in ``rows``, so a schedule prices a class as a fixed
    cost and a cost per row.
    """
    bins, points, kernel, folded, macs, rows = band_terms(block_len, hop, blocks, rows)
    built = not held
    return (BAND_BIN_S * bins + BAND_POINT_S * points + BAND_KERNEL_S * kernel * (1 + 2 * built)
            + BAND_FOLD_S * folded + BAND_MAC_S * macs + BAND_ROW_S * rows
            + FFT_CALL_S * (1 + built)
            + rows * (blocks + hop * built) * _each_fft_seconds(block_len // hop, True))


def _large_prime_sum(m: int) -> int:
    total = 0
    for p in (2, 3, 5, 7, 11):
        while m % p == 0:
            m //= p
    p = 13
    while p * p <= m:
        while m % p == 0:
            total += p
            m //= p
        p += 2
    return total + (m if m > 1 else 0)
