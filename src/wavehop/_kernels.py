"""The strided transform's direct kernel, and the seconds model of both row routes.

``cwth_strided`` computes each scale row by one of two routes: this
module's direct kernel, ``strided_correlate``, or the block spectral
row in ``wavelet.py`` (overlap-save: the kernel's FFT at the block
length, its product with the class's batched segment spectra, a fold
of each block into ``hop`` aliased bands and one batched inverse FFT of
length ``block_len / hop``).  ``direct_seconds`` and ``spectral_seconds``
predict the wall time of each route from the row's shape alone, and
``fft_seconds`` the segment spectra a width class shares, so the route
is a pure function of (length, taps, hop) and never changes a result:
both routes give the same columns to within roundoff.  The direct
kernel has one form at every hop, a polyphase matmul whose inner
dimension is at least ``MIN_SPAN``; a product too large for
``CHUNK_PRODUCTS`` is computed, and priced, in the runs
``product_runs`` sets: each run is priced as a call of its own, its
overlap rows, its matmul and its slice-adds included.

``signal_io.decimate`` is the kernel's other caller: with ``anti_alias``
it evaluates the low-pass FIR at the kept samples alone, passing the
reversed taps as the real part and None as the imaginary part, so only
the real row is computed.

The constants below were fitted by
``PYTHONPATH=src python scripts/calibrate_router.py`` on a 2-vCPU x86
host (numpy 2.4, scipy 1.17, one BLAS thread), in a fit that still
carried a surcharge per element of products above 32 MB and counted
``CALL_S`` and ``BLOCK_S`` once per call rather than once per run,
and on the kernel's earlier form, without phases, at hops above 2 only;
they now price every hop.  The FFT constants were fitted on
``scipy.fft``, which the package no longer uses: they price
``numpy.fft`` (the same pocketfft code) unrefitted, and still price
each row's kernel FFT as a lone FFT, though a class's kernels are now
transformed in one batch.  Rerun the script, which times ``numpy.fft``,
and paste its output here to price the routes for another machine.
"""

import functools
import math

import numpy as np

__all__ = ["direct_seconds", "fft_seconds", "spectral_seconds", "strided_correlate"]

# Products of more elements (32 MB) are computed a run of frames at a time: ``product_runs``.
CHUNK_PRODUCTS = 1 << 22
# Least inner dimension of the direct kernel's matmul; a hop below it takes frames in
# ceil(MIN_SPAN / hop) phases (``polyphase``), since BLAS runs far below peak on a smaller one.
MIN_SPAN = 32

# Direct kernel.
CALL_S = 1.6e-06            # fixed cost of one run (one matmul)
BLOCK_S = 9.5e-07           # per tap block per run: one slice-add of the shifted sum
SAMPLE_S = 2.8e-10          # per signal sample streamed through the matmul
PRODUCT_S = 6.4e-10         # per element of the (2*phases*blocks, rows) product matrix
MAC_S = 1.9e-11             # per multiply-accumulate inside that product
# Block spectral row.
FFT_CALL_S = 3.8e-06        # fixed cost of one FFT call (fitted on scipy.fft, not refitted)
FFT_S = 5.2e-10             # per point per log2(length) of a complex FFT taken alone
FFT_BATCH_S = 4.3e-10       # the same, for each FFT of a batch of several
FFT_PRIME_S = 1e-10         # per point per unit of each prime factor > 11 of the length
ROW_CALL_S = 7.5e-06        # fixed cost of one block row beyond its FFT calls
SPECTRAL_POINT_S = 2.4e-09  # per block-spectrum point: product and fold


def strided_correlate(xpad, taps_re, taps_im, hop, frames):
    """Correlate ``xpad`` with the taps at translations 0, hop, 2*hop, ...

    ``xpad`` must already be offset so that frame k covers
    ``xpad[k*hop : k*hop + len(taps)]``; the layout reads fewer than
    ``hop + 2*MIN_SPAN`` samples past the last frame's taps, and a
    shorter ``xpad`` is copied with zeros.  Returns (real, imag) parts;
    ``taps_im`` None computes the real part alone and returns None as
    the imaginary part.

    A polyphase split (Crochiere & Rabiner, Multirate Digital Signal
    Processing, 1983) of the frames into ``phases`` (``polyphase``):
    frame ``g*phases + s`` is translation ``g*span`` of the taps shifted
    by ``s*hop``.  With the signal as rows of ``span`` samples and each
    phase's taps as blocks of ``span``, every frame is one contiguous
    matmul, ``(2*phases*blocks, span) x (span, groups+blocks-1)``, plus
    a sum over block q of product rows shifted by q.  The product is
    laid out one block per row, so that sum reads contiguous memory, and
    it is computed in the runs of groups ``product_runs`` sets, so memory
    grows with the tap count rather than with the signal.
    """
    width = taps_re.shape[0]
    phases, span, blocks, groups = polyphase(width, hop, frames)
    rows = groups + blocks - 1
    needed = rows * span
    if xpad.size < needed:
        xpad = np.concatenate([xpad, np.zeros(needed - xpad.size)])
    x2d = xpad[:needed].reshape(rows, span)
    parts = np.array((taps_re,) if taps_im is None else (taps_re, taps_im))
    taps2d = np.zeros((len(parts), phases, blocks * span))
    for s in range(phases):
        taps2d[:, s, s * hop:s * hop + width] = parts
    taps2d = taps2d.reshape(len(parts) * phases * blocks, span)
    chunk, _ = product_runs(phases, blocks, groups)
    runs = []
    for start in range(0, groups, chunk):
        count = min(chunk, groups - start)
        # products[(c*phases + s)*blocks + q, i] = taps2d[same row] . x2d[start + i]
        products = taps2d @ x2d[start:start + count + blocks - 1].T
        part = products[::blocks, :count].copy()
        for q in range(1, blocks):
            part += products[q::blocks, q: q + count]
        runs.append(part)
        del products  # free this run's product before the next one is allocated
    out = runs[0] if len(runs) == 1 else np.concatenate(runs, axis=1)
    # out[c*phases + s, g] is frame g*phases + s
    out = out.reshape(len(parts), phases, groups).transpose(0, 2, 1).reshape(len(parts), -1)
    return out[0, :frames], None if taps_im is None else out[1, :frames]


def polyphase(width: int, hop: int, frames: int) -> tuple[int, int, int, int]:
    """(phases, span, blocks, groups) of ``strided_correlate``; ``span = phases*hop >= MIN_SPAN``."""
    phases = -(-MIN_SPAN // hop)
    span = phases * hop
    return phases, span, -(-((phases - 1) * hop + width) // span), -(-frames // phases)


def product_runs(phases: int, blocks: int, groups: int) -> tuple[int, int]:
    """(groups per run, signal rows multiplied) of the phased product of ``blocks`` tap blocks.

    The whole product, ``2 * phases * blocks * (groups + blocks - 1)``
    elements, is one run unless it exceeds ``CHUNK_PRODUCTS``.  Then
    each run holds as many groups as keep its product within that
    budget, and at least ``blocks``; every run multiplies
    ``blocks - 1`` signal rows beyond its groups.
    """
    chunk = groups
    if 2 * phases * blocks * (groups + blocks - 1) > CHUNK_PRODUCTS:
        chunk = max(blocks, CHUNK_PRODUCTS // (2 * phases * blocks) - blocks + 1)
    return chunk, groups + -(-groups // chunk) * (blocks - 1)


def direct_seconds(width: int, hop: int, frames: int) -> float:
    """Predicted seconds of one ``strided_correlate`` call: the sum of its runs.

    Each run pays a matmul call and ``blocks`` slice-adds; every signal
    row and product element is paid in the run that multiplies it.  Each
    phase beyond the first places one more shifted copy of the taps, priced
    as a slice-add, and several phases copy the sums into frame order, an
    element priced as a product element (at one phase that is a view).
    """
    phases, span, blocks, groups = polyphase(width, hop, frames)
    chunk, rows = product_runs(phases, blocks, groups)
    products = 2 * phases * blocks * rows
    return (-(-groups // chunk) * (CALL_S + BLOCK_S * blocks) + BLOCK_S * (phases - 1)
            + SAMPLE_S * rows * span + products * (PRODUCT_S + MAC_S * span)
            + PRODUCT_S * 2 * phases * groups * (phases > 1))


def fft_seconds(length: int, count: int = 1) -> float:
    """Predicted seconds of ``count`` complex FFTs of ``length`` points, taken in one call.

    Lengths built from 2, 3, 5, 7 and 11 run at about ``FFT_S`` per
    point per log2(length) alone, and at ``FFT_BATCH_S`` each in a batch
    of several; each larger prime factor p adds a generic radix pass of
    cost proportional to p.
    """
    return FFT_CALL_S + count * _each_fft_seconds(length, count > 1)


@functools.lru_cache(maxsize=1024)
def _each_fft_seconds(length: int, batched: bool) -> float:
    """Seconds of one FFT of a call, the call's fixed cost excluded."""
    rate = FFT_BATCH_S if batched else FFT_S
    return length * (rate * math.log2(max(length, 2)) + FFT_PRIME_S * _large_prime_sum(length))


def spectral_seconds(block_len: int, hop: int, blocks: int = 1) -> float:
    """Predicted seconds of one block row, the block spectra its class shares excluded.

    The kernel's FFT at ``block_len``, its product with the ``blocks``
    segment spectra and their fold, and the batched inverse FFTs of
    length ``block_len / hop``.
    """
    return (ROW_CALL_S + fft_seconds(block_len) + SPECTRAL_POINT_S * blocks * block_len
            + fft_seconds(block_len // hop, blocks))


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
