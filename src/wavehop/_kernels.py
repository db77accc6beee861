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
both routes give the same columns to within roundoff.  A direct product
too large for ``CHUNK_PRODUCTS`` is computed, and priced, in the runs
``product_runs`` sets: each run is priced as a call of its own, its
overlap rows, its matmul and its slice-adds included.

The constants below were fitted by
``PYTHONPATH=src python scripts/calibrate_router.py`` on a 2-vCPU x86
host (numpy 2.4, scipy 1.17, one BLAS thread), in a fit that still
carried a surcharge per element of products above 32 MB and counted
``CALL_S`` and ``BLOCK_S`` once per call rather than once per run;
rerun it and paste its output here to price the routes for another
machine.
"""

import functools
import math

import numpy as np

__all__ = ["direct_seconds", "fft_seconds", "spectral_seconds", "strided_correlate"]

# Products of more elements (32 MB) are computed a run of frames at a time: ``product_runs``.
CHUNK_PRODUCTS = 1 << 22

# Direct kernel, windowed form (hop <= 2).
WINDOW_MAC_S = 4.6e-10      # per multiply-accumulate
# Direct kernel, polyphase form (hop > 2).
CALL_S = 1.6e-06            # fixed cost of one run (one matmul)
BLOCK_S = 9.5e-07           # per tap block per run: one slice-add of the shifted sum
SAMPLE_S = 2.8e-10          # per signal sample streamed through the matmul
PRODUCT_S = 6.4e-10         # per element of the (2*blocks, rows) product matrix
MAC_S = 1.9e-11             # per multiply-accumulate inside that product
# Block spectral row.
FFT_CALL_S = 3.8e-06        # fixed cost of one scipy.fft call
FFT_S = 5.2e-10             # per point per log2(length) of a complex FFT taken alone
FFT_BATCH_S = 4.3e-10       # the same, for each FFT of a batch of several
FFT_PRIME_S = 1e-10         # per point per unit of each prime factor > 11 of the length
ROW_CALL_S = 7.5e-06        # fixed cost of one block row beyond its FFT calls
SPECTRAL_POINT_S = 2.4e-09  # per block-spectrum point: product and fold


def strided_correlate(xpad, taps_re, taps_im, hop, frames):
    """Correlate ``xpad`` with the taps at translations 0, hop, 2*hop, ...

    ``xpad`` must already be offset so that frame k covers
    ``xpad[k*hop : k*hop + len(taps)]``.  Returns (real, imag) parts.

    Splitting tap index j into q*hop + p turns the strided correlation
    into one contiguous matmul, (2*blocks, hop) x (hop, frames+blocks-1),
    plus a sum over q of rows shifted by q -- no windowed copies.  The
    product is laid out one block per row, so that sum reads contiguous
    memory whatever the block count.  The product is computed in the
    runs of frames ``product_runs`` sets, so memory grows with the tap
    count rather than with the signal.  For hop <= 2 the
    block split saves nothing (the intermediate grows to ~2/hop times a
    plain window copy), so dense windows win there.
    """
    width = taps_re.shape[0]
    if hop <= 2:
        stride = xpad.strides[0]
        windows = np.lib.stride_tricks.as_strided(
            xpad, shape=(frames, width), strides=(stride * hop, stride), writeable=False
        )
        return windows @ taps_re, windows @ taps_im
    blocks = -(-width // hop)
    rows = frames + blocks - 1
    needed = rows * hop
    if xpad.size < needed:
        xpad = np.concatenate([xpad, np.zeros(needed - xpad.size)])
    x2d = xpad[:needed].reshape(rows, hop)
    taps2d = np.zeros((2, blocks * hop))
    taps2d[0, :width] = taps_re
    taps2d[1, :width] = taps_im
    taps2d = taps2d.reshape(2 * blocks, hop)
    chunk, _ = product_runs(blocks, frames)
    parts = []
    for start in range(0, frames, chunk):
        count = min(chunk, frames - start)
        # products[c*blocks + q, i] = taps2d[c*blocks + q] . x2d[start + i]
        products = taps2d @ x2d[start:start + count + blocks - 1].T
        part = products[::blocks, :count].copy()
        for q in range(1, blocks):
            part += products[q::blocks, q: q + count]
        parts.append(part)
        del products  # free this run's product before the next one is allocated
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return out[0], out[1]


def product_runs(blocks: int, frames: int) -> tuple[int, int]:
    """(frames per run, signal rows multiplied) of the polyphase product of ``blocks`` tap blocks.

    The whole product, ``2 * blocks * (frames + blocks - 1)`` elements,
    is one run unless it exceeds ``CHUNK_PRODUCTS``.  Then each run
    holds as many frames as keep its product within that budget, and
    at least ``blocks``; every run multiplies ``blocks - 1`` signal rows
    beyond its frames.
    """
    chunk = frames
    if 2 * blocks * (frames + blocks - 1) > CHUNK_PRODUCTS:
        chunk = max(blocks, CHUNK_PRODUCTS // (2 * blocks) - blocks + 1)
    return chunk, frames + -(-frames // chunk) * (blocks - 1)


def direct_seconds(width: int, hop: int, frames: int) -> float:
    """Predicted seconds of one ``strided_correlate`` call: the sum of its runs.

    Each run pays a matmul call and ``blocks`` slice-adds; every signal
    row and product element is paid in the run that multiplies it.
    """
    if hop <= 2:
        return WINDOW_MAC_S * 2 * frames * width
    blocks = -(-width // hop)
    chunk, rows = product_runs(blocks, frames)
    products = 2 * blocks * rows
    return (-(-frames // chunk) * (CALL_S + BLOCK_S * blocks) + SAMPLE_S * rows * hop
            + products * (PRODUCT_S + MAC_S * hop))


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
