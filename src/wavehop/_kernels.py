"""The strided transform's direct kernel, and the seconds model of both row routes.

``cwth_strided`` computes each scale row by one of two routes: this
module's direct kernel, ``strided_correlate``, or the spectral fold row
in ``wavelet.py`` (one FFT of the kernel, a product with the signal
spectrum, a fold of the product into ``hop`` aliased bands and one
inverse FFT of length ``fft_len / hop``).  ``direct_seconds`` and
``spectral_seconds`` predict the wall time of each route from the row's
shape alone, so the route is a pure function of (length, taps, hop) and
never changes a result: both routes give the same columns to within
roundoff.

The constants below were fitted by
``PYTHONPATH=src python scripts/calibrate_router.py`` on a 2-vCPU x86
host (numpy 2.4, scipy 1.17, one BLAS thread); rerun it and paste its
output here to price the routes for another machine.
"""

import math

import numpy as np

__all__ = ["direct_seconds", "fft_seconds", "spectral_seconds", "strided_correlate"]

# Products of more elements (32 MB) are computed a run of frames at a time.
CHUNK_PRODUCTS = 1 << 22

# Direct kernel, windowed form (hop <= 2).
WINDOW_MAC_S = 8.9e-10      # per multiply-accumulate
# Direct kernel, polyphase form (hop > 2).
CALL_S = 2.9e-06            # fixed cost of one call
BLOCK_S = 2.7e-06           # per tap block: one slice-add of the shifted sum
SAMPLE_S = 6.1e-10          # per signal sample streamed through the matmul
PRODUCT_S = 1e-09           # per element of the (2*blocks, rows) product matrix
MAC_S = 4.1e-11             # per multiply-accumulate inside that product
PAGED_S = 2.3e-09           # per element again when the product outgrows PAGED_PRODUCTS
PAGED_PRODUCTS = 1 << 22    # 32 MB: larger arrays are fresh pages from the OS on every call
# Spectral fold row.
FFT_S = 1.2e-09             # per point per log2(length) of a complex FFT
FFT_PRIME_S = 3.5e-10       # per point per unit of each prime factor > 11 of the length
SPECTRAL_POINT_S = 5.6e-09  # per spectrum point: kernel placement, product and fold


def strided_correlate(xpad, taps_re, taps_im, hop, frames):
    """Correlate ``xpad`` with the taps at translations 0, hop, 2*hop, ...

    ``xpad`` must already be offset so that frame k covers
    ``xpad[k*hop : k*hop + len(taps)]``.  Returns (real, imag) parts.

    Splitting tap index j into q*hop + p turns the strided correlation
    into one contiguous matmul, (2*blocks, hop) x (hop, frames+blocks-1),
    plus a sum over q of rows shifted by q -- no windowed copies.  The
    product is laid out one block per row, so that sum reads contiguous
    memory whatever the block count.  When the whole product would
    exceed ``CHUNK_PRODUCTS`` elements it is computed a run of frames at
    a time, each run at least ``blocks`` frames long, so memory grows
    with the tap count rather than with the signal.  For hop <= 2 the
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
    chunk = frames
    if 2 * blocks * rows > CHUNK_PRODUCTS:
        chunk = max(blocks, CHUNK_PRODUCTS // (2 * blocks) - blocks + 1)
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


def direct_seconds(width: int, hop: int, frames: int) -> float:
    """Predicted seconds of one ``strided_correlate`` call."""
    if hop <= 2:
        return WINDOW_MAC_S * 2 * frames * width
    blocks = -(-width // hop)
    rows = frames + blocks - 1
    products = 2 * blocks * rows
    paged = PAGED_S if products > PAGED_PRODUCTS else 0.0
    return (CALL_S + BLOCK_S * blocks + SAMPLE_S * rows * hop
            + products * (PRODUCT_S + MAC_S * hop + paged))


def fft_seconds(length: int) -> float:
    """Predicted seconds of one complex FFT of ``length`` points.

    Lengths built from 2, 3, 5, 7 and 11 run at about ``FFT_S`` per
    point per log2(length); each larger prime factor p adds a generic
    radix pass of cost proportional to p.
    """
    return length * (FFT_S * math.log2(max(length, 2)) + FFT_PRIME_S * _large_prime_sum(length))


def spectral_seconds(fft_len: int, hop: int) -> float:
    """Predicted seconds of one spectral fold row, the shared signal spectrum excluded."""
    return fft_seconds(fft_len) + SPECTRAL_POINT_S * fft_len + fft_seconds(fft_len // hop)


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
