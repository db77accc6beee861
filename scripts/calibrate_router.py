"""Fit the seconds model that routes cwth_strided's scale rows.

Times ``_kernels.strided_correlate``, bare ``scipy.fft`` calls and
whole block rows (``wavelet._block_row``) over a grid of shapes on one
thread, and prints the constants of ``_kernels.direct_seconds``,
``_kernels.fft_seconds`` and ``_kernels.spectral_seconds`` in the form
``src/wavehop/_kernels.py`` holds them.  Each fit is non-negative least
squares on relative error.  The direct kernel's rows and products are
counted as it computes them, in the runs ``_kernels.product_runs``
sets: a chunked call counts each run's overlap, and its fixed cost and
tap blocks once per run.  The FFT constants
come from FFT timings alone, and ``ROW_CALL_S`` and
``SPECTRAL_POINT_S`` from what whole block rows take beyond their FFTs
as priced by those constants, so the FFT and per-point costs never
trade off against each other.  Takes about a minute.

    PYTHONPATH=src python scripts/calibrate_router.py
"""

import math
import os
import statistics
import time

# one BLAS thread, as the rows of one transform run (and as wavebench runs them)
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import scipy.fft as sfft  # noqa: E402
from scipy.optimize import nnls  # noqa: E402

from wavehop import _kernels, wavelet  # noqa: E402

LENGTHS = (2_000, 20_000, 160_000, 320_000)
WIDTHS = (25, 127, 673, 3615, 8315)
HOPS = (1, 2, 3, 8, 32, 127, 128)
FOLD_HOPS = (1, 2, 8, 32, 127, 128, 131)
LONGEST_SECONDS = 0.3  # shapes the current model prices above this are skipped


def median_seconds(fn, reps=9):
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fit(rows, seconds, names, target=None):
    """Constants c >= 0 minimising the relative error of rows @ c against target.

    ``target`` defaults to ``seconds``.
    """
    seconds = np.array(seconds)
    target = seconds if target is None else np.array(target)
    a = np.array(rows, dtype=float) / seconds[:, None]
    coef, _ = nnls(a, target / seconds)
    err = np.abs(a @ coef - target / seconds)
    for name, value in zip(names, coef):
        print(f"{name} = {value:.2g}")
    print(f"# {len(seconds)} shapes, relative error median {np.median(err):.2f}, max {err.max():.2f}")
    return dict(zip(names, coef))


def direct(rng):
    windowed, blocked = ([], []), ([], [])
    for n in LENGTHS:
        for hop in HOPS:
            frames = -(-n // hop)
            for width in WIDTHS:
                if _kernels.direct_seconds(width, hop, frames) > LONGEST_SECONDS:
                    continue
                xpad = rng.standard_normal(n + width + 2 * hop)
                taps = rng.standard_normal((2, width))
                t = median_seconds(lambda: _kernels.strided_correlate(
                    xpad, taps[0], taps[1], hop, frames))
                if hop <= 2:
                    windowed[0].append([2.0 * frames * width])
                    windowed[1].append(t)
                else:
                    blocks = -(-width // hop)
                    chunk, rows = _kernels.product_runs(blocks, frames)
                    runs = -(-frames // chunk)
                    products = 2 * blocks * rows
                    blocked[0].append([runs, runs * blocks, rows * hop, products, products * hop])
                    blocked[1].append(t)
    print("# direct kernel, hop <= 2")
    fit(*windowed, ["WINDOW_MAC_S"])
    print("# direct kernel, hop > 2")
    fit(*blocked, ["CALL_S", "BLOCK_S", "SAMPLE_S", "PRODUCT_S", "MAC_S"])


def block_shapes():
    """(n, hop, class) of every block row the router can lay out on the calibration grid."""
    for n in LENGTHS:
        for hop in FOLD_HOPS:
            for width in WIDTHS:
                for cls in wavelet.class_options(n, min(width, 2 * n - 1) // 2, hop):
                    yield n, hop, cls


def ffts(rng):
    """The FFT constants, from bare complex FFTs of the block rows' shapes."""
    shapes = set()
    for n, hop, cls in block_shapes():
        shapes.add((1, cls.block_len))  # the kernel's FFT
        shapes.add((cls.blocks, cls.block_len))  # the class's block spectra
        shapes.add((cls.blocks, cls.block_len // hop))  # the row's inverse FFTs
    rows, seconds = [], []
    for count, length in sorted(shapes):
        if count * length > 1 << 21:
            continue
        a = rng.standard_normal((count, length)) + 1j * rng.standard_normal((count, length))
        points = count * length
        log_term = points * math.log2(max(length, 2))
        rows.append([1.0, log_term if count == 1 else 0.0, log_term if count > 1 else 0.0,
                     points * _kernels._large_prime_sum(length)])
        seconds.append(median_seconds(lambda: sfft.fft(a, axis=-1)))
    print("# complex FFTs, alone and batched")
    return fit(rows, seconds, ["FFT_CALL_S", "FFT_S", "FFT_BATCH_S", "FFT_PRIME_S"])


def spectral(rng, constants):
    """The rest of a block row, from whole rows beyond their FFTs as ``constants`` price them."""
    def fft_s(length, count=1):
        rate = constants["FFT_S" if count == 1 else "FFT_BATCH_S"]
        return constants["FFT_CALL_S"] + count * length * (
            rate * math.log2(max(length, 2))
            + constants["FFT_PRIME_S"] * _kernels._large_prime_sum(length))

    rows, seconds, residuals = [], [], []
    for n, hop, cls in block_shapes():
        if cls.blocks * cls.block_len > 1 << 21:
            continue
        x = rng.standard_normal(n)
        spectra = wavelet._block_spectra(x, cls)
        half = min(cls.pad, n - 1)
        taps_re, taps_im = rng.standard_normal((2, 2 * half + 1))
        out = np.empty(-(-n // hop), dtype=np.complex128)
        t = median_seconds(lambda: wavelet._block_row(out, spectra, cls, taps_re, taps_im, hop))
        rows.append([1.0, cls.blocks * cls.block_len])
        seconds.append(t)
        residuals.append(t - fft_s(cls.block_len) - fft_s(cls.block_len // hop, cls.blocks))
    print("# block row: beyond its two FFTs, a fixed cost and product and fold per point")
    fit(rows, seconds, ["ROW_CALL_S", "SPECTRAL_POINT_S"], target=residuals)


def main():
    rng = np.random.default_rng(0)
    direct(rng)
    spectral(rng, ffts(rng))


if __name__ == "__main__":
    main()
