"""Fit the seconds model that routes cwth_strided's scale rows.

Times ``_kernels.strided_correlate`` and ``wavelet._spectral_row`` over a
grid of row shapes on one thread, fits the constants of
``_kernels.direct_seconds`` and ``_kernels.spectral_seconds`` by
non-negative least squares on relative error, and prints them in the
form ``src/wavehop/_kernels.py`` holds them.  Takes about a minute.

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


def fit(rows, seconds, names):
    a = np.array(rows, dtype=float) / np.array(seconds)[:, None]
    coef, _ = nnls(a, np.ones(len(seconds)))
    err = np.abs(a @ coef - 1.0)
    for name, value in zip(names, coef):
        print(f"{name} = {value:.2g}")
    print(f"# {len(seconds)} shapes, relative error median {np.median(err):.2f}, max {err.max():.2f}")


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
                    rows = frames + blocks - 1
                    products = 2 * blocks * rows
                    paged = products if products > _kernels.PAGED_PRODUCTS else 0
                    blocked[0].append([1.0, blocks, rows * hop, products, products * hop, paged])
                    blocked[1].append(t)
    print("# direct kernel, hop <= 2")
    fit(*windowed, ["WINDOW_MAC_S"])
    print("# direct kernel, hop > 2")
    fit(*blocked, ["CALL_S", "BLOCK_S", "SAMPLE_S", "PRODUCT_S", "MAC_S", "PAGED_S"])


def spectral(rng):
    rows, seconds = [], []
    for n in LENGTHS:
        x = rng.standard_normal(n)
        for hop in FOLD_HOPS:
            for width in (WIDTHS[0], WIDTHS[-1]):
                m = wavelet.fold_len(n, [width], hop)
                spectrum = np.fft.fft(x, m)
                taps = rng.standard_normal(width) + 1j * rng.standard_normal(width)
                frames = -(-n // hop)
                p = m // hop
                rows.append([m * math.log2(m) + p * math.log2(max(p, 2)),
                             m * _kernels._large_prime_sum(m) + p * _kernels._large_prime_sum(p),
                             m])
                seconds.append(median_seconds(
                    lambda: wavelet._spectral_row(spectrum, taps, hop, frames)))
    print("# spectral fold row: its two FFTs, and the rest per spectrum point")
    fit(rows, seconds, ["FFT_S", "FFT_PRIME_S", "SPECTRAL_POINT_S"])


def main():
    rng = np.random.default_rng(0)
    direct(rng)
    spectral(rng)


if __name__ == "__main__":
    main()
