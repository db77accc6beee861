"""Fit the seconds model that routes cwth_strided's scale rows.

Times ``_kernels.strided_correlate``, bare ``numpy.fft.fft`` calls (the
package's FFT) and whole block rows (the row's kernel spectrum by
``wavelet._kernel_spectra``, then ``wavelet._block_row``) over a grid
of shapes on one thread, and prints the constants of
``_kernels.direct_seconds``, ``_kernels.fft_seconds`` and
``_kernels.spectral_seconds`` in the form ``src/wavehop/_kernels.py``
holds them.  Each fit is non-negative least squares on relative
error.  The direct kernel's rows and products are
counted as it computes them, in the phases ``_kernels.polyphase`` and
the runs ``_kernels.product_runs`` set: a chunked call counts each
run's overlap, and its fixed cost and tap blocks once per run.  The
FFT constants come from FFT timings alone, and ``ROW_CALL_S`` and
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
    rows, seconds = [], []
    for n in LENGTHS:
        for hop in HOPS:
            frames = -(-n // hop)
            for width in WIDTHS:
                if _kernels.direct_seconds(width, hop, frames) > LONGEST_SECONDS:
                    continue
                xpad = rng.standard_normal(n + width + hop + 2 * _kernels.MIN_SPAN)
                taps = rng.standard_normal((2, width))
                seconds.append(median_seconds(lambda: _kernels.strided_correlate(
                    xpad, taps[0], taps[1], hop, frames)))
                phases, span, blocks, groups = _kernels.polyphase(width, hop, frames)
                chunk, signal_rows = _kernels.product_runs(phases, blocks, groups)
                runs = -(-groups // chunk)
                products = 2 * phases * blocks * signal_rows
                rows.append([runs, runs * blocks + phases - 1, signal_rows * span,
                             products + 2 * phases * groups * (phases > 1), products * span])
    print("# direct kernel")
    fit(rows, seconds, ["CALL_S", "BLOCK_S", "SAMPLE_S", "PRODUCT_S", "MAC_S"])


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
        seconds.append(median_seconds(lambda: np.fft.fft(a, axis=-1)))
    print("# complex FFTs, alone and batched")
    return fit(rows, seconds, ["FFT_CALL_S", "FFT_S", "FFT_BATCH_S", "FFT_PRIME_S"])


def block_row_seconds(rng, n, hop, cls, reps=9):
    """Median seconds of one row of ``cls`` on ``n`` samples: its kernel spectrum and block row.

    The row is as wide as the class, and its kernel is transformed alone,
    as ``_kernels.spectral_seconds`` prices it.
    """
    spectra = wavelet._block_spectra(rng.standard_normal(n), cls)
    half = min(cls.pad, n - 1)
    one = cls._replace(rows=(0,))
    taps = [tuple(rng.standard_normal((2, 2 * half + 1)))]
    out = np.empty(-(-n // hop), dtype=np.complex128)

    def row():
        wavelet._block_row(out, spectra, cls, wavelet._kernel_spectra(one, taps)[0], hop)

    return median_seconds(row, reps)


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
        t = block_row_seconds(rng, n, hop, cls)
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
