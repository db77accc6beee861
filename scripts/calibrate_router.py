"""Fit the seconds model that routes cwth_strided's scale rows.

Times ``_kernels.strided_correlate``, bare ``numpy.fft.fft`` calls,
whole block rows and whole band classes over a grid of shapes on one
thread, and fits each route's constants on the terms
``_kernels.direct_terms``, ``_kernels.fft_terms``, ``_kernels.row_terms``
and ``_kernels.band_terms`` count, by non-negative least squares on
relative error, in that order.  A block row's and a band class's own
constants are fitted to what they take beyond their FFTs as the FFT
constants fitted in the same run price them, so every constant is in
this host's seconds.  Prints each fit's error, then the block to paste
into ``src/wavehop/_kernels.py``.  Takes a few minutes.

    PYTHONPATH=src python scripts/calibrate_router.py
"""

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
BAND_ROWS = (2, 6, 24)
LONGEST_SECONDS = 0.3  # shapes the current model prices above this are skipped


def median_seconds(fn, reps=9):
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fit(terms, seconds, names, target=None):
    """Constants c >= 0, by name, minimising the relative error of terms @ c against target."""
    seconds = np.array(seconds)
    target = seconds if target is None else np.array(target)
    a = np.array(terms, dtype=float) / seconds[:, None]
    coef, _ = nnls(a, target / seconds)
    err = np.abs(a @ coef - target / seconds)
    print(f"# {len(seconds)} shapes, relative error median {np.median(err):.2f}, max {err.max():.2f}")
    return dict(zip(names, coef))


def direct(rng):
    """The direct kernel's constants, from ``strided_correlate`` timings."""
    terms, seconds = [], []
    for n in LENGTHS:
        for hop in HOPS:
            frames = -(-n // hop)
            for width in WIDTHS:
                if _kernels.direct_seconds(width, hop, frames) > LONGEST_SECONDS:
                    continue
                xpad = _kernels.zero_padded(rng.standard_normal(n), width // 2, hop)
                taps = rng.standard_normal((2, width))
                seconds.append(median_seconds(lambda: _kernels.strided_correlate(
                    xpad, taps[0], taps[1], hop, frames)))
                terms.append(_kernels.direct_terms(width, hop, frames))
    print("# direct kernel")
    return fit(terms, seconds, _kernels.DIRECT_CONSTANTS)


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
    terms, seconds = [], []
    for count, length in sorted(shapes):
        if count * length > 1 << 21:
            continue
        a = rng.standard_normal((count, length)) + 1j * rng.standard_normal((count, length))
        terms.append(_kernels.fft_terms(length, count))
        seconds.append(median_seconds(lambda: np.fft.fft(a, axis=-1)))
    print("# complex FFTs, alone and batched")
    return fit(terms, seconds, _kernels.FFT_CONSTANTS)


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
        wavelet._block_row(out, spectra, cls, wavelet._kernel_spectra(one, taps, hop)[0], hop)

    return median_seconds(row, reps)


def priced_at(fft_constants, own):
    """Price as if ``fft_constants`` were pasted and the constants named in ``own`` were 0, so
    that a route without constants of its own costs its FFTs alone."""
    vars(_kernels).update(fft_constants | dict.fromkeys(own, 0.0))
    _kernels._each_fft_seconds.cache_clear()


def spectral(rng, fft_constants):
    """The block row's own constants, from whole rows beyond their FFTs at ``fft_constants``."""
    priced_at(fft_constants, _kernels.ROW_CONSTANTS)
    terms, seconds, residuals = [], [], []
    for n, hop, cls in block_shapes():
        if cls.blocks * cls.block_len > 1 << 21:
            continue
        t = block_row_seconds(rng, n, hop, cls)
        terms.append(_kernels.row_terms(cls.block_len, cls.blocks))
        seconds.append(t)
        residuals.append(t - _kernels.spectral_seconds(cls.block_len, hop, cls.blocks))
    print("# block row: beyond its two FFTs, a fixed cost and product and fold per point")
    return fit(terms, seconds, _kernels.ROW_CONSTANTS, target=residuals)


def band_class_seconds(rng, n, hop, cls, rows, reps=9):
    """Median seconds of ``rows`` rows of ``cls`` on ``n`` samples, taken as one band.

    The rows are as wide as the class, on the band's own segment spectra
    (``wavelet._band_spectra``).  Their kernels are laid out once, outside
    the timing, as a held band's are.
    """
    spectra = wavelet._band_spectra(rng.standard_normal(n), cls, hop)
    half = min(cls.pad, n - 1)
    band = cls._replace(rows=tuple(range(rows)), execution="band")
    taps = [tuple(rng.standard_normal((2, 2 * half + 1))) for _ in range(rows)]
    out = np.empty((rows, -(-n // hop)), dtype=np.complex128)
    kernels = wavelet._band_kernels(band, taps, hop)
    return median_seconds(lambda: wavelet._band_rows(out, spectra, band, kernels, hop), reps)


def band(rng, fft_constants):
    """A band class's own constants, from whole bands beyond their FFTs at ``fft_constants``.

    Every layout takes a band, its kernels laid out beforehand as a held
    band's are: ``_kernels.band_seconds`` prices the build of kernels not
    held on these same constants.  Classes of one row are left out: numpy
    takes their matmuls as vector products, without the per-bin cost of
    the others.
    """
    priced_at(fft_constants, _kernels.BAND_CONSTANTS)
    terms, seconds, residuals = [], [], []
    for n, hop, cls in block_shapes():
        for rows in BAND_ROWS:
            if cls.blocks * cls.block_len > 1 << 21 or wavelet._band_capacity(cls, hop) < rows:
                continue
            shape = (cls.block_len, hop, cls.blocks, rows)
            t = band_class_seconds(rng, n, hop, cls, rows)
            terms.append(_kernels.band_terms(*shape))
            seconds.append(t)
            residuals.append(t - _kernels.band_seconds(*shape))
    print("# band class: beyond its FFTs, bins, points copied, read and folded, multiply-adds, rows")
    return fit(terms, seconds, _kernels.BAND_CONSTANTS, target=residuals)


def main():
    rng = np.random.default_rng(0)
    direct_constants, fft_constants = direct(rng), ffts(rng)
    constants = (direct_constants | fft_constants | spectral(rng, fft_constants)
                 | band(rng, fft_constants))
    print("# paste into src/wavehop/_kernels.py")
    for name, value in constants.items():
        print(f"{name} = {value:.2g}")


if __name__ == "__main__":
    main()
