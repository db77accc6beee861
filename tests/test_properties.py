"""Property tests of the hopped transform's exactness, of its two row routes and of SCG1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavehop import (
    CoefficientMatrix,
    MorletParams,
    ScaleGrid,
    SignalBuffer,
    cwt_fft,
    cwth_strided,
    read_matrix_bin,
    write_matrix_bin,
)
from wavehop import _kernels
from wavehop.wavelet import BlockClass, _block_row, _block_spectra, class_options, route_rows
from testutil import assert_rel_close

HOPS = (1, 2, 3, 7, 8, 32, 127, 128, 131)
PARAMS = MorletParams()

hops = st.sampled_from(HOPS)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def lengths(draw, hop):
    """Signal lengths in [1, 6000], with lengths below the hop drawn on purpose."""
    return draw(st.one_of(st.integers(1, 6000), st.integers(1, hop)))


@st.composite
def grids(draw):
    """Strictly ascending scales from 1 to 400 samples (up to 4157 taps a side)."""
    scales = draw(st.lists(st.floats(1.0, 400.0), min_size=1, max_size=6, unique=True))
    return ScaleGrid(sorted(scales))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), hop=hops, grid=grids(), seed=seeds)
def test_strided_equals_subsampled_full(data, hop, grid, seed):
    n = data.draw(lengths(hop), label="n")
    sig = SignalBuffer(np.random.default_rng(seed).standard_normal(n), 16_000.0)
    full = cwt_fft(sig, grid, PARAMS).values
    hopped = cwth_strided(sig, grid, PARAMS, hop).values
    assert hopped.shape == (grid.count, -(-n // hop))
    assert_rel_close(hopped, full[:, ::hop], 1e-9)


@st.composite
def block_classes(draw, n, half, hop):
    """A block layout for a row of ``half`` taps a side: one block, or blocks of a drawn length.

    The pad may exceed the row's half, as in a class of wider rows; the
    drawn block lengths start at the shortest whose step holds one hop,
    so taps nearly as wide as the block are drawn too.
    """
    pad = half + draw(st.one_of(st.just(0), st.integers(0, 200)), label="extra pad")
    if draw(st.booleans(), label="one block"):
        return class_options(n, pad, hop)[0]
    shortest = -(-(2 * pad + hop) // hop)
    block_len = hop * draw(st.integers(shortest, shortest + 64), label="block_len / hop")
    step = (block_len - 2 * pad) // hop * hop
    return BlockClass(pad, block_len, step, -(-n // step), (0,))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), hop=hops, half=st.integers(0, 3000), seed=seeds)
def test_spectral_row_matches_direct_kernel(data, hop, half, seed):
    """A block row and the direct kernel agree on the same taps, whatever the block layout."""
    n = data.draw(lengths(hop), label="n")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    taps_re, taps_im = rng.standard_normal((2, 2 * half + 1))
    frames = -(-n // hop)
    # as CwtPlan.execute: lags of n or more are cut, and a hop of n or more acts as n
    reach = min(half, n - 1)
    cut = slice(half - reach, half + reach + 1)
    cls = data.draw(block_classes(n, reach, min(hop, n)), label="class")
    spectral = np.empty(frames, dtype=np.complex128)
    _block_row(spectral, _block_spectra(x, cls), cls, taps_re[cut], taps_im[cut], min(hop, n))
    xpad = np.zeros(half + n + half + 2 * hop)
    xpad[half:half + n] = x
    re, im = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
    assert_rel_close(spectral, re + 1j * im, 1e-9)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 2_000_000),
    hop=st.integers(1, 512),
    widths=st.lists(st.integers(0, 20_000).map(lambda h: 2 * h + 1), min_size=1, max_size=64),
)
def test_routes_are_monotone_in_tap_count(n, hop, widths):
    """A row never goes direct while a shorter row of the same call goes spectral."""
    routes = route_rows(n, widths, hop)
    assert len(routes) == len(widths)
    by_width = [r for _, r in sorted(zip(widths, routes))]
    assert by_width == sorted(by_width)
    assert routes == route_rows(n, widths, hop)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw):
    """Random shapes (zero columns included), u32 hops, finite positive rates, any finite values."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(0, 40))
    scales = draw(st.lists(st.floats(1e-300, 1e300), min_size=rows, max_size=rows, unique=True))
    parts = draw(st.lists(finite, min_size=2 * rows * cols, max_size=2 * rows * cols))
    values = np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)
    hop = draw(st.integers(1, 2**32 - 1))
    rate = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return CoefficientMatrix(values, hop, rate, ScaleGrid(sorted(scales)))


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(matrix=matrices())
def test_scg1_round_trips_bit_exactly(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("scg1") / "m.scg1"
    write_matrix_bin(matrix, path)
    back = read_matrix_bin(path)
    want = matrix.values.astype(np.complex64)
    assert back.values.shape == want.shape
    assert back.values.astype(np.complex64).tobytes() == want.tobytes()
    assert back.hop == matrix.hop
    assert back.source_rate == matrix.source_rate
    assert back.scale_grid.scales.tobytes() == matrix.scale_grid.scales.tobytes()
