"""Property tests of the hopped transform's exactness and of its two row routes."""

import numpy as np
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from wavehop import MorletParams, ScaleGrid, SignalBuffer, cwt_fft, cwth_strided
from wavehop import _kernels
from wavehop.wavelet import _spectral_row, fold_len, route_rows
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


@settings(max_examples=80, deadline=None)
@given(data=st.data(), hop=hops, half=st.integers(0, 3000), seed=seeds)
def test_spectral_row_matches_direct_kernel(data, hop, half, seed):
    """Both routes of one row agree, whichever the router would pick."""
    n = data.draw(lengths(hop), label="n")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    taps = rng.standard_normal(2 * half + 1) + 1j * rng.standard_normal(2 * half + 1)
    frames = -(-n // hop)
    spectrum = sfft.fft(x, fold_len(n, [taps.size], hop))
    spectral = _spectral_row(spectrum, taps, hop, frames)
    xpad = np.zeros(half + n + half + 2 * hop)
    xpad[half:half + n] = x
    re, im = _kernels.strided_correlate(
        xpad, np.ascontiguousarray(taps.real), np.ascontiguousarray(taps.imag), hop, frames
    )
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
