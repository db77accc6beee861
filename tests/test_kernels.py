import math
import tracemalloc

import numpy as np
import pytest

from wavehop import MorletParams, _kernels, make_scale_grid, sample_wavelet


def _reference_loop(xpad, taps_re, taps_im, hop, frames):
    width = taps_re.size
    re = np.empty(frames)
    im = np.empty(frames)
    for k in range(frames):
        window = xpad[k * hop: k * hop + width]
        re[k] = window @ taps_re
        im[k] = window @ taps_im
    return re, im


@pytest.mark.parametrize("hop,width,frames", [(1, 7, 50), (3, 33, 40), (16, 129, 25)])
def test_numpy_kernel_matches_plain_loop(hop, width, frames):
    rng = np.random.default_rng(width)
    xpad = rng.standard_normal((frames - 1) * hop + width + 5)
    taps_re = rng.standard_normal(width)
    taps_im = rng.standard_normal(width)
    got = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
    want = _reference_loop(xpad, taps_re, taps_im, hop, frames)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-12)


def _padded_case(n, hop, width, seed):
    rng = np.random.default_rng(seed)
    half = width // 2
    xpad = np.zeros(half + n + half + 2 * hop)
    xpad[half:half + n] = rng.standard_normal(n)
    taps_re, taps_im = rng.standard_normal((2, width))
    return xpad, taps_re.copy(), taps_im.copy(), -(-n // hop)


def test_long_row_memory_is_bounded():
    """n=320 000, hop 8, 8 315 taps: the whole product would be 683 MB."""
    hop, width = 8, 8315
    xpad, taps_re, taps_im, frames = _padded_case(320_000, hop, width, seed=1)
    tracemalloc.start()
    try:
        re, im = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    # every run boundary, both ends and a random sample, against plain dot products
    blocks = -(-width // hop)
    picks = {0, frames - 1} | set(np.random.default_rng(2).integers(0, frames, 40).tolist())
    picks |= {k + d for k in range(blocks, frames, blocks) for d in (-1, 0) if k + d < frames}
    picks = sorted(picks)
    want_re = np.array([xpad[k * hop: k * hop + width] @ taps_re for k in picks])
    want_im = np.array([xpad[k * hop: k * hop + width] @ taps_im for k in picks])
    scale = max(np.max(np.abs(want_re)), np.max(np.abs(want_im)))
    assert np.max(np.abs(re[picks] - want_re)) <= 1e-12 * scale
    assert np.max(np.abs(im[picks] - want_im)) <= 1e-12 * scale


@pytest.mark.parametrize("budget", [1, 200_000, 500_000])
def test_chunked_product_matches_unchunked(monkeypatch, budget):
    xpad, taps_re, taps_im, frames = _padded_case(30_001, 8, 801, seed=3)
    whole = _kernels.strided_correlate(xpad, taps_re, taps_im, 8, frames)
    monkeypatch.setattr(_kernels, "CHUNK_PRODUCTS", budget)
    chunked = _kernels.strided_correlate(xpad, taps_re, taps_im, 8, frames)
    scale = max(np.max(np.abs(whole[0])), np.max(np.abs(whole[1])))
    for got, want in zip(chunked, whole):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


class _CountedRows(np.ndarray):
    """An array that records the signal rows of each matmul it takes part in as the right operand."""

    seen = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedRows.seen.append(inputs[1].shape[1])
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


@pytest.mark.parametrize("budget", [1, 200_000, 500_000, 1 << 22])
def test_priced_rows_are_the_rows_the_runs_multiply(monkeypatch, budget):
    hop, width = 8, 801
    xpad, taps_re, taps_im, frames = _padded_case(30_001, hop, width, seed=4)
    whole_s = _kernels.direct_seconds(width, hop, frames)
    monkeypatch.setattr(_kernels, "CHUNK_PRODUCTS", budget)
    monkeypatch.setattr(_CountedRows, "seen", [])
    _kernels.strided_correlate(xpad.view(_CountedRows), taps_re, taps_im, hop, frames)
    blocks = -(-width // hop)
    chunk, rows = _kernels.product_runs(blocks, frames)
    assert len(_CountedRows.seen) == -(-frames // chunk)
    assert sum(_CountedRows.seen) == rows  # each run's blocks - 1 overlap included
    if len(_CountedRows.seen) > 1:
        assert _kernels.direct_seconds(width, hop, frames) > whole_s
    else:
        assert rows == frames + blocks - 1
        assert _kernels.direct_seconds(width, hop, frames) == whole_s


@pytest.mark.parametrize("n,hop,width", [
    (320_000, 8, 3615), (160_000, 3, 2001), (320_000, 32, 8315), (160_000, 3, 127), (80_000, 4, 3615)])
def test_chunked_call_is_priced_as_the_sum_of_its_runs(n, hop, width):
    frames = -(-n // hop)
    blocks = -(-width // hop)
    chunk, _ = _kernels.product_runs(blocks, frames)
    assert chunk < frames and 2 * blocks * (chunk + blocks - 1) <= _kernels.CHUNK_PRODUCTS
    counts = [min(chunk, frames - start) for start in range(0, frames, chunk)]
    # each run, priced as a call of its own, is one run
    assert all(_kernels.product_runs(blocks, count)[0] == count for count in counts)
    runs_s = sum(_kernels.direct_seconds(width, hop, count) for count in counts)
    assert math.isclose(_kernels.direct_seconds(width, hop, frames), runs_s, rel_tol=1e-12)


def test_no_corpus_shape_is_chunked():
    """Desk scale (64 scales up to 8 315 taps, hop 128, up to 10 s at 16 kHz) stays one run."""
    widths = [sample_wavelet(MorletParams(), s).size
              for s in make_scale_grid(20.0, 7200.0, 64, 16_000.0).scales]
    frames = -(-160_000 // 128)
    for width in widths:
        blocks = -(-width // 128)
        assert 2 * blocks * (frames + blocks - 1) <= _kernels.CHUNK_PRODUCTS
