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


# frame counts that are not a multiple of the hop's phases, a single frame, a single tap,
# and hops on both sides of MIN_SPAN
@pytest.mark.parametrize("hop,width,frames", [
    (1, 7, 50), (3, 33, 40), (16, 129, 25), (2, 21, 33), (5, 41, 13), (8, 129, 1), (31, 95, 7),
    (33, 200, 4), (1, 1, 1)])
def test_numpy_kernel_matches_plain_loop(hop, width, frames):
    rng = np.random.default_rng(width)
    xpad = _kernels.zero_padded(rng.standard_normal((frames - 1) * hop + width + 5), 0, hop)
    taps_re = rng.standard_normal(width)
    taps_im = rng.standard_normal(width)
    got = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
    want = _reference_loop(xpad, taps_re, taps_im, hop, frames)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("hop,width", [
    (1, 41), (2, 41), (3, 33), (16, 801), (5, 41), (8, 129), (31, 95), (33, 201)])
def test_real_taps_alone_give_the_real_part(hop, width):
    for n in (5_001, 1):  # 5 001 frames are no multiple of any hop's phases
        xpad, taps_re, taps_im, frames = _padded_case(n, hop, width, seed=5)
        re, im = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
        real, none = _kernels.strided_correlate(xpad, taps_re, None, hop, frames)
        assert none is None and real.shape == (frames,)
        assert np.max(np.abs(real - re)) <= 1e-13 * np.max(np.abs(re))


def _padded_case(n, hop, width, seed):
    """A signal of ``n`` samples padded as ``CwtPlan.execute`` pads it for a row of ``width`` taps."""
    rng = np.random.default_rng(seed)
    xpad = _kernels.zero_padded(rng.standard_normal(n), width // 2, hop)
    taps_re, taps_im = rng.standard_normal((2, width))
    return xpad, taps_re.copy(), taps_im.copy(), -(-n // hop)


@pytest.mark.parametrize("hop,width,n", [(1, 7, 50), (3, 33, 40), (32, 129, 1_000), (33, 200, 99)])
def test_xpad_without_the_tail_the_layout_reads_raises(hop, width, n):
    """A short ``xpad`` is refused, never copied into a longer one."""
    xpad, taps_re, taps_im, frames = _padded_case(n, hop, width, seed=6)
    _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
    # one sample short of the rows the layout reshapes, every frame's taps still covered
    phases, span, blocks, groups = _kernels.polyphase(width, hop, frames)
    short = xpad[:(groups + blocks - 1) * span - 1]
    assert short.size >= (frames - 1) * hop + width
    with pytest.raises(ValueError):
        _kernels.strided_correlate(short, taps_re, taps_im, hop, frames)


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
    phases, _, blocks, groups = _kernels.polyphase(width, hop, frames)
    chunk, _ = _kernels.product_runs(phases, blocks, groups)
    assert chunk < groups
    picks = {0, frames - 1} | set(np.random.default_rng(2).integers(0, frames, 40).tolist())
    picks |= {g * phases + d for g in range(chunk, groups, chunk) for d in (-1, 0)}
    picks = sorted(picks)
    want_re = np.array([xpad[k * hop: k * hop + width] @ taps_re for k in picks])
    want_im = np.array([xpad[k * hop: k * hop + width] @ taps_im for k in picks])
    scale = max(np.max(np.abs(want_re)), np.max(np.abs(want_im)))
    assert np.max(np.abs(re[picks] - want_re)) <= 1e-12 * scale
    assert np.max(np.abs(im[picks] - want_im)) <= 1e-12 * scale


@pytest.mark.parametrize("budget", [1, 200_000, 500_000])
def test_chunked_product_matches_unchunked(monkeypatch, budget):
    for hop in (8, 2):
        xpad, taps_re, taps_im, frames = _padded_case(30_001, hop, 801, seed=3)
        whole = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
        monkeypatch.setattr(_kernels, "CHUNK_PRODUCTS", budget)
        phases, _, blocks, groups = _kernels.polyphase(801, hop, frames)
        runs = -(-groups // _kernels.product_runs(phases, blocks, groups)[0])
        assert phases > 1 and (runs > 1 or hop == 8)  # hop 2 takes several runs at every budget
        chunked = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
        monkeypatch.undo()
        scale = max(np.max(np.abs(whole[0])), np.max(np.abs(whole[1])))
        for got, want in zip(chunked, whole):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


class _CountedRows(np.ndarray):
    """An array that records the (inner dimension, signal rows) of each matmul it takes part in
    as the right operand."""

    seen = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedRows.seen.append(inputs[1].shape)
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


def test_every_matmul_has_an_inner_dimension_of_at_least_min_span(monkeypatch):
    """Small inner dimensions run far below BLAS peak, and stall OpenBLAS at its default threads."""
    for hop in range(1, 41):
        monkeypatch.setattr(_CountedRows, "seen", [])
        xpad, taps_re, taps_im, frames = _padded_case(1_000, hop, 129, seed=hop)
        got = _kernels.strided_correlate(xpad.view(_CountedRows), taps_re, taps_im, hop, frames)
        assert len(_CountedRows.seen) == 1
        assert min(span for span, _ in _CountedRows.seen) >= _kernels.MIN_SPAN
        for part, want in zip(got, _reference_loop(xpad, taps_re, taps_im, hop, frames)):
            np.testing.assert_allclose(part, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 200_000, 500_000, 1 << 22])
def test_priced_rows_are_the_rows_the_runs_multiply(monkeypatch, budget):
    hop, width = 8, 801
    xpad, taps_re, taps_im, frames = _padded_case(30_001, hop, width, seed=4)
    whole_s = _kernels.direct_seconds(width, hop, frames)
    monkeypatch.setattr(_kernels, "CHUNK_PRODUCTS", budget)
    monkeypatch.setattr(_CountedRows, "seen", [])
    _kernels.strided_correlate(xpad.view(_CountedRows), taps_re, taps_im, hop, frames)
    phases, span, blocks, groups = _kernels.polyphase(width, hop, frames)
    chunk, rows = _kernels.product_runs(phases, blocks, groups)
    assert len(_CountedRows.seen) == -(-groups // chunk)
    assert all(inner == span for inner, _ in _CountedRows.seen)
    # each run's blocks - 1 overlap included
    assert sum(signal_rows for _, signal_rows in _CountedRows.seen) == rows
    if len(_CountedRows.seen) > 1:
        assert _kernels.direct_seconds(width, hop, frames) > whole_s
    else:
        assert rows == groups + blocks - 1
        assert _kernels.direct_seconds(width, hop, frames) == whole_s


@pytest.mark.parametrize("n,hop,width", [
    (320_000, 8, 3615), (160_000, 3, 2001), (320_000, 32, 8315), (160_000, 3, 127), (80_000, 4, 3615)])
def test_chunked_call_is_priced_as_the_sum_of_its_runs(monkeypatch, n, hop, width):
    # a budget at which every case takes several runs of at least its blocks
    monkeypatch.setattr(_kernels, "CHUNK_PRODUCTS", 1 << 19)
    frames = -(-n // hop)
    phases, _, blocks, groups = _kernels.polyphase(width, hop, frames)
    chunk, _ = _kernels.product_runs(phases, blocks, groups)
    assert chunk < groups and 2 * phases * blocks * (chunk + blocks - 1) <= _kernels.CHUNK_PRODUCTS
    counts = [min(chunk * phases, frames - start * phases) for start in range(0, groups, chunk)]
    # each run, priced as a call of its own, is one run
    for count in counts:
        assert _kernels.product_runs(phases, blocks, -(-count // phases))[0] == -(-count // phases)
    # a call places its phases' taps once, not once per run
    runs_s = sum(_kernels.direct_seconds(width, hop, count) for count in counts)
    runs_s -= (len(counts) - 1) * (phases - 1) * _kernels.BLOCK_S
    assert math.isclose(_kernels.direct_seconds(width, hop, frames), runs_s, rel_tol=1e-12)


def test_no_corpus_shape_is_chunked():
    """Desk scale (64 scales up to 8 315 taps, hop 128, up to 10 s at 16 kHz) stays one run."""
    widths = [sample_wavelet(MorletParams(), s).size
              for s in make_scale_grid(20.0, 7200.0, 64, 16_000.0).scales]
    frames = -(-160_000 // 128)
    for width in widths:
        phases, _, blocks, groups = _kernels.polyphase(width, 128, frames)
        assert _kernels.product_runs(phases, blocks, groups)[0] == groups
