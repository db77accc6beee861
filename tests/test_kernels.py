import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavehop import MorletParams, _kernels, make_scale_grid, sample_wavelet
from wavehop.wavelet import schedule


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


def _lone(width, hop, frames):
    """(phases, span, blocks, groups) of one row of ``width`` taps computed alone."""
    phases, span, groups = _kernels.polyphase(hop, frames)
    return phases, span, _kernels.row_layout(width, width, hop)[1], groups


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
    phases, span, blocks, groups = _lone(width, hop, frames)
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
    phases, _, blocks, groups = _lone(width, hop, frames)
    chunk, _ = _kernels.product_runs(2 * phases * blocks, blocks, groups)
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
        phases, _, blocks, groups = _lone(801, hop, frames)
        runs = -(-groups // _kernels.product_runs(2 * phases * blocks, blocks, groups)[0])
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
    phases, span, blocks, groups = _lone(width, hop, frames)
    chunk, rows = _kernels.product_runs(2 * phases * blocks, blocks, groups)
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
    phases, _, blocks, groups = _lone(width, hop, frames)
    chunk, _ = _kernels.product_runs(2 * phases * blocks, blocks, groups)
    assert chunk < groups and 2 * phases * blocks * (chunk + blocks - 1) <= _kernels.CHUNK_PRODUCTS
    counts = [min(chunk * phases, frames - start * phases) for start in range(0, groups, chunk)]
    # each run, priced as a call of its own, is one run
    for count in counts:
        groups = -(-count // phases)
        assert _kernels.product_runs(2 * phases * blocks, blocks, groups)[0] == groups
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
        phases, _, blocks, groups = _lone(width, 128, frames)
        assert _kernels.product_runs(2 * phases * blocks, blocks, groups)[0] == groups


@st.composite
def stacked_rows(draw):
    """Rows of 1-2 000 taps, odd and even, centred on the widest, at hops of several phases and
    of one, with imaginary taps or without, and an ``xpad`` long enough for the stack and each
    row alone; with each row's first tap past the widest row's."""
    span = _kernels.MIN_SPAN
    hop = draw(st.one_of(st.integers(1, span - 1), st.integers(span, 300)))
    count = draw(st.integers(1, 5))
    widths = draw(st.lists(st.integers(1, 2_000), min_size=count, max_size=count))
    frames = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    imaginary = draw(st.booleans())
    taps = [(rng.standard_normal(w), rng.standard_normal(w) if imaginary else None)
            for w in widths]
    _, span, _, groups = _lone(1, hop, frames)
    _, _, reach = _kernels.stack_shape(widths, hop)
    starts = [max(widths) // 2 - w // 2 for w in widths]
    lone = max(start + (_lone(w, hop, frames)[2] + groups - 1) * span
               for w, start in zip(widths, starts))
    xpad = rng.standard_normal(max(lone, (groups + reach - 1) * span))
    return xpad, taps, starts, hop, frames


@given(stacked_rows())
@settings(max_examples=300, deadline=None)
def test_stack_equals_each_rows_own_call(case):
    xpad, taps, starts, hop, frames = case
    got = _kernels.stacked_correlate(xpad, _kernels.stack_taps(taps, hop), frames)
    assert len(got) == len(taps)
    for (re, im), (taps_re, taps_im), start in zip(got, taps, starts):
        want_re, want_im = _kernels.strided_correlate(xpad[start:], taps_re, taps_im, hop, frames)
        assert (im is None) == (taps_im is None) and re.shape == (frames,)
        peak = max(np.max(np.abs(want_re)), 0.0 if im is None else np.max(np.abs(want_im)))
        assert np.max(np.abs(re - want_re)) <= 1e-12 * peak
        if im is not None:
            assert np.max(np.abs(im - want_im)) <= 1e-12 * peak


@given(stacked_rows())
@settings(max_examples=100, deadline=None)
def test_stack_of_one_row_is_the_lone_call(case):
    xpad, taps, starts, hop, frames = case
    (taps_re, taps_im), start = taps[0], starts[0]
    (re, im), = _kernels.stacked_correlate(
        xpad[start:], _kernels.stack_taps([(taps_re, taps_im)], hop), frames)
    want_re, want_im = _kernels.strided_correlate(xpad[start:], taps_re, taps_im, hop, frames)
    assert np.array_equal(re, want_re)
    assert (im is None and want_im is None) or np.array_equal(im, want_im)


@given(st.lists(st.integers(1, 20_000), min_size=1, max_size=8), st.integers(1, 600))
def test_row_layout_is_elementwise_and_the_widest_row_reaches_furthest(widths, hop):
    leads, blocks, reach = _kernels.stack_shape(widths, hop)
    assert reach == max(lead + count for lead, count in zip(leads, blocks))
    array_leads, array_blocks = _kernels.row_layout(np.array(widths), max(widths), hop)
    assert array_leads.tolist() == list(leads) and array_blocks.tolist() == list(blocks)


GRIDS = {count: [sample_wavelet(MorletParams(), s).size for s in
                 make_scale_grid(20.0, 20.0 if count == 1 else 7200.0, count, 16_000.0).scales]
         for count in (1, 8, 64)}


@given(st.sampled_from(sorted(GRIDS)), st.integers(1, 400_000),
       st.sampled_from((1, 2, 3, 8, 32, 127, 128, 512)))
@settings(max_examples=300, deadline=None)
def test_stacks_take_rows_while_their_product_fits_the_run_budget(scales, n, hop):
    """One budget, ``CHUNK_PRODUCTS``, bounds every run: a stack of several rows is one run
    within it, and only a row alone past it is cut into runs, none past it but a least run of
    its blocks in groups."""
    sched = schedule(n, GRIDS[scales], hop)
    direct = sorted((row for row, spectral in enumerate(sched.routes) if not spectral),
                    key=lambda row: (sched.widths[row], row))
    # the stacks cut the direct rows, in order of tap count, into consecutive runs
    assert [row for rows in sched.stacks for row in rows] == direct
    phases, _, groups = _kernels.polyphase(sched.hop, sched.frames)
    budget = _kernels.CHUNK_PRODUCTS

    def shape(rows):
        _, blocks, reach = _kernels.stack_shape([sched.widths[row] for row in rows], sched.hop)
        return 2 * phases * sum(blocks), reach

    def cut(rows):
        return sched.widths[rows[0]] >= 2 * n - 1

    for index, rows in enumerate(sched.stacks):
        products, reach = shape(rows)
        chunk, _ = _kernels.product_runs(products, reach, groups)
        assert (products * (min(chunk, groups) + reach - 1) <= budget
                or len(rows) == 1 and chunk == reach)
        assert len(rows) == 1 or products * (groups + reach - 1) <= budget
        # each stack took rows while its whole product fit, and no more; rows that ``reach``
        # may have cut start a stack of their own
        if index + 1 < len(sched.stacks):
            after = sched.stacks[index + 1]
            products, reach = shape(rows + after[:1])
            assert products * (groups + reach - 1) > budget or cut(after) and not cut(rows)


BAND_SHAPES = [(25_088, 128, 10), (4_480, 8, 41), (1_350, 1, 236), (165_888, 128, 1),
               (7_336, 131, 3)]


@pytest.mark.parametrize("block_len,hop,blocks", BAND_SHAPES)
def test_band_seconds_are_affine_in_rows(block_len, hop, blocks):
    """A schedule prices a band class as a fixed cost plus a cost per row, exactly."""
    fixed = _kernels.band_seconds(block_len, hop, blocks, 0)
    each = _kernels.band_seconds(block_len, hop, blocks, 1) - fixed
    for rows in (2, 7, 24):
        priced = _kernels.band_seconds(block_len, hop, blocks, rows)
        assert math.isclose(priced, fixed + rows * each, rel_tol=1e-12)


@pytest.mark.parametrize("block_len,hop,blocks", BAND_SHAPES)
def test_band_terms_count_the_matmuls(block_len, hop, blocks):
    bins, points, kernel, folded, macs, rows = _kernels.band_terms(block_len, hop, blocks, 6)
    # bins of (blocks, hop) x (hop, 6) matmuls, whose products are the folded spectra
    assert (bins, kernel, macs, folded, rows) == (block_len // hop, bins * hop * 6,
                                                  bins * blocks * hop * 6, bins * blocks * 6, 6)
    assert points == blocks * block_len
