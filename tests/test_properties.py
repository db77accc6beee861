"""Property tests of the hopped transform's exactness, of its two row routes, of SCG1 and of WAV input."""

import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavehop import (
    CoefficientMatrix,
    CoefficientOverflow,
    MorletParams,
    ScaleGrid,
    SignalBuffer,
    WavehopError,
    cwt_fft,
    cwth_strided,
    make_scale_grid,
    read_matrix_bin,
    read_wav,
    sample_wavelet,
    write_matrix_bin,
)
from wavehop import _kernels
from wavehop.wavelet import (
    BlockClass,
    _band_kernels,
    _band_rows,
    _band_spectra,
    _block_row,
    _block_spectra,
    _kernel_spectra,
    class_options,
    schedule,
)
from testutil import assert_rel_close, mutated

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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3_000), grid=grids(), seed=seeds)
def test_cwt_fft_is_strided_at_hop_one(n, grid, seed):
    """The full transform is the hopped transform at hop 1, routes included, bit for bit."""
    sig = SignalBuffer(np.random.default_rng(seed).standard_normal(n), 16_000.0)
    full = cwt_fft(sig, grid, PARAMS)
    np.testing.assert_array_equal(full.values, cwth_strided(sig, grid, PARAMS, 1).values)
    assert full.hop == 1


@st.composite
def block_classes(draw, n, half, hop):
    """A block layout for a row of ``half`` taps a side: one block, or blocks of a drawn length.

    The pad may exceed the row's half, as in a class of wider rows; the
    drawn block lengths start at the shortest whose step holds one hop,
    so taps nearly as wide as the block are drawn too.  An extra pad of
    0, half the draws, makes the row as wide as its class, ``2*pad + 1``
    taps, its first tap the block's first sample.
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
    (kernel,) = _kernel_spectra(cls._replace(rows=(0,)), [(taps_re[cut], taps_im[cut])],
                                min(hop, n))
    _block_row(spectral, _block_spectra(x, cls), cls, kernel, min(hop, n))
    re, im = _kernels.strided_correlate(_kernels.zero_padded(x, half, hop), taps_re, taps_im,
                                        hop, frames)
    assert_rel_close(spectral, re + 1j * im, 1e-9)


@st.composite
def band_cases(draw):
    """(hop, class, half widths, n): 1-12 rows of a class of 1-20 blocks, or of the single
    block ``class_options`` lays out, at hops 1-300 and 512."""
    hop = draw(st.one_of(st.integers(1, 300), st.sampled_from([2, 3, 8, 13, 32, 127, 128, 131,
                                                               251, 293, 512])), label="hop")
    halves = draw(st.lists(st.integers(0, 300), min_size=1, max_size=12), label="halves")
    pad = max(halves) + draw(st.integers(0, 50), label="extra pad")
    rows = tuple(range(len(halves)))
    if draw(st.booleans(), label="one block"):
        # cut to the signal, as ``_kernels.reach`` cuts a schedule's taps and hop
        n = draw(st.integers(1, 3_000), label="n")
        halves, pad, hop = [min(half, n - 1) for half in halves], min(pad, n - 1), min(hop, n)
        return hop, class_options(n, pad, hop)[0]._replace(rows=rows), halves, n
    shortest = -(-(2 * pad + hop) // hop)
    block_len = hop * draw(st.integers(shortest, shortest + 16), label="block_len / hop")
    step = (block_len - 2 * pad) // hop * hop
    blocks = draw(st.integers(1, 20), label="blocks")
    n = draw(st.integers((blocks - 1) * step + 1, blocks * step), label="n")
    return hop, BlockClass(pad, block_len, step, blocks, rows), halves, n


def single_block_case(hop, n=2_000, halves=(300, 120, 0)):
    """A ``band_cases`` case of the single block ``class_options`` lays out, its widest row as wide
    as the class."""
    cls = class_options(n, max(halves), hop)[0]._replace(rows=tuple(range(len(halves))))
    return hop, cls, list(halves), n


@settings(max_examples=120, deadline=None)
@given(case=band_cases(), seed=seeds)
@example(case=single_block_case(2), seed=2)
@example(case=single_block_case(3), seed=3)
@example(case=single_block_case(8), seed=8)
@example(case=single_block_case(32), seed=32)
@example(case=single_block_case(127), seed=127)
def test_band_execution_equals_block_rows(case, seed):
    """A class's rows in one band, on its polyphase spectra, equal the same class's block rows,
    to 1e-12 of each peak."""
    hop, cls, halves, n = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    spectra = _block_spectra(x, cls)
    taps = [tuple(rng.standard_normal((2, 2 * half + 1))) for half in halves]
    frames = -(-n // hop)
    rows = np.empty((len(halves), frames), dtype=np.complex128)
    for out, kernel in zip(rows, _kernel_spectra(cls, taps, hop)):
        _block_row(out, spectra, cls, kernel, hop)
    band = np.empty_like(rows)
    _band_rows(band, _band_spectra(x, cls, hop), cls._replace(execution="band"),
               _band_kernels(cls, taps, hop), hop)
    for got, want in zip(band, rows):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 2_000_000),
    hop=st.integers(1, 512),
    widths=st.lists(st.integers(0, 20_000).map(lambda h: 2 * h + 1), min_size=1, max_size=64),
)
def test_routes_are_monotone_in_tap_count(n, hop, widths):
    """A row never goes direct while a shorter row of the same call goes spectral."""
    routes = schedule(n, widths, hop).routes
    assert len(routes) == len(widths)
    by_width = [r for _, r in sorted(zip(widths, routes))]
    assert by_width == sorted(by_width)
    class_rows = [row for cls in schedule(n, widths, hop).classes for row in cls.rows]
    assert all(routes[row] for row in class_rows)
    assert sorted(class_rows) == [row for row, route in enumerate(routes) if route]
    assert routes == schedule(n, widths, hop).routes


# the tap counts of one scale at 20 Hz and of 8 and 64 scales from 20 to 7 200 Hz, at 16 kHz
MODEL_GRIDS = {count: [sample_wavelet(PARAMS, s).size for s in grid.scales] for count, grid in (
    (1, make_scale_grid(20.0, 20.0, 1, 16_000.0)), (8, make_scale_grid(20.0, 7200.0, 8, 16_000.0)),
    (64, make_scale_grid(20.0, 7200.0, 64, 16_000.0)))}


# hops up to 4 096 with no prime factor above 11
SMOOTH_HOPS = [hop for hop in range(2, 4097) if _kernels._large_prime_sum(hop) == 0]


@settings(max_examples=300, deadline=None)
@given(count=st.sampled_from(sorted(MODEL_GRIDS)), n=st.integers(4, 400_000),
       hop=st.sampled_from(SMOOTH_HOPS))
def test_no_hop_is_priced_above_hop_one(count, n, hop):
    """The north star, timing-free: the seconds model never prices a hop above hop 1.

    Where the hop that reaches the signal, min(hop, n), has a prime
    factor above 11, it does (up to 16 % on one scale at n = 782 to
    22 493), and at n = 2 and 3 by at most 0.02 %: a single block is
    rounded up to a multiple of that hop, so it can grow, and carry the
    factor into the price of its FFTs.
    """
    assume(_kernels._large_prime_sum(min(hop, n)) == 0)
    widths = MODEL_GRIDS[count]
    assert schedule(n, widths, hop).seconds <= schedule(n, widths, 1).seconds


finite = st.floats(allow_nan=False, allow_infinity=False)
F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def matrices(draw):
    """Random shapes (zero columns included), u32 hops, finite positive rates, finite values.

    The values are either all within single precision's range or any
    finite doubles.
    """
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(0, 40))
    scales = draw(st.lists(st.floats(1e-300, 1e300), min_size=rows, max_size=rows, unique=True))
    value = draw(st.sampled_from([st.floats(-F32_MAX, F32_MAX), finite]), label="values")
    parts = draw(st.lists(value, min_size=2 * rows * cols, max_size=2 * rows * cols))
    values = np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)
    hop = draw(st.integers(1, 2**32 - 1))
    rate = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return CoefficientMatrix(values, hop, rate, ScaleGrid(sorted(scales)))


@settings(max_examples=150, deadline=None)
@given(matrix=matrices())
def test_scg1_round_trips_bit_exactly(tmp_path_factory, matrix):
    """What single precision holds round-trips; a matrix with any other value is not written."""
    path = tmp_path_factory.mktemp("scg1") / "m.scg1"
    if matrix.values.size and np.abs(matrix.values.view(np.float64)).max() > F32_MAX:
        with pytest.raises(CoefficientOverflow):
            write_matrix_bin(matrix, path)
        assert not path.exists()
        return
    write_matrix_bin(matrix, path)
    back = read_matrix_bin(path)
    want = matrix.values.astype(np.complex64)
    assert back.values.shape == want.shape
    assert back.values.astype(np.complex64).tobytes() == want.tobytes()
    assert back.hop == matrix.hop
    assert back.source_rate == matrix.source_rate
    assert back.scale_grid.scales.tobytes() == matrix.scale_grid.scales.tobytes()


def wav_blob(format_code, channels, rate, bits, payload):
    fmt = struct.pack("<HHIIHH", format_code, channels, rate, 0, 0, bits)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


# offsets of the RIFF, fmt and data chunk sizes in an unmutated ``wav_blob``
SIZE_FIELDS = (4, 16, 40)
u16 = st.integers(0, 2**16 - 1)
u32 = st.integers(0, 2**32 - 1)


@st.composite
def riff_files(draw):
    """WAV bytes of drawn format fields, then truncated, resized, overwritten or given extra chunks."""
    format_code, bits = draw(st.sampled_from([(1, 16), (3, 32)])
                             | st.tuples(st.sampled_from([1, 3]) | u16,
                                         st.sampled_from([0, 8, 24, 64]) | u16))
    blob = bytearray(wav_blob(format_code, draw(st.integers(1, 9) | u16),
                              draw(st.integers(1, 192_000) | u32), bits,
                              draw(st.binary(max_size=256))))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["truncate", "size", "byte", "chunk"]))
        if kind == "truncate":
            del blob[draw(st.integers(0, len(blob))):]
        elif kind == "size":
            offset = draw(st.sampled_from(SIZE_FIELDS))
            if offset + 4 <= len(blob):
                blob[offset:offset + 4] = struct.pack("<I", draw(st.sampled_from([0, 1, 15, 17]) | u32))
        elif kind == "byte" and blob:
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        elif kind == "chunk":
            body = draw(st.binary(max_size=24))
            size = draw(st.just(len(body)) | u32)
            at = draw(st.sampled_from([12, len(blob)]))
            blob[at:at] = draw(st.sampled_from([b"fmt ", b"data", b"LIST"])) + struct.pack("<I", size) + body
    return bytes(blob)


# small valid files: mono 16-bit PCM, stereo float32 and a 2 x 3 SCG1 matrix; the properties on
# their mutations hold with warnings as errors (pyproject.toml), so a warning fails them too
VALID_WAVS = [wav_blob(1, 1, 16_000, 16, np.array([0, 1000, -32768, 32767], "<i2").tobytes()),
              wav_blob(3, 2, 8_000, 32, np.array([0.5, -0.25, 1.0, 0.0], "<f4").tobytes())]
VALID_SCG1 = (b"SCG1" + struct.pack("<IIId", 2, 3, 4, 16_000.0)
              + np.array([1.0, 2.5], "<f8").tobytes() + np.arange(12, dtype="<f4").tobytes())


@pytest.mark.filterwarnings("error")  # a warning escaping read_wav is not a typed error
@settings(max_examples=300, deadline=None)
@given(blob=riff_files() | st.sampled_from(VALID_WAVS).flatmap(mutated))
def test_mutated_wav_bytes_read_or_raise_only_typed_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("wav") / "m.wav"
    path.write_bytes(blob)
    try:
        signal = read_wav(path)
    except WavehopError:
        return
    assert signal.samples.size >= 1
    assert np.all(np.isfinite(signal.samples))
    assert signal.sample_rate > 0


@settings(max_examples=150, deadline=None)
@given(blob=mutated(VALID_SCG1))
def test_mutated_valid_scg1_reads_or_raises_a_typed_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "mutated.scg1"
    path.write_bytes(blob)
    try:
        matrix = read_matrix_bin(path)
    except WavehopError:
        return
    assert np.all(np.isfinite(matrix.values))
    assert matrix.rows == matrix.scale_grid.count
