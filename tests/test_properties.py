"""Property tests of the hopped transform's exactness, of its two row routes, of SCG1 and of WAV input."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavehop import (
    CoefficientMatrix,
    MorletParams,
    ScaleGrid,
    SignalBuffer,
    WavehopError,
    cwt_fft,
    cwth_strided,
    read_matrix_bin,
    read_wav,
    write_matrix_bin,
)
from wavehop import _kernels
from wavehop.wavelet import BlockClass, _block_row, _block_spectra, class_options, schedule
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
    routes = schedule(n, widths, hop).routes
    assert len(routes) == len(widths)
    by_width = [r for _, r in sorted(zip(widths, routes))]
    assert by_width == sorted(by_width)
    assert routes == schedule(n, widths, hop).routes


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


@pytest.mark.filterwarnings("error")  # a warning escaping read_wav is not a typed error
@settings(max_examples=300, deadline=None)
@given(blob=riff_files())
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
