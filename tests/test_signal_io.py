import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve, firwin

import wavehop

from wavehop import (
    CoefficientMatrix,
    CoefficientOverflow,
    EmptySignal,
    InvalidHop,
    InvalidParameter,
    InvalidSpec,
    IoFailure,
    MalformedRiff,
    NonFiniteSamples,
    ScaleGrid,
    SignalBuffer,
    SynthSpec,
    UnsupportedEncoding,
    decimate,
    read_matrix_bin,
    read_wav,
    render,
    synthesize,
    write_csv,
    write_matrix_bin,
    write_pgm,
    write_wav,
)
from wavehop.signal_io import _lowpass_taps
from testutil import child_env, max_rel_err, write_float32_wav, write_reference_wav


class TestReadWav:
    def test_mono_pcm16_ten_seconds(self, tmp_path):
        path = tmp_path / "ten_seconds.wav"
        write_reference_wav(path, np.zeros(160_000, dtype=np.int16), 16_000)
        sig = read_wav(path)
        assert len(sig) == 160_000
        assert sig.sample_rate == 16_000

    def test_pcm_scaling_by_full_scale(self, tmp_path):
        path = tmp_path / "scaled.wav"
        write_reference_wav(path, np.array([0, 16384, -32768, 32767], dtype=np.int16), 8000)
        sig = read_wav(path)
        np.testing.assert_array_equal(
            sig.samples, [0.0, 0.5, -1.0, 32767 / 32768]
        )

    def test_stereo_downmix_mean(self, tmp_path):
        path = tmp_path / "stereo.wav"
        frames = np.array([[16384, 16384], [0, 16384], [-16384, 16384]], dtype=np.int16)
        write_reference_wav(path, frames, 16_000)
        sig = read_wav(path)
        np.testing.assert_allclose(sig.samples, [0.5, 0.25, 0.0], atol=0)

    def test_eight_channels_downmix(self, tmp_path):
        path = tmp_path / "multi.wav"
        frames = np.tile(np.array([[8192]], dtype=np.int16), (5, 8))
        write_reference_wav(path, frames, 16_000)
        np.testing.assert_array_equal(read_wav(path).samples, [0.25] * 5)

    def test_downmix_gives_the_bits_of_the_mean(self, tmp_path):
        """Float32 stereo and 3-channel pcm16: the channels' running sum over their count."""
        rng = np.random.default_rng(7)
        stereo = rng.standard_normal((20_001, 2)).astype("<f4")
        write_float32_wav(tmp_path / "stereo.wav", stereo, 16_000)
        want = stereo.astype(np.float64).mean(axis=1)
        assert read_wav(tmp_path / "stereo.wav").samples.tobytes() == want.tobytes()
        three = rng.integers(-32768, 32768, (20_001, 3), dtype=np.int16)
        write_reference_wav(tmp_path / "three.wav", three, 16_000)
        want = (three.astype(np.float64) / 32768.0).mean(axis=1)
        assert read_wav(tmp_path / "three.wav").samples.tobytes() == want.tobytes()

    def test_zero_length_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_reference_wav(path, np.zeros(0, dtype=np.int16), 16_000)
        with pytest.raises(EmptySignal):
            read_wav(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFX" + b"\x00" * 64)
        with pytest.raises(MalformedRiff):
            read_wav(path)

    def test_not_wave_form(self, tmp_path):
        path = tmp_path / "notwave.wav"
        path.write_bytes(b"RIFF\x10\x00\x00\x00AVI " + b"\x00" * 16)
        with pytest.raises(MalformedRiff):
            read_wav(path)

    def test_chunk_overruns_file(self, tmp_path):
        path = tmp_path / "overrun.wav"
        blob = b"RIFF\xff\x00\x00\x00WAVE" + b"fmt \xff\xff\x00\x00" + b"\x00" * 8
        path.write_bytes(blob)
        with pytest.raises(MalformedRiff):
            read_wav(path)

    def test_24_bit_rejected(self, tmp_path):
        import struct

        fmt = struct.pack("<HHIIHH", 1, 1, 16_000, 48_000, 3, 24)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 6) + b"\x00" * 6
        path = tmp_path / "pcm24.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_compressed_rejected(self, tmp_path):
        import struct

        fmt = struct.pack("<HHIIHH", 2, 1, 16_000, 16_000, 2, 16)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 4) + b"\x00" * 4
        path = tmp_path / "adpcm.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    @pytest.mark.parametrize("n,rate", [(1, 8000), (777, 16000), (16000, 44100)])
    def test_roundtrip_count_and_rate_from_reference_writer(self, tmp_path, n, rate):
        path = tmp_path / f"rt_{n}.wav"
        rng = np.random.default_rng(n)
        write_reference_wav(path, rng.integers(-32768, 32768, n, dtype=np.int16), rate)
        sig = read_wav(path)
        assert len(sig) == n
        assert sig.sample_rate == rate

    def test_float32_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.wav"
        write_float32_wav(path, [0.0, 0.25, np.nan, -0.5], 16_000)
        with pytest.raises(NonFiniteSamples, match="index 2"):
            read_wav(path)

    @pytest.mark.filterwarnings("error")
    def test_float32_signalling_nan_rejected_without_a_warning(self, tmp_path):
        path = tmp_path / "snan.wav"
        write_float32_wav(path, np.array([0, 0x7F800001], dtype="<u4").view("<f4"), 16_000)
        with pytest.raises(NonFiniteSamples, match="index 1"):
            read_wav(path)

    def test_unknown_chunks_are_skipped(self, tmp_path):
        import struct

        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"WAVE"
        body += b"junk" + struct.pack("<I", 5) + b"abcde\x00"  # odd size, padded
        body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 4) + struct.pack("<hh", 16384, -16384)
        path = tmp_path / "chunky.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        np.testing.assert_array_equal(read_wav(path).samples, [0.5, -0.5])


class TestWriteWav:
    def test_pcm16_roundtrip_of_quantized_values(self, tmp_path):
        rng = np.random.default_rng(3)
        quantized = rng.integers(-32768, 32768, 500) / 32768.0
        path = tmp_path / "own.wav"
        write_wav(SignalBuffer(quantized, 16_000), path)
        np.testing.assert_array_equal(read_wav(path).samples, quantized)

    def test_float32_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.uniform(-1, 1, 300).astype(np.float32).astype(np.float64)
        path = tmp_path / "float.wav"
        write_wav(SignalBuffer(values, 16_000), path, encoding="float32")
        sig = read_wav(path)
        np.testing.assert_array_equal(sig.samples, values)
        assert sig.sample_rate == 16_000

    def test_unknown_encoding(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(SignalBuffer([0.0], 8000), tmp_path / "x.wav", encoding="alaw")

    # 0.4 Hz rounds to a rate of 0; 1e12 Hz overflows the u32 rate and byte rate
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    @pytest.mark.parametrize("rate", [0.4, 1e12])
    def test_rate_the_header_cannot_hold(self, tmp_path, rate, encoding):
        path = tmp_path / "x.wav"
        with pytest.raises(InvalidParameter):
            write_wav(SignalBuffer([0.0, 0.5], rate), path, encoding=encoding)
        assert not path.exists()


# every function that reads or writes a file, as a function of the path alone
FILE_CALLS = {
    "read_wav": read_wav,
    "read_matrix_bin": read_matrix_bin,
    "write_wav": lambda path: write_wav(SignalBuffer([0.0, 0.5], 8000), path),
    "write_matrix_bin": lambda path: write_matrix_bin(
        CoefficientMatrix([[1j]], 1, 8000.0, ScaleGrid([1.0])), path),
    "write_csv": lambda path: write_csv(np.eye(2), path),
    "write_pgm": lambda path: write_pgm(render(np.eye(2)), path),
}


@pytest.mark.parametrize("where", ["directory", "missing"])
@pytest.mark.parametrize("call", sorted(FILE_CALLS))
def test_a_path_the_system_refuses_is_io_failure_naming_it(tmp_path, call, where):
    """A directory, a missing file or a file in a missing directory: IoFailure, never OSError."""
    path = tmp_path if where == "directory" else tmp_path / "absent" / "file"
    with pytest.raises(IoFailure, match=f"^cannot (read|write) {re.escape(str(path))}: "):
        FILE_CALLS[call](path)
    assert where == "directory" or not path.parent.exists()


class TestDecimate:
    def test_anti_alias_refuses_samples_that_could_overflow_before_filtering(self):
        hop = 4
        gain = np.abs(_lowpass_taps(10 * hop + 1, 0.9 / hop, reach=299)).sum()
        x = np.zeros(300)
        x[7] = -wavehop._kernels.SAFE_PEAK / gain * 1.01
        with pytest.raises(CoefficientOverflow):
            decimate(SignalBuffer(x, 16_000), hop, anti_alias=True)
        x[7] *= 0.99 / 1.01
        assert np.isfinite(decimate(SignalBuffer(x, 16_000), hop, anti_alias=True).samples).all()

    @pytest.mark.parametrize("n", [2_000, 47_000, 320_000])
    def test_anti_alias_pads_the_signal_once(self, monkeypatch, n):
        """The filter reads the zeros its one padded copy holds, never a second, longer copy."""
        def refused(*args, **kwargs):
            raise AssertionError("np.concatenate called")

        sig = SignalBuffer(np.random.default_rng(n).standard_normal(n), 16_000)
        monkeypatch.setattr(np, "concatenate", refused)
        assert len(decimate(sig, 32, anti_alias=True)) == -(-n // 32)

    def test_plain_index_selection(self):
        sig = SignalBuffer([0, 1, 2, 3, 4, 5], 16_000)
        out = decimate(sig, 2)
        np.testing.assert_array_equal(out.samples, [0, 2, 4])
        assert out.sample_rate == 8000

    def test_hop_one_is_identity(self):
        rng = np.random.default_rng(0)
        sig = SignalBuffer(rng.standard_normal(999), 44_100, "x")
        out = decimate(sig, 1)
        np.testing.assert_array_equal(out.samples, sig.samples)
        assert out.sample_rate == sig.sample_rate
        assert out.source_label == sig.source_label

    def test_paper_scale_length(self):
        sig = SignalBuffer(np.zeros(160_000), 16_000)
        assert len(decimate(sig, 128)) == 1250

    @pytest.mark.parametrize("n,hop", [(10, 3), (11, 3), (12, 3), (1, 5), (100, 7)])
    def test_ceil_length(self, n, hop):
        sig = SignalBuffer(np.arange(n, dtype=float), 8000)
        assert len(decimate(sig, hop)) == math.ceil(n / hop)

    def test_composition(self):
        rng = np.random.default_rng(1)
        sig = SignalBuffer(rng.standard_normal(1000), 16_000)
        nested = decimate(decimate(sig, 3), 4)
        flat = decimate(sig, 12)
        np.testing.assert_array_equal(nested.samples, flat.samples)
        assert math.isclose(nested.sample_rate, flat.sample_rate, rel_tol=1e-12)

    def test_invalid_hop(self):
        sig = SignalBuffer([1.0, 2.0], 8000)
        with pytest.raises(InvalidHop):
            decimate(sig, 0)

    def test_anti_alias_suppresses_folding(self):
        spec = SynthSpec("sine", 8000, 16_000, frequency=3600.0)
        sig = synthesize(spec)
        plain = decimate(sig, 4).samples
        filtered = decimate(sig, 4, anti_alias=True).samples
        assert len(filtered) == len(plain)
        # 3600 Hz folds across the 2 kHz post-decimation Nyquist; the
        # low-pass should remove nearly all of it
        assert np.sqrt(np.mean(filtered**2)) < 0.05 * np.sqrt(np.mean(plain**2))

    def test_anti_alias_passes_low_frequencies(self):
        spec = SynthSpec("sine", 8000, 16_000, frequency=200.0)
        sig = synthesize(spec)
        plain = decimate(sig, 4).samples
        filtered = decimate(sig, 4, anti_alias=True).samples
        mid = slice(100, -100)  # skip FIR edge transients
        assert np.max(np.abs(filtered[mid] - plain[mid])) < 0.02

    # scipy.signal is the oracle here; the package itself must not import it.
    @pytest.mark.parametrize("hop", [1, 2, 3, 8, 16, 32, 128])
    def test_lowpass_taps_match_firwin(self, hop):
        np.testing.assert_allclose(
            _lowpass_taps(10 * hop + 1, 0.9 / hop), firwin(10 * hop + 1, 0.9 / hop),
            rtol=0, atol=1e-15,
        )

    @pytest.mark.parametrize("n,hop", [
        (1, 4), (30, 4), (41, 4), (1000, 3), (1001, 8), (2000, 32), (160_000, 128),
        (100, 1000),  # 10 001 taps, of which only the centre 199 can reach a sample
        (320, 1), (321, 2),  # the kernel's windowed form
        (1000, 999),
    ])
    def test_anti_alias_matches_firwin_fftconvolve(self, n, hop):
        x = np.random.default_rng(n).standard_normal(n)
        expected = fftconvolve(x, firwin(10 * hop + 1, 0.9 / hop), mode="same")[::hop]
        out = decimate(SignalBuffer(x, 16_000), hop, anti_alias=True)
        assert out.samples.shape == expected.shape
        assert max_rel_err(out.samples, expected) <= 1e-12
        assert out.sample_rate == 16_000 / hop

    def test_anti_alias_memory_follows_the_signal_not_the_hop(self):
        x = np.random.default_rng(8).standard_normal(1000)
        tracemalloc.start()
        try:
            out = decimate(SignalBuffer(x, 16_000), 2**18, anti_alias=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.samples.shape == (1,) and np.isfinite(out.samples).all()
        assert peak < 8 * 2**20  # 2.6M taps would take 21 MB, and their convolution more


def test_import_leaves_scipy_signal_unloaded():
    """No module of SciPy loads with the package: it runs on numpy alone."""
    code = (
        "import sys, wavehop, wavehop.cli; print(wavehop.__file__); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    detail = f"stdout={child.stdout!r} stderr={child.stderr!r}"
    assert child.returncode == 0, detail
    child_file, loaded = child.stdout.splitlines()
    assert os.path.samefile(child_file, wavehop.__file__), detail
    assert loaded == "[]", detail


class TestSynthesize:
    def test_impulse(self):
        sig = synthesize(SynthSpec("impulse", 1024, 16_000, position=512))
        assert sig.samples[512] == 1.0
        assert np.count_nonzero(sig.samples) == 1

    def test_sine_closed_form(self):
        spec = SynthSpec("sine", 64, 16_000, frequency=1000.0, amplitude=0.5)
        sig = synthesize(spec)
        k = np.arange(64)
        expected = 0.5 * np.sin(2 * np.pi * 1000.0 * k / 16_000)
        np.testing.assert_allclose(sig.samples, expected, rtol=1e-12, atol=0)
        assert sig.samples[0] == 0.0

    def test_white_noise_deterministic(self):
        a = synthesize(SynthSpec("white_noise", 2048, 16_000, seed=42))
        b = synthesize(SynthSpec("white_noise", 2048, 16_000, seed=42))
        np.testing.assert_array_equal(a.samples, b.samples)
        c = synthesize(SynthSpec("white_noise", 2048, 16_000, seed=43))
        assert not np.array_equal(a.samples, c.samples)

    def test_chirp_stays_in_band(self):
        sig = synthesize(SynthSpec("chirp", 4096, 16_000, f0=100.0, f1=4000.0))
        assert np.max(np.abs(sig.samples)) <= 1.0

    @pytest.mark.parametrize(
        "spec_kwargs",
        [
            dict(kind="sine", length_samples=16, sample_rate=16_000, frequency=8000.0),
            dict(kind="sine", length_samples=16, sample_rate=16_000, frequency=9000.0),
            dict(kind="chirp", length_samples=16, sample_rate=16_000, f0=100.0, f1=8000.0),
            dict(kind="impulse", length_samples=16, sample_rate=16_000, position=16),
            dict(kind="impulse", length_samples=16, sample_rate=16_000, position=-1),
            dict(kind="sine", length_samples=0, sample_rate=16_000, frequency=100.0),
            dict(kind="wobble", length_samples=16, sample_rate=16_000),
            dict(kind="white_noise", length_samples=16, sample_rate=float("nan")),
            dict(kind="white_noise", length_samples=16, sample_rate=float("inf")),
            dict(kind="white_noise", length_samples=16, sample_rate=0),
            dict(kind="white_noise", length_samples=16, sample_rate=16_000, seed=-1),
        ],
    )
    def test_invalid_specs(self, spec_kwargs):
        with pytest.raises(InvalidSpec):
            SynthSpec(**spec_kwargs)


class TestSignalBuffer:
    def test_empty_rejected(self):
        with pytest.raises(EmptySignal):
            SignalBuffer(np.array([]), 16_000)

    @pytest.mark.parametrize("samples", [[0.0, np.nan], [np.inf], [1.0, -np.inf, 0.5]])
    def test_non_finite_rejected(self, samples):
        with pytest.raises(NonFiniteSamples):
            SignalBuffer(samples, 16_000)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            SignalBuffer([1.0], 0)

    @pytest.mark.parametrize("rate", [0, -1.0, float("nan"), float("inf")])
    def test_bad_rate_is_typed(self, rate):
        with pytest.raises(InvalidParameter):
            SignalBuffer([1.0], rate)
