"""Signal loading, synthesis, and decimation.

Everything downstream works on :class:`SignalBuffer`, a mono float signal
plus its sample rate.  WAV input is restricted to uncompressed RIFF/WAVE
(16-bit PCM or 32-bit IEEE float); multi-channel files are downmixed to
mono by averaging channels.
"""

from __future__ import annotations

import math
import struct
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import (
    EmptySignal,
    InvalidHop,
    InvalidParameter,
    InvalidSpec,
    IoFailure,
    MalformedRiff,
    NonFiniteSamples,
    UnsupportedEncoding,
)

PCM16_FULL_SCALE = 32768.0

SYNTH_KINDS = ("impulse", "sine", "chirp", "white_noise")


@dataclass(eq=False)
class SignalBuffer:
    """A discrete mono signal.

    samples      float64 amplitudes; PCM input is scaled to [-1, 1]
    sample_rate  Hz; fractional rates appear after decimation
    source_label free-form provenance tag
    """

    samples: np.ndarray
    sample_rate: float
    source_label: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size < 1:
            raise EmptySignal("signal has no samples")
        finite = np.isfinite(self.samples)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            raise NonFiniteSamples(
                f"{self.source_label or 'signal'}: {bad.size} non-finite sample(s),"
                f" first at index {bad[0]}"
            )
        self.sample_rate = float(self.sample_rate)
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise InvalidParameter(
                f"sample_rate must be positive and finite, got {self.sample_rate}"
            )

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class SynthSpec:
    """Recipe for a deterministic test signal.

    kind selects the generator; only the fields that kind uses are read:
    impulse(position), sine(frequency, amplitude), chirp(f0, f1),
    white_noise(seed).
    """

    kind: str
    length_samples: int
    sample_rate: float
    position: int = 0
    frequency: float = 0.0
    amplitude: float = 1.0
    f0: float = 0.0
    f1: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise InvalidSpec(f"unknown synth kind {self.kind!r}")
        if self.length_samples < 1:
            raise InvalidSpec("length_samples must be >= 1")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise InvalidSpec(f"sample_rate must be positive and finite, got {self.sample_rate}")
        nyquist = self.sample_rate / 2.0
        if self.kind == "sine" and not 0 < self.frequency < nyquist:
            raise InvalidSpec(
                f"sine frequency {self.frequency} Hz outside (0, {nyquist}) Hz"
            )
        if self.kind == "chirp":
            for f in (self.f0, self.f1):
                if not 0 < f < nyquist:
                    raise InvalidSpec(f"chirp frequency {f} Hz outside (0, {nyquist}) Hz")
        if self.kind == "impulse" and not 0 <= self.position < self.length_samples:
            raise InvalidSpec(
                f"impulse position {self.position} outside [0, {self.length_samples})"
            )


def synthesize(spec: SynthSpec) -> SignalBuffer:
    """Generate the signal described by ``spec``.

    Same spec always yields identical samples; white noise is seeded.
    """
    n = spec.length_samples
    if spec.kind == "impulse":
        samples = np.zeros(n)
        samples[spec.position] = 1.0
    elif spec.kind == "sine":
        k = np.arange(n)
        samples = spec.amplitude * np.sin(2.0 * np.pi * spec.frequency * k / spec.sample_rate)
    elif spec.kind == "chirp":
        # linear sweep f0 -> f1 over the buffer duration
        t = np.arange(n) / spec.sample_rate
        duration = n / spec.sample_rate
        rate_of_change = (spec.f1 - spec.f0) / duration
        phase = 2.0 * np.pi * (spec.f0 * t + 0.5 * rate_of_change * t * t)
        samples = np.sin(phase)
    else:  # white_noise
        rng = np.random.default_rng(spec.seed)
        samples = rng.uniform(-1.0, 1.0, size=n)
    return SignalBuffer(samples, spec.sample_rate, source_label=f"synth:{spec.kind}")


def decimate(signal: SignalBuffer, hop: int, anti_alias: bool = False) -> SignalBuffer:
    """Keep every ``hop``-th sample, starting at index 0.

    Output length is ceil(N / hop) and the recorded sample rate is the
    input rate divided by hop.  With ``anti_alias`` a linear-phase FIR
    low-pass (cutoff 0.45/hop of the input rate) is evaluated at the kept
    samples alone, by ``_kernels.strided_correlate``, the one-row stack of
    ``cwth_strided``'s direct kernel, on the taps and stride that meet
    the signal (``_kernels.reach``, as ``cwth_strided`` cuts its rows);
    the default is plain selection.  The FIR is a Hamming-windowed sinc
    scaled to unit DC gain, the same design as SciPy's ``firwin`` with
    its default window.  Samples so large that the filtered signal could
    overflow raise CoefficientOverflow first.
    """
    hop = _check_int(hop)
    x = signal.samples
    if not anti_alias:
        return SignalBuffer(x[::hop].copy(), signal.sample_rate / hop, signal.source_label)
    # 10*hop+1 taps keeps the transition band a fixed fraction of the
    # target Nyquist across hops; the centred pad cancels the FIR delay.
    # Only the taps and the stride that meet the signal are used (``_kernels.reach``).
    (width,), stride = _kernels.reach(x.size, [10 * hop + 1], hop)
    taps = _lowpass_taps(10 * hop + 1, 0.9 / hop, reach=width // 2)  # cutoff relative to Nyquist
    _kernels.check_overflow(x, float(np.abs(taps).sum()), "the filtered signal")
    xpad = _kernels.zero_padded(x, taps.size // 2, stride)
    filtered, _ = _kernels.strided_correlate(xpad, taps[::-1], None, stride, -(-x.size // hop))
    return SignalBuffer(filtered, signal.sample_rate / hop, signal.source_label)


def _lowpass_taps(numtaps: int, cutoff: float, reach: float = math.inf) -> np.ndarray:
    """Hamming-windowed sinc low-pass of ``numtaps`` >= 2 taps, ``cutoff`` relative to Nyquist.

    Only the taps within ``reach`` of the centre are returned, scaled as
    the whole filter is, to unit DC gain.  The DC sum runs over all
    ``numtaps`` a chunk at a time, so memory stays bounded by ``reach``.
    """
    centre = 0.5 * (numtaps - 1)

    def part(start: int, stop: int) -> np.ndarray:
        j = np.arange(start, stop)
        # np.hamming(numtaps)[j], computed as numpy computes it
        window = 0.54 + 0.46 * np.cos(np.pi * (2.0 * j + 1 - numtaps) / (numtaps - 1))
        return np.sinc(cutoff * (j - centre)) * window

    total = sum(part(start, min(start + _TAP_CHUNK, numtaps)).sum()
                for start in range(0, numtaps, _TAP_CHUNK))
    first = 0 if reach >= centre else math.ceil(centre - reach)
    return part(first, numtaps - first) / total


_TAP_CHUNK = 1 << 16


def _check_int(value, name: str = "hop", error: type = InvalidHop) -> int:
    """``value`` as an int, if it is a whole number >= 1; otherwise ``error``, whatever its
    type, never a bare TypeError, ValueError or OverflowError."""
    with suppress(TypeError, ValueError, OverflowError):
        if value >= 1 and int(value) == value:
            return int(value)
    raise error(f"{name} must be an integer >= 1, got {value!r}")


# --- WAV reading and writing -----------------------------------------------

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
_U32_MAX = 0xFFFFFFFF


def read_wav(path) -> SignalBuffer:
    """Read an uncompressed RIFF/WAVE file into a mono SignalBuffer.

    Accepts 16-bit PCM (scaled by 1/32768) and 32-bit IEEE float data.
    Multi-channel content is downmixed by the arithmetic mean of the
    channels, summed one channel at a time and divided by their count:
    far faster than ``mean(axis=1)`` over so short an axis, and the same
    bits wherever the sum is exact in float64, as it always is for
    16-bit samples.

    Raises MalformedRiff, UnsupportedEncoding, or EmptySignal.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedRiff(f"{path} is not a RIFF/WAVE file")

    fmt = None
    data = None
    view = memoryview(raw)  # chunks are sliced from it without a copy
    offset = 12
    while offset + 8 <= len(raw):
        chunk_id = raw[offset:offset + 4]
        (size,) = struct.unpack_from("<I", raw, offset + 4)
        body_start = offset + 8
        if body_start + size > len(raw):
            raise MalformedRiff(f"{path}: chunk {chunk_id!r} extends past end of file")
        if chunk_id == b"fmt ":
            fmt = view[body_start:body_start + size]
        elif chunk_id == b"data":
            data = view[body_start:body_start + size]
        offset = body_start + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise MalformedRiff(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise MalformedRiff(f"{path}: fmt chunk too short")

    format_code, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if channels < 1 or sample_rate == 0:
        raise MalformedRiff(f"{path}: bad fmt fields (channels={channels}, rate={sample_rate})")

    if format_code == _FMT_PCM and bits == 16:
        dtype, bytes_per = "<i2", 2
    elif format_code == _FMT_IEEE_FLOAT and bits == 32:
        dtype, bytes_per = "<f4", 4
    else:
        raise UnsupportedEncoding(
            f"{path}: format code {format_code} with {bits} bits not supported"
        )

    frame_bytes = bytes_per * channels
    n_frames = len(data) // frame_bytes
    if n_frames == 0:
        raise EmptySignal(f"{path}: data chunk holds no samples")

    values = np.frombuffer(data, dtype=dtype, count=n_frames * channels).reshape(n_frames, channels)
    # a signalling NaN warns as it is cast; SignalBuffer rejects it as NonFiniteSamples
    with np.errstate(invalid="ignore"):
        mono = values[:, 0].astype(np.float64)
        for channel in range(1, channels):
            mono += values[:, channel]
    if format_code == _FMT_PCM:
        mono /= PCM16_FULL_SCALE  # exact, as is each sum of 16-bit samples
    if channels > 1:
        mono /= channels
    return SignalBuffer(mono, float(sample_rate), source_label=str(path))


def write_wav(signal: SignalBuffer, path, encoding: str = "pcm16") -> None:
    """Write a mono WAV file; ``encoding`` is "pcm16" or "float32"."""
    if encoding == "pcm16":
        scaled = np.rint(signal.samples * PCM16_FULL_SCALE)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        format_code, bits = _FMT_PCM, 16
    elif encoding == "float32":
        payload = signal.samples.astype("<f4").tobytes()
        format_code, bits = _FMT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"unknown encoding {encoding!r}")

    rate = int(round(signal.sample_rate))
    block_align = bits // 8
    if not 1 <= rate * block_align <= _U32_MAX:  # the header holds both as u32
        raise InvalidParameter(
            f"a WAV header cannot hold a rate of {signal.sample_rate} Hz at {bits} bits"
        )
    fmt = struct.pack("<HHIIHH", format_code, 1, rate, rate * block_align, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    try:
        Path(path).write_bytes(blob)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
