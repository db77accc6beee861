"""Seeded inputs for the two workloads.

Everything here depends only on numpy and the workload seed, never on
wavehop: the program under test receives the generated bytes and arrays
and nothing else.  The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

RATE = 16_000

# corpus_scan: same-length files, a fixed mix of encodings and labels,
# and a fixed share of malformed files (2 of 12).
CORPUS_SAMPLES = 10 * RATE
CORPUS_FILES = 12
CORPUS_ANOMALOUS = 4
CORPUS_MALFORMED = {5: ("truncated", "MalformedRiff"), 11: ("pcm24", "UnsupportedEncoding")}

# hop_sweep: distinct lengths in [HOP_MIN, HOP_MAX], near the log-centres of strata,
# stratified so every round, and so every run, does nearly the same work.
HOP_MIN = 2_000
HOP_MAX = 320_000
HOP_STRATA = 9  # odd, so the median request falls inside one stratum
HOP_WARMUP_SAMPLES = 1_500  # outside the range, so no run length repeats it
HOP_JITTER = 1 / 16  # spread of a stratum's lengths about its centre, as a share of its width

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3


@dataclass(frozen=True)
class CorpusFile:
    """One corpus_scan input: WAV bytes plus what reading it should give."""

    name: str
    blob: bytes
    label: int | None  # 1 anomalous, 0 normal, None for malformed files
    expected_error: str | None  # WavehopError subclass name for malformed files


def wav_bytes(frames: np.ndarray, rate: int, encoding: str) -> bytes:
    """RIFF/WAVE bytes for ``frames`` (shape (n,) or (n, channels)) in [-1, 1].

    ``encoding`` is "pcm16", "float32" or "pcm24"; wavehop reads the first
    two and rejects the third.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 1:
        frames = frames[:, None]
    channels = frames.shape[1]
    if encoding == "pcm16":
        code, bits = _FMT_PCM, 16
        payload = np.clip(np.rint(frames * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "float32":
        code, bits = _FMT_IEEE_FLOAT, 32
        payload = frames.astype("<f4").tobytes()
    elif encoding == "pcm24":
        code, bits = _FMT_PCM, 24
        ints = np.clip(np.rint(frames * 8388608.0), -8388608, 8388607).astype("<i4")
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", code, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def machine_sound(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hum harmonics over broadband noise: the 'normal' background."""
    t = np.arange(n) / RATE
    hum = rng.uniform(50.0, 120.0)
    x = 0.05 * rng.standard_normal(n)
    for k in range(1, 5):
        x += (0.08 / k) * np.sin(2 * np.pi * k * hum * t + rng.uniform(0, 2 * np.pi))
    return x


def tone_bursts(rng: np.random.Generator, n: int, count: int = 3) -> np.ndarray:
    """Hann-windowed tone bursts: the anomaly added to 'anomalous' files."""
    out = np.zeros(n)
    for _ in range(count):
        width = int(rng.uniform(0.1, 0.4) * RATE)
        start = int(rng.integers(0, n - width))
        freq = rng.uniform(800.0, 4000.0)
        k = np.arange(width)
        out[start:start + width] += 0.3 * np.hanning(width) * np.sin(2 * np.pi * freq * k / RATE)
    return out


def make_corpus(seed: int) -> list[CorpusFile]:
    """The corpus_scan files: 10 decodable (pcm16 mono / float32 stereo), 2 malformed."""
    rng = np.random.default_rng([seed, 1])
    decodable = [i for i in range(CORPUS_FILES) if i not in CORPUS_MALFORMED]
    anomalous = set(rng.choice(decodable, CORPUS_ANOMALOUS, replace=False).tolist())
    files = []
    for i in range(CORPUS_FILES):
        x = machine_sound(rng, CORPUS_SAMPLES)
        if i in CORPUS_MALFORMED:
            kind, error = CORPUS_MALFORMED[i]
            if kind == "truncated":  # data chunk declares more bytes than the file holds
                full = wav_bytes(x, RATE, "pcm16")
                blob = full[: len(full) * 3 // 5]
            else:
                blob = wav_bytes(x, RATE, "pcm24")
            files.append(CorpusFile(f"file{i:02d}_{kind}.wav", blob, None, error))
            continue
        label = int(i in anomalous)
        if label:
            x = x + tone_bursts(rng, CORPUS_SAMPLES)
        if i % 2 == 0:
            blob = wav_bytes(x, RATE, "pcm16")
        else:
            stereo = np.stack([x, x + 0.01 * rng.standard_normal(CORPUS_SAMPLES)], axis=1)
            blob = wav_bytes(stereo, RATE, "float32")
        files.append(CorpusFile(f"file{i:02d}.wav", blob, label, None))
    return files


def corpus_warmup_blob(seed: int) -> bytes:
    """A decodable corpus-length file that is not one of the run's files."""
    return wav_bytes(machine_sound(np.random.default_rng([seed, 2]), CORPUS_SAMPLES), RATE, "pcm16")


def corpus_pass_order(seed: int, pass_index: int) -> list[int]:
    """File order for one pass over the corpus."""
    return np.random.default_rng([seed, 3, pass_index]).permutation(CORPUS_FILES).tolist()


def _radical_inverse(k: int) -> float:
    """Base-2 van der Corput point: any prefix of rounds spreads evenly."""
    out, bit = 0.0, 0.5
    while k:
        if k & 1:
            out += bit
        k >>= 1
        bit /= 2
    return out


class HopLengths:
    """Rounds of HOP_STRATA distinct signal lengths for hop_sweep.

    Round r puts one length in each log-spaced stratum, at the stratum's
    log-centre moved by (frac(radical_inverse(r) + rotation_i) - 1/2) *
    HOP_JITTER of its width, with a seeded rotation per stratum.  Every
    round thus holds nearly the same lengths and costs nearly the same,
    so the latency at each rank does not depend on how many rounds a
    run completes, and barely on the seed.  Round 0 holds exactly
    HOP_MIN and HOP_MAX.  No length is ever repeated within a run.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rotation = np.random.default_rng([seed, 4]).random(HOP_STRATA)
        self._used: set[int] = set()
        self._round = 0

    def next_round(self) -> list[int]:
        r = self._round
        self._round += 1
        span = math.log(HOP_MAX / HOP_MIN)
        lengths = []
        for i in range(HOP_STRATA):
            if r == 0 and i == 0:
                n = HOP_MIN
            elif r == 0 and i == HOP_STRATA - 1:
                n = HOP_MAX
            else:
                u = 0.5 + HOP_JITTER * ((_radical_inverse(r) + self._rotation[i]) % 1.0 - 0.5)
                n = round(HOP_MIN * math.exp(span * (i + u) / HOP_STRATA))
            step = -1 if n >= HOP_MAX else 1
            while n in self._used:
                n += step
            self._used.add(n)
            lengths.append(n)
        order = np.random.default_rng([self.seed, 5, r]).permutation(HOP_STRATA)
        return [lengths[j] for j in order]


def hop_signal(seed: int, length: int) -> np.ndarray:
    """The hop_sweep signal of a given length: background plus one burst."""
    rng = np.random.default_rng([seed, 6, length])
    x = machine_sound(rng, length)
    if length > RATE:
        x += tone_bursts(rng, length, count=1)
    return x
