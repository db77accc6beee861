"""Shared test helpers."""

import os
import resource
import struct
import subprocess
import sys
import wave

import numpy as np

import wavehop


def max_rel_err(actual, reference):
    """Max absolute deviation relative to the reference's largest magnitude."""
    actual = np.asarray(actual)
    reference = np.asarray(reference)
    scale = np.max(np.abs(reference))
    if scale == 0:
        return float(np.max(np.abs(actual))) if actual.size else 0.0
    return float(np.max(np.abs(actual - reference)) / scale)


def assert_rel_close(actual, reference, tol):
    err = max_rel_err(actual, reference)
    assert err <= tol, f"relative error {err:.3e} exceeds {tol:.1e}"


def write_reference_wav(path, frames, rate):
    """Write 16-bit PCM via the stdlib wave module (independent of read_wav).

    ``frames`` is an int16 array, shape (n,) for mono or (n, channels).
    """
    frames = np.asarray(frames, dtype="<i2")
    channels = 1 if frames.ndim == 1 else frames.shape[1]
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(frames.tobytes())


def write_float32_wav(path, samples, rate):
    """Write 32-bit IEEE float WAV bytes directly (any value, NaN included).

    ``samples`` has shape (n,) for mono or (n, channels).
    """
    samples = np.asarray(samples, dtype="<f4")
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    payload = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * 4 * channels, 4 * channels, 32)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as handle:
        handle.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def child_env():
    """The environment with the directory of the imported ``wavehop`` first on PYTHONPATH."""
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(wavehop.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_parent, env.get("PYTHONPATH")) if p)
    return env


def run_wavehop(args, address_space=None):
    """``python -m wavehop *args`` in a child process, its address space capped if given."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "wavehop", *args], env=child_env(),
                          capture_output=True, text=True,
                          preexec_fn=None if address_space is None else limit)
