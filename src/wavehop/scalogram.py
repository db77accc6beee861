"""Magnitude maps, 8-bit rendering, and on-disk formats.

The binary coefficient format ("SCG1", little-endian) is:

    magic "SCG1" | u32 rows | u32 cols | u32 hop | f64 source_rate
    | rows * f64 scale values | rows*cols complex values as (f32, f32)

PGM output is binary "P5" with maxval 255; CSV is comma-separated with
"\\n" newlines and 9 significant digits.  All writers are
byte-deterministic for a given input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CoefficientOverflow,
    InvalidHop,
    IoFailure,
    MalformedHeader,
    TruncatedPayload,
)
from .wavelet import CoefficientMatrix, ScaleGrid

MAGIC = b"SCG1"
_HEADER = struct.Struct("<III d")
LOG_FLOOR = 1e-12
F32_MAX = float(np.finfo(np.float32).max)

MAG_MODES = ("abs", "power", "log_db")


@dataclass
class ScalogramImage:
    """8-bit grayscale pixels, row-major; row 0 is the top of the image."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def magnitude(matrix: CoefficientMatrix, mode: str = "abs") -> np.ndarray:
    """Real magnitude map of a coefficient matrix.

    "abs" -> |c|, "power" -> |c|^2, "log_db" -> 20*log10(|c| + 1e-12);
    the additive floor pins zeros to exactly -240 dB.
    """
    if mode not in MAG_MODES:
        raise ValueError(f"mode must be one of {MAG_MODES}, got {mode!r}")
    mag = np.abs(matrix.values)
    if mode == "abs":
        return mag
    if mode == "power":
        return mag * mag
    return 20.0 * np.log10(mag + LOG_FLOOR)


def render(values: np.ndarray, flip_vertical: bool = True) -> ScalogramImage:
    """Map a real matrix affinely onto [0, 255], rounding half up.

    A constant matrix renders as all zeros.  With ``flip_vertical`` (the
    default) the row order is reversed, drawing input row 0 at the
    bottom.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("values must be a non-empty 2-D matrix")
    lo = values.min()
    hi = values.max()
    if hi == lo:
        pixels = np.zeros(values.shape, dtype=np.uint8)
    else:
        scaled = (values - lo) * (255.0 / (hi - lo))
        pixels = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
    if flip_vertical:
        pixels = pixels[::-1]
    return ScalogramImage(pixels)


def write_pgm(image: ScalogramImage, path) -> None:
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    _write_bytes(path, header + image.pixels.tobytes())


def write_csv(values: np.ndarray, path) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    row_format = ",".join(["%.9g"] * values.shape[1])
    lines = [row_format % tuple(row) for row in values.tolist()]
    _write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_matrix_bin(matrix: CoefficientMatrix, path) -> None:
    """Serialize a coefficient matrix; values are stored in single precision.

    Raises InvalidHop for a hop the header's u32 cannot hold, and
    CoefficientOverflow for values that are not finite or that single
    precision cannot hold; nothing is written then.
    """
    rows, cols = matrix.values.shape
    if matrix.hop > 0xFFFF_FFFF:
        raise InvalidHop(f"SCG1 stores the hop as u32, and {matrix.hop} does not fit")
    parts = matrix.values.view(np.float64)
    if parts.size and not max(parts.max(), -parts.min()) <= F32_MAX:
        raise CoefficientOverflow(
            "SCG1 stores values as complex64, and the matrix holds values that are not"
            f" finite or exceed {F32_MAX:.7g} in magnitude")
    blob = MAGIC + _HEADER.pack(rows, cols, matrix.hop, matrix.source_rate)
    blob += matrix.scale_grid.scales.astype("<f8").tobytes()
    blob += matrix.values.astype("<c8").tobytes()
    _write_bytes(path, blob)


def read_matrix_bin(path) -> CoefficientMatrix:
    """Read a matrix written by :func:`write_matrix_bin`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(raw) < 4 or raw[:4] != MAGIC:
        raise MalformedHeader(f"{path}: bad magic")
    if len(raw) < 4 + _HEADER.size:
        raise MalformedHeader(f"{path}: header truncated")
    rows, cols, hop, source_rate = _HEADER.unpack_from(raw, 4)

    scales_start = 4 + _HEADER.size
    payload_start = scales_start + rows * 8
    if len(raw) < payload_start:
        raise MalformedHeader(f"{path}: scale list truncated")
    payload_bytes = rows * cols * 8  # (f32, f32) per value
    if len(raw) < payload_start + payload_bytes:
        raise TruncatedPayload(
            f"{path}: need {payload_bytes} payload bytes, found {len(raw) - payload_start}"
        )

    scales = np.frombuffer(raw, dtype="<f8", count=rows, offset=scales_start)
    values = np.frombuffer(raw, dtype="<c8", count=rows * cols, offset=payload_start)
    try:
        return CoefficientMatrix(
            values.reshape(rows, cols).astype(np.complex128),
            hop,
            source_rate,
            ScaleGrid(scales.copy()),
        )
    except ValueError as exc:
        raise MalformedHeader(f"{path}: inconsistent header fields ({exc})") from exc


def _write_bytes(path, blob: bytes) -> None:
    try:
        Path(path).write_bytes(blob)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
