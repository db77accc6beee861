import struct

import numpy as np
import pytest

from wavehop import (
    CoefficientMatrix,
    CoefficientOverflow,
    InvalidHop,
    MalformedHeader,
    ScaleGrid,
    TruncatedPayload,
    magnitude,
    read_matrix_bin,
    render,
    write_csv,
    write_matrix_bin,
    write_pgm,
)


def matrix_of(values, hop=1, rate=16_000.0):
    values = np.atleast_2d(np.asarray(values, dtype=np.complex128))
    grid = ScaleGrid(np.arange(1.0, values.shape[0] + 1.0))
    return CoefficientMatrix(values, hop, rate, grid)


def random_matrix(rng, rows=None, cols=None):
    rows = rows or int(rng.integers(1, 9))
    cols = cols or int(rng.integers(1, 17))
    # draw in float32 so the single-precision file format is lossless
    re = rng.standard_normal((rows, cols), dtype=np.float32)
    im = rng.standard_normal((rows, cols), dtype=np.float32)
    values = re.astype(np.float64) + 1j * im.astype(np.float64)
    scales = np.sort(rng.uniform(0.5, 100.0, rows))
    while np.any(np.diff(scales) <= 0):
        scales = np.sort(rng.uniform(0.5, 100.0, rows))
    return CoefficientMatrix(
        values, int(rng.integers(1, 300)), float(rng.uniform(100, 48_000)), ScaleGrid(scales)
    )


class TestMagnitude:
    def test_abs(self):
        out = magnitude(matrix_of([[3 + 4j]]), "abs")
        assert out[0, 0] == 5.0

    def test_power(self):
        out = magnitude(matrix_of([[3 + 4j]]), "power")
        assert out[0, 0] == 25.0

    def test_log_floor_exactly_minus_240(self):
        out = magnitude(matrix_of([[0.0]]), "log_db")
        assert out[0, 0] == -240.0

    def test_log_monotone_in_magnitude(self):
        mags = np.sort(np.random.default_rng(0).uniform(0, 10, 50))
        out = magnitude(matrix_of([mags]), "log_db")[0]
        assert np.all(np.diff(out) >= 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            magnitude(matrix_of([[1.0]]), "sqrt")


class TestRender:
    def test_constant_matrix_is_black(self):
        image = render(np.full((3, 4), 2.5))
        assert image.pixels.shape == (3, 4)
        assert np.all(image.pixels == 0)

    def test_endpoints(self):
        image = render(np.array([[0.0, 1.0]]), flip_vertical=False)
        assert image.pixels.tolist() == [[0, 255]]

    def test_half_rounds_up(self):
        image = render(np.array([[0.0, 0.5, 1.0]]), flip_vertical=False)
        assert image.pixels.tolist() == [[0, 128, 255]]

    def test_flip_reverses_rows(self):
        values = np.array([[0.0, 0.0], [1.0, 1.0]])
        top_first = render(values, flip_vertical=False)
        flipped = render(values, flip_vertical=True)
        assert top_first.pixels[0].tolist() == [0, 0]
        assert flipped.pixels[0].tolist() == [255, 255]

    def test_output_range_and_extremes(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 40))
        image = render(values)
        assert image.pixels.min() == 0
        assert image.pixels.max() == 255

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render(np.zeros((0, 3)))


class TestPgm:
    def test_exact_bytes_for_2x2(self, tmp_path):
        image = render(np.array([[0.0, 1.0], [2.0, 3.0]]), flip_vertical=False)
        path = tmp_path / "tiny.pgm"
        write_pgm(image, path)
        blob = path.read_bytes()
        header = b"P5\n2 2\n255\n"
        assert blob[: len(header)] == header
        assert len(blob) == len(header) + 4

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        image = render(rng.standard_normal((5, 7)))
        write_pgm(image, tmp_path / "a.pgm")
        write_pgm(image, tmp_path / "b.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


class TestCsv:
    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "v.csv"
        write_csv(np.array([[1.0 / 3.0, 2.0]]), path)
        assert path.read_text() == "0.333333333,2\n"

    def test_deterministic(self, tmp_path):
        values = np.random.default_rng(3).standard_normal((4, 5))
        write_csv(values, tmp_path / "a.csv")
        write_csv(values, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_row_major_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
        assert path.read_text() == "1,2\n3,4\n"

    def test_bytes_match_per_element_format(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((64, 1250)) * 10.0 ** rng.integers(-300, 301, (64, 1250))
        values[0, :7] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324]
        values[1, :4] = [1e300, -1e-300, 1.0 / 3.0, 123456789.5]
        path = tmp_path / "wide.csv"
        write_csv(values, path)
        expected = "".join(",".join(format(v, ".9g") for v in row) + "\n" for row in values)
        assert path.read_bytes() == expected.encode("ascii")


class TestMatrixFile:
    def test_hop_beyond_u32_is_a_typed_error(self, tmp_path):
        path = tmp_path / "m.scg1"
        write_matrix_bin(matrix_of([[1j]], hop=2**32 - 1), path)
        assert read_matrix_bin(path).hop == 2**32 - 1
        with pytest.raises(InvalidHop):
            write_matrix_bin(matrix_of([[1j]], hop=2**32), tmp_path / "n.scg1")
        assert not (tmp_path / "n.scg1").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf), 3.5e38, 1e300j])
    def test_value_single_precision_cannot_hold_is_a_typed_error(self, tmp_path, value):
        largest = float(np.finfo(np.float32).max)
        path = tmp_path / "m.scg1"
        write_matrix_bin(matrix_of([[largest, -largest * 1j]]), path)
        assert read_matrix_bin(path).values[0, 0] == largest
        with pytest.raises(CoefficientOverflow):
            write_matrix_bin(matrix_of([[1.0, value]]), tmp_path / "n.scg1")
        assert not (tmp_path / "n.scg1").exists()

    @pytest.mark.parametrize("word", [0x7FC00000, 0xFF950260, 0x7F800000, 0xFF800000],
                             ids=["quiet_nan", "signalling_nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", [0, 3])  # the first real part, the last imaginary part
    def test_payload_value_that_is_not_finite_is_a_typed_error(self, tmp_path, word, part):
        path = tmp_path / "m.scg1"
        write_matrix_bin(matrix_of([[1 + 2j, 3 - 4j]]), path)
        blob = bytearray(path.read_bytes())
        blob[32 + 4 * part:36 + 4 * part] = struct.pack("<I", word)
        path.write_bytes(bytes(blob))
        with pytest.raises(CoefficientOverflow, match="not finite"):
            read_matrix_bin(path)

    def test_round_trip_fields(self, tmp_path):
        matrix = random_matrix(np.random.default_rng(4))
        path = tmp_path / "m.scg1"
        write_matrix_bin(matrix, path)
        loaded = read_matrix_bin(path)
        np.testing.assert_array_equal(loaded.values, matrix.values)
        np.testing.assert_array_equal(loaded.scale_grid.scales, matrix.scale_grid.scales)
        assert loaded.hop == matrix.hop
        assert loaded.source_rate == matrix.source_rate

    def test_round_trip_many_random(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(25):
            matrix = random_matrix(rng)
            path = tmp_path / f"m{i}.scg1"
            write_matrix_bin(matrix, path)
            loaded = read_matrix_bin(path)
            np.testing.assert_array_equal(loaded.values, matrix.values)

    def test_layout_matches_declared_format(self, tmp_path):
        matrix = matrix_of([[1 + 2j, 3 - 4j]], hop=7, rate=125.0)
        path = tmp_path / "m.scg1"
        write_matrix_bin(matrix, path)
        blob = path.read_bytes()
        assert blob[:4] == b"SCG1"
        rows, cols, hop = struct.unpack_from("<III", blob, 4)
        (rate,) = struct.unpack_from("<d", blob, 16)
        assert (rows, cols, hop, rate) == (1, 2, 7, 125.0)
        (scale,) = struct.unpack_from("<d", blob, 24)
        assert scale == 1.0
        floats = struct.unpack_from("<4f", blob, 32)
        assert floats == (1.0, 2.0, 3.0, -4.0)
        assert len(blob) == 32 + 16

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.scg1"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(MalformedHeader):
            read_matrix_bin(path)

    def test_truncated_payload(self, tmp_path):
        matrix = random_matrix(np.random.default_rng(6), rows=2, cols=8)
        path = tmp_path / "m.scg1"
        write_matrix_bin(matrix, path)
        blob = path.read_bytes()
        (tmp_path / "short.scg1").write_bytes(blob[:-5])
        with pytest.raises(TruncatedPayload):
            read_matrix_bin(tmp_path / "short.scg1")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.scg1"
        path.write_bytes(b"SCG1\x01\x00")
        with pytest.raises(MalformedHeader):
            read_matrix_bin(path)
