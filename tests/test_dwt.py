import math

import numpy as np
import pytest

from wavehop import (
    DB4,
    HAAR,
    FilterBank,
    InvalidBank,
    SignalBuffer,
    TooManyLevels,
    dwt_decompose,
    dwt_scalogram,
)


def noise(n, seed):
    return SignalBuffer(np.random.default_rng(seed).standard_normal(n), 16_000.0)


class TestBanks:
    @pytest.mark.parametrize("bank", [HAAR, DB4], ids=lambda b: b.name)
    def test_unit_energy_lowpass(self, bank):
        assert abs(np.sum(bank.lowpass**2) - 1.0) < 1e-12

    @pytest.mark.parametrize("bank", [HAAR, DB4], ids=lambda b: b.name)
    def test_orthonormal_shifts(self, bank):
        # autocorrelation at even lags vanishes for an orthonormal bank
        h = bank.lowpass
        for lag in range(2, h.size, 2):
            assert abs(np.dot(h[:-lag], h[lag:])) < 1e-12

    @pytest.mark.parametrize("bank", [HAAR, DB4], ids=lambda b: b.name)
    def test_highpass_kills_constants(self, bank):
        assert abs(np.sum(bank.highpass)) < 1e-12

    def test_mismatched_taps_rejected(self):
        with pytest.raises(InvalidBank):
            FilterBank("broken", [0.7, 0.7], [0.7, -0.7, 0.1])


class TestDwtDecompose:
    def test_halving_haar_n8(self):
        out = dwt_decompose(SignalBuffer(np.arange(8.0), 16_000.0), HAAR, 3)
        assert [d.size for d in out.details] == [4, 2, 1]
        assert out.approximation.size == 1

    @pytest.mark.parametrize("n", [8, 100, 1024])
    @pytest.mark.parametrize("bank", [HAAR, DB4], ids=lambda b: b.name)
    def test_halving_invariant(self, n, bank):
        levels = min(5, int(math.log2(n)))
        out = dwt_decompose(noise(n, seed=n), bank, levels)
        for m, detail in enumerate(out.details, start=1):
            assert detail.size == math.ceil(n / 2**m)
        assert out.approximation.size == math.ceil(n / 2**levels)

    def test_constant_signal_has_zero_details(self):
        out = dwt_decompose(SignalBuffer(np.full(32, 0.7), 16_000.0), HAAR, 3)
        for detail in out.details:
            # matmul may contract with FMA, leaving sub-epsilon residue
            np.testing.assert_allclose(detail, np.zeros_like(detail), atol=1e-15)

    def test_haar_level_one_closed_form(self):
        x = np.array([1.0, 3.0, -2.0, 4.0])
        out = dwt_decompose(SignalBuffer(x, 16_000.0), HAAR, 1)
        root_half = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            out.details[0], [(1 - 3) * root_half, (-2 - 4) * root_half], rtol=1e-15
        )
        np.testing.assert_allclose(
            out.approximation, [(1 + 3) * root_half, (-2 + 4) * root_half], rtol=1e-15
        )

    @pytest.mark.parametrize("bank", [HAAR, DB4], ids=lambda b: b.name)
    @pytest.mark.parametrize("n,levels", [(64, 3), (1024, 5), (8, 3)])
    def test_energy_conservation_even_chain(self, bank, n, levels):
        sig = noise(n, seed=levels * n)
        out = dwt_decompose(sig, bank, levels)
        total = sum(np.sum(d**2) for d in out.details) + np.sum(out.approximation**2)
        reference = np.sum(sig.samples**2)
        assert abs(total - reference) / reference < 1e-9

    def test_too_many_levels(self):
        with pytest.raises(TooManyLevels):
            dwt_decompose(SignalBuffer(np.zeros(8), 16_000.0), HAAR, 4)

    def test_levels_below_one(self):
        with pytest.raises(ValueError):
            dwt_decompose(SignalBuffer(np.zeros(8), 16_000.0), HAAR, 0)


def loop_analysis(x, taps):
    n = x.size
    return np.array([sum(taps[j] * x[(2 * k + j) % n] for j in range(taps.size))
                     for k in range((n + 1) // 2)])


@pytest.mark.parametrize("bank", [HAAR, DB4], ids=["haar", "db4"])
@pytest.mark.parametrize("n,levels", [(2, 1), (3, 1), (5, 1), (7, 2), (9, 3), (17, 4),
                                      (101, 5), (1001, 6), (4096, 6)])
def test_matches_plain_loop_oracle(bank, n, levels):
    """Odd lengths and lengths below the tap count wrap the signal more than once."""
    x = noise(n, seed=n).samples
    decomp = dwt_decompose(SignalBuffer(x, 16_000.0), bank, levels)
    current = x
    for level in range(levels):
        want = loop_analysis(current, bank.highpass)
        np.testing.assert_allclose(decomp.details[level], want, rtol=0, atol=1e-13 * np.abs(want).max())
        current = loop_analysis(current, bank.lowpass)
    np.testing.assert_allclose(decomp.approximation, current, rtol=0,
                               atol=1e-13 * np.abs(current).max())


class TestDwtScalogram:
    def test_shape_and_runs(self):
        out = dwt_decompose(noise(8, seed=1), HAAR, 3)
        matrix = dwt_scalogram(out)
        assert matrix.shape == (4, 8)
        # row for level 2 is piecewise constant with run length 4
        row = matrix[1]
        assert np.all(row[:4] == row[0]) and np.all(row[4:] == row[4])

    def test_zero_decomposition(self):
        out = dwt_decompose(SignalBuffer(np.zeros(16), 16_000.0), HAAR, 2)
        np.testing.assert_array_equal(dwt_scalogram(out), np.zeros((3, 16)))

    @pytest.mark.parametrize("position", [0, 3, 4, 7])
    def test_impulse_run_covers_the_impulse(self, position):
        x = np.zeros(8)
        x[position] = 1.0
        out = dwt_decompose(SignalBuffer(x, 16_000.0), HAAR, 1)
        # Haar level-1 details pair samples (2k, 2k+1): exactly one
        # nonzero coefficient, over the impulse
        nonzero = np.flatnonzero(out.details[0])
        assert nonzero.tolist() == [position // 2]
        row = dwt_scalogram(out)[0]
        covered = np.flatnonzero(row)
        assert covered.tolist() == [2 * (position // 2), 2 * (position // 2) + 1]
        assert position in covered

    @pytest.mark.parametrize("n", [8, 9, 100])
    def test_width_matches_source_length(self, n):
        out = dwt_decompose(noise(n, seed=n), DB4, 3)
        assert dwt_scalogram(out).shape == (4, n)

    def test_run_lengths_per_level(self):
        n, levels = 64, 4
        matrix = dwt_scalogram(dwt_decompose(noise(n, seed=5), DB4, levels))
        for i in range(levels):
            run = 2 ** (i + 1)
            row = matrix[i]
            for start in range(0, n, run):
                chunk = row[start: start + run]
                assert np.all(chunk == chunk[0])
