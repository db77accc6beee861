import numpy as np
import pytest

from wavehop import (
    DegenerateLabels,
    InvalidParameter,
    LabeledScores,
    MorletParams,
    SignalBuffer,
    auc_roc,
    cwt_fft,
    energy_score,
    make_scale_grid,
)


def pairwise_auc_oracle(scores, labels):
    """Exhaustive positive/negative pair comparison with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def random_instance(rng):
    n = int(rng.integers(2, 201))
    if rng.random() < 0.5:
        scores = rng.choice(np.linspace(0, 1, 7), size=n)  # heavy ties
    else:
        scores = rng.standard_normal(n)
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1  # guarantee both classes
    return scores, labels


class TestAucRoc:
    def test_perfect_separation(self):
        data = LabeledScores([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc_roc(data) == 1.0

    def test_all_ties_give_half(self):
        data = LabeledScores([0.4] * 6, [1, 0, 1, 0, 0, 1])
        assert auc_roc(data) == 0.5

    def test_mixed_ties_match_enumeration(self):
        scores = [0.3, 0.5, 0.5, 0.7]
        labels = [0, 1, 0, 1]
        expected = pairwise_auc_oracle(scores, labels)
        assert auc_roc(LabeledScores(scores, labels)) == expected
        assert expected == 0.875

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            scores, labels = random_instance(rng)
            got = auc_roc(LabeledScores(scores, labels))
            assert got == pairwise_auc_oracle(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        scores, labels = random_instance(rng)
        base = auc_roc(LabeledScores(scores, labels))
        assert auc_roc(LabeledScores(np.exp(scores), labels)) == base
        assert auc_roc(LabeledScores(3.0 * scores + 11.0, labels)) == base

    def test_negation_symmetry_without_ties(self):
        rng = np.random.default_rng(10)
        scores = rng.permutation(np.arange(40, dtype=float))
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        data = LabeledScores(scores, labels)
        mirrored = LabeledScores(-scores, labels)
        assert auc_roc(data) + auc_roc(mirrored) == 1.0

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auc_roc(LabeledScores([0.1, 0.2], [1, 1]))
        with pytest.raises(DegenerateLabels):
            auc_roc(LabeledScores([0.1, 0.2], [0, 0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledScores([0.1], [0, 1])
        with pytest.raises(ValueError):
            LabeledScores([0.1, 0.2], [0, 2])
        with pytest.raises(InvalidParameter):
            LabeledScores([float("nan"), 0.2], [0, 1])


class TestEnergyScore:
    def test_zero_matrix(self):
        from wavehop import CoefficientMatrix, ScaleGrid

        matrix = CoefficientMatrix(np.zeros((2, 3), complex), 1, 16_000.0, ScaleGrid([1.0, 2.0]))
        assert energy_score(matrix) == 0.0

    def test_single_entry(self):
        from wavehop import CoefficientMatrix, ScaleGrid

        matrix = CoefficientMatrix(np.array([[3 + 4j]]), 1, 16_000.0, ScaleGrid([1.0]))
        assert energy_score(matrix) == 25.0

    def test_quadratic_in_amplitude(self):
        rng = np.random.default_rng(11)
        params = MorletParams()
        grid = make_scale_grid(300.0, 5000.0, 8, 16_000.0, params)
        x = SignalBuffer(rng.standard_normal(800), 16_000.0)
        doubled = SignalBuffer(2.0 * x.samples, 16_000.0)
        ratio = energy_score(cwt_fft(doubled, grid, params)) / energy_score(
            cwt_fft(x, grid, params)
        )
        assert ratio == pytest.approx(4.0, rel=1e-9)
