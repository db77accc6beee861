"""Evaluation utilities: AUC-ROC and a trivial energy anomaly score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, InvalidParameter
from .wavelet import CoefficientMatrix


@dataclass
class LabeledScores:
    """Anomaly scores with binary ground truth (1 = anomalous)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise InvalidParameter("scores and labels must be 1-D and the same length")
        if self.scores.size == 0:
            raise DegenerateLabels("need at least one scored example")
        if not np.isin(self.labels, (0, 1)).all():
            raise DegenerateLabels("labels must be 0 or 1")
        if not np.isfinite(self.scores).all():
            raise InvalidParameter("scores must be finite")


def auc_roc(data: LabeledScores) -> float:
    """Probability a positive outranks a negative, ties at half credit.

    Computed from the rank-sum (Mann-Whitney) form with average ranks,
    which equals the pairwise definition exactly, ties included.
    """
    positives = int(data.labels.sum())
    negatives = data.labels.size - positives
    if positives == 0 or negatives == 0:
        raise DegenerateLabels("need at least one positive and one negative label")
    ranks = _average_ranks(data.scores)
    u = ranks[data.labels == 1].sum() - positives * (positives + 1) / 2.0
    return float(u / (positives * negatives))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # ties share the mean of the 1-based ranks they span
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    high = np.cumsum(counts)
    low = high - counts + 1
    return ((low + high) / 2.0)[inverse]


def energy_score(matrix: CoefficientMatrix) -> float:
    """Mean squared coefficient magnitude; quadratic in signal amplitude."""
    v = matrix.values
    return float(np.mean(v.real * v.real + v.imag * v.imag))
