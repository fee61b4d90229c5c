"""Fairness and accuracy metrics.

Hard decisions threshold the positive-class probability at 0.5.  The
equalized-odds gap is the larger of the two per-label gaps, the strictest
of the common variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .data import check_field_types


@dataclass(frozen=True)
class GroupConfusion:
    """Positive-prediction counts per (group, true label) cell."""

    positives: np.ndarray  # [group, label] -> count predicted 1
    totals: np.ndarray  # [group, label] -> cell size

    @classmethod
    def from_predictions(cls, preds, labels, groups):
        preds = np.asarray(preds)
        labels = np.asarray(labels)
        groups = np.asarray(groups)
        positives = np.zeros((2, 2), dtype=np.int64)
        totals = np.zeros((2, 2), dtype=np.int64)
        for a in (0, 1):
            for y in (0, 1):
                cell = (groups == a) & (labels == y)
                totals[a, y] = cell.sum()
                positives[a, y] = (preds[cell] == 1).sum()
        return cls(positives, totals)

    def rate(self, group, label):
        if self.totals[group, label] == 0:
            raise ValueError(
                f"the evaluation data has no rows with group={group}, label={label}; "
                "equalized odds needs every (group, label) cell"
            )
        return self.positives[group, label] / self.totals[group, label]


@dataclass(frozen=True)
class RunMetrics:
    error_pct: Annotated[float, "lie in [0, 100]"]
    eodds: Annotated[float, "lie in [0, 1]"]
    acc_parity_pct: Annotated[float, "lie in [0, 100]"]
    error_group0_pct: Annotated[float, "lie in [0, 100]"]
    error_group1_pct: Annotated[float, "lie in [0, 100]"]

    def __post_init__(self):
        check_field_types(self)


def _hard_predictions(preds):
    preds = np.asarray(preds, dtype=np.float64)
    # a NaN fails both comparisons, so it fails the check
    if not ((preds >= 0) & (preds <= 1)).all():
        raise ValueError("predictions must be probabilities or 0/1 decisions")
    return (preds >= 0.5).astype(np.int64)


def equalized_odds_gap(preds, labels, groups) -> float:
    """Worst absolute gap of positive rates across groups, over the two labels.

    Requires every (group, label) cell to be populated.
    """
    confusion = GroupConfusion.from_predictions(_hard_predictions(preds), labels, groups)
    return float(max(abs(confusion.rate(0, y) - confusion.rate(1, y)) for y in (0, 1)))


def accuracy_parity(preds, labels, groups) -> float:
    """Absolute difference of per-group accuracies, in percentage points."""
    preds = _hard_predictions(preds)
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    accs = []
    for a in (0, 1):
        mask = groups == a
        if not mask.any():
            raise ValueError(f"group {a} missing from evaluation set")
        accs.append((preds[mask] == labels[mask]).mean())
    return float(abs(accs[0] - accs[1]) * 100.0)


def _group_error(preds, labels, groups, a):
    mask = np.asarray(groups) == a
    return float((preds[mask] != np.asarray(labels)[mask]).mean() * 100.0)


def evaluate_predictions(probs, labels, groups) -> RunMetrics:
    preds = _hard_predictions(probs)
    labels = np.asarray(labels)
    error = float((preds != labels).mean() * 100.0)
    return RunMetrics(
        error_pct=error,
        eodds=equalized_odds_gap(preds, labels, groups),
        acc_parity_pct=accuracy_parity(preds, labels, groups),
        error_group0_pct=_group_error(preds, labels, groups, 0),
        error_group1_pct=_group_error(preds, labels, groups, 1),
    )


def evaluate_model(model, data) -> RunMetrics:
    """Score a trained model on a labeled dataset."""
    return evaluate_predictions(model.predict_proba(data.features), data.labels, data.groups)

