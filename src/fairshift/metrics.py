"""Fairness and accuracy metrics from one tally.

``evaluate_predictions`` checks its inputs once, makes each row's hard
decision once (the positive-class probability thresholded at 0.5) and
counts the rows of each (group, label, decision) cell.  All five
``RunMetrics`` fields are ratios of those counts.  The equalized-odds gap
is the larger of the two per-label gaps, the strictest of the common
variants, so every (group, label) cell must hold a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .data import _binary, check_field_types


@dataclass(frozen=True)
class RunMetrics:
    error_pct: Annotated[float, "lie in [0, 100]"]
    eodds: Annotated[float, "lie in [0, 1]"]
    acc_parity_pct: Annotated[float, "lie in [0, 100]"]
    error_group0_pct: Annotated[float, "lie in [0, 100]"]
    error_group1_pct: Annotated[float, "lie in [0, 100]"]

    def __post_init__(self):
        check_field_types(self)


def evaluate_predictions(probs, labels, groups) -> RunMetrics:
    """Score positive-class probabilities (or 0/1 decisions) ``probs`` against
    binary ``labels`` within binary ``groups``."""
    probs = np.asarray(probs, dtype=np.float64)
    lengths = (len(probs), len(labels), len(groups))
    if len(set(lengths)) > 1:
        raise ValueError("probs, labels and groups must share length, got %d, %d and %d" % lengths)
    # a NaN fails both comparisons, so it fails the check
    if not ((probs >= 0) & (probs <= 1)).all():
        raise ValueError("predictions must be probabilities or 0/1 decisions")
    decisions = (probs >= 0.5).astype(np.int64)
    cells = 4 * _binary(groups, "group") + 2 * _binary(labels, "label") + decisions
    tally = np.bincount(cells, minlength=8).reshape(2, 2, 2)  # [group, label, decision]
    totals = tally.sum(axis=2)
    # reported in the order (0, 0), (1, 0), (0, 1), (1, 1) of (group, label)
    empty = np.argwhere(totals.T == 0)
    if len(empty):
        label, group = empty[0]
        raise ValueError(
            f"the evaluation data has no rows with group={group}, label={label}; "
            "equalized odds needs every (group, label) cell"
        )
    rates = tally[:, :, 1] / totals  # [group, label] -> share decided 1
    correct = tally[:, 0, 0] + tally[:, 1, 1]
    wrong = tally[:, 0, 1] + tally[:, 1, 0]
    sizes = correct + wrong
    accs = correct / sizes
    return RunMetrics(
        error_pct=float(wrong.sum() / sizes.sum() * 100.0),
        eodds=float(max(abs(rates[0, y] - rates[1, y]) for y in (0, 1))),
        acc_parity_pct=float(abs(accs[0] - accs[1]) * 100.0),
        error_group0_pct=float(wrong[0] / sizes[0] * 100.0),
        error_group1_pct=float(wrong[1] / sizes[1] * 100.0),
    )


def evaluate_model(model, data) -> RunMetrics:
    """Score a trained model on a labeled dataset."""
    return evaluate_predictions(model.predict_proba(data.features), data.labels, data.groups)
