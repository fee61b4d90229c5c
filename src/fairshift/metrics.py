"""Fairness and accuracy metrics, plus model diagnostics.

Hard decisions threshold the positive-class probability at 0.5.  The
equalized-odds gap defaults to the max-over-labels convention (the
strictest of the common variants); the averaged variant is available via
``convention="mean"`` so reported numbers can be probed under both.
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


def equalized_odds_gap(preds, labels, groups, convention="max") -> float:
    """Worst (or mean) absolute gap of positive rates across groups, per label.

    Requires every (group, label) cell to be populated.
    """
    confusion = GroupConfusion.from_predictions(_hard_predictions(preds), labels, groups)
    gaps = [abs(confusion.rate(0, y) - confusion.rate(1, y)) for y in (0, 1)]
    if convention == "max":
        return float(max(gaps))
    if convention == "mean":
        return float(np.mean(gaps))
    raise ValueError(f"unknown convention {convention!r}; use 'max' or 'mean'")


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


# -- diagnostics -----------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityRatioReport:
    """Per-sample, per-class probability ratios between two predictors."""

    ratios: np.ndarray  # [n, 2]; column y is P_b(y|x) / P_a(y|x)
    threshold: float
    fraction_above: float
    count_above: int


def probability_ratio_diagnostic(
    model_a, model_b, eval_set, threshold=5.0
) -> ProbabilityRatioReport:
    """Compare class probabilities of two predictors sample by sample.

    Typically ``model_a`` is trained on source data only and ``model_b``
    on held-out target data; the report summarizes how often the ratio
    exceeds ``threshold``.
    """
    pa1 = _proba(model_a, eval_set.features)
    pb1 = _proba(model_b, eval_set.features)
    ratios = np.column_stack([(1.0 - pb1) / (1.0 - pa1), pb1 / pa1])
    above = ratios > threshold
    return ProbabilityRatioReport(
        ratios=ratios,
        threshold=threshold,
        fraction_above=float(above.mean()),
        count_above=int(above.sum()),
    )


def _proba(model, features):
    return model.predict_proba(np.asarray(features, dtype=np.float64))


@dataclass(frozen=True)
class RatioHistogramReport:
    """Distribution of learned weight-network outputs on each side."""

    target_hist: tuple
    source_hist: tuple
    target_mean: float
    source_mean: float
    target_inv_mean: float
    source_inv_mean: float


def fw_ratio_histogram(weight_net, encoder, source, target, bins=20) -> RatioHistogramReport:
    """Histogram the weight network over source and target encodings.

    A converged run keeps the target mean near 1 and the source
    reciprocal mean near 1, with target-side mass mostly in (0, 1] and
    source-side mass mostly above 1.
    """
    fw_target = weight_net.ratios(encoder.representations(target.features))
    fw_source = weight_net.ratios(encoder.representations(source.features))
    lo = min(fw_target.min(), fw_source.min())
    hi = max(fw_target.max(), fw_source.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    return RatioHistogramReport(
        target_hist=(np.histogram(fw_target, bins=edges)[0], edges),
        source_hist=(np.histogram(fw_source, bins=edges)[0], edges),
        target_mean=float(fw_target.mean()),
        source_mean=float(fw_source.mean()),
        target_inv_mean=float((1.0 / fw_target).mean()),
        source_inv_mean=float((1.0 / fw_source).mean()),
    )

