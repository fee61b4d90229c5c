"""Covariate-shifted train/val/test partitions via exponential tilting.

Rows are projected onto the first principal component of the (centered)
feature matrix; test rows are then drawn without replacement with
probability proportional to ``exp(gamma * (projection - b))`` where ``b``
is a percentile anchor of the projections.  The remaining rows split
uniformly into train and validation, giving 5:1:4 at the defaults.  In
asymmetric mode the tilt applies to a single group (with the anchor
recomputed inside that group) and the other group is partitioned
uniformly at random with the same fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .data import check_field_types


@dataclass(frozen=True)
class ShiftConfig:
    gamma: Annotated[float, "be >= 0"] = 10.0
    percentile: Annotated[float, "lie in (0, 100)"] = 60.0
    test_fraction: Annotated[float, "lie in (0, 1)"] = 0.4
    val_fraction_of_train: Annotated[float, "lie in (0, 1)"] = 1.0 / 6.0
    asymmetric_group: Annotated[int | None, "be 0 or 1"] = None
    seed: Annotated[int, "be >= 0"] = 0

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class SplitResult:
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    projection: np.ndarray
    densities: np.ndarray
    anchor: float
    log_normalizer: float

    def counts(self):
        return {
            "train": len(self.train_idx),
            "val": len(self.val_idx),
            "test": len(self.test_idx),
        }


def first_principal_projection(features) -> np.ndarray:
    """Project centered rows onto the unit top eigenvector of the covariance.

    The eigenvector sign is fixed so its largest-magnitude component is
    positive, making the projection deterministic.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    if not np.any(cov):
        raise ValueError("zero covariance: all rows identical")
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvecs[:, -1]
    lead = np.argmax(np.abs(top))
    if top[lead] < 0:
        top = -top
    return centered @ top


def tilt_densities(projection, gamma, percentile=60.0) -> np.ndarray:
    """Sampling probabilities proportional to exp(gamma * (p - b))."""
    densities, _, _ = _tilt(projection, gamma, percentile)
    return densities


def _tilt(projection, gamma, percentile):
    p = np.asarray(projection, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("projection must be finite")
    b = float(np.percentile(p, percentile))
    with np.errstate(over="ignore"):
        exponent = gamma * (p - b)
    if not np.all(np.isfinite(exponent)):
        raise ValueError(f"gamma {gamma} overflows the tilt exponent gamma * (p - b)")
    shifted = exponent - exponent.max()
    weights = np.exp(shifted)
    total = weights.sum()
    # log of the empirical normalizer sum_i exp(gamma * (p_i - b))
    log_normalizer = float(np.log(total) + exponent.max())
    return weights / total, b, log_normalizer


def _partition_counts(n, cfg):
    if n < 3:
        raise ValueError(
            f"splitting needs at least 3 rows (in each group, if asymmetric) to fill "
            f"train, validation and test, got {n}"
        )
    n_test = int(round(cfg.test_fraction * n))
    n_test = min(max(n_test, 1), n - 2)
    remaining = n - n_test
    n_val = int(round(cfg.val_fraction_of_train * remaining))
    n_val = min(max(n_val, 1), remaining - 1)
    return n_test, n_val


def _draw(rng, indices, densities, n_test, n_val):
    if np.count_nonzero(densities) < n_test:
        raise ValueError(
            f"gamma is so large that fewer than {n_test} rows keep a nonzero test density"
        )
    test = rng.choice(indices, size=n_test, replace=False, p=densities)
    rest = np.setdiff1d(indices, test, assume_unique=False)
    rest = rng.permutation(rest)
    return rest[n_val:], rest[:n_val], test


def split(data, cfg: ShiftConfig) -> SplitResult:
    """Partition a dataset into shifted test and uniform train/val indices.

    Each stratum (all rows, or in asymmetric mode each group) is partitioned
    on its own; only the tilted one draws its test rows by the tilt.
    """
    features = data.features
    n = features.shape[0]
    projection = first_principal_projection(features)
    rng = np.random.default_rng(cfg.seed)

    tilted, others = np.arange(n), []
    if cfg.asymmetric_group is not None:
        shifted_mask = np.asarray(data.groups) == cfg.asymmetric_group
        if not shifted_mask.any():
            raise ValueError(f"group {cfg.asymmetric_group} absent from dataset")
        if shifted_mask.all():
            raise ValueError("asymmetric split needs both groups present")
        tilted, other_idx = np.flatnonzero(shifted_mask), np.flatnonzero(~shifted_mask)
        others = [(other_idx, np.full(len(other_idx), 1.0 / len(other_idx)))]
    dens_tilted, anchor, log_z = _tilt(projection[tilted], cfg.gamma, cfg.percentile)
    # a pool-level density: each stratum's density scaled by its share of the rows
    densities = np.zeros(n)
    parts = []
    for indices, dens in [(tilted, dens_tilted), *others]:
        parts.append(_draw(rng, indices, dens, *_partition_counts(len(indices), cfg)))
        densities[indices] = dens * (len(indices) / n)
    train, val, test = (np.sort(np.concatenate(part)) for part in zip(*parts))

    return SplitResult(
        train_idx=train,
        val_idx=val,
        test_idx=test,
        projection=projection,
        densities=densities,
        anchor=anchor,
        log_normalizer=log_z,
    )


def split_summary(result: SplitResult, cfg: ShiftConfig) -> dict:
    """JSON-ready summary of a split (anchor, normalizer, gamma, counts)."""
    z = float(np.exp(result.log_normalizer))
    return {
        "gamma": cfg.gamma,
        "percentile": cfg.percentile,
        "b": result.anchor,
        "z": z if np.isfinite(z) else None,
        "log_z": result.log_normalizer,
        "seed": cfg.seed,
        "asymmetric_group": cfg.asymmetric_group,
        "anchor_within_group": cfg.asymmetric_group is not None,
        "counts": result.counts(),
    }
