"""Tabular datasets: CSV ingestion, z-score normalization, synthetic generators.

Datasets are immutable after construction (arrays are write-protected),
so they can be shared read-only across concurrently running experiments.
CSV files carry a header row, numeric feature columns, one ``group``
column and one ``label`` column, both binary; the label column is absent
for unlabeled files.  A sidecar mapping may override the inferred
per-column kind (a column is treated as categorical iff its distinct
values are a subset of {0, 1}).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import typing
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


def _freeze(arr):
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


def _binary(values, name):
    """``values`` as a frozen int64 array; checked before the cast, which
    would truncate a 0.5 to 0."""
    values = np.asarray(values)
    if not np.isin(values, (0.0, 1.0)).all():
        bad = values[~np.isin(values, (0.0, 1.0))][0]
        raise ValueError(f"{name} column must contain only 0 or 1, found {bad.item()}")
    return _freeze(values.astype(np.int64, copy=False))


_NUMBERS = {int: numbers.Integral, float: numbers.Real}


def check_field_types(obj):
    """Raise one ``ValueError`` naming the first field of dataclass ``obj`` that
    does not fit its annotation.

    An int fits ``float``, a bool fits no field (none holds a bool), each
    entry of a ``tuple[X, ...]`` field must fit ``X``, and a number must be
    finite.
    """
    for name, hint in typing.get_type_hints(type(obj)).items():
        values = [getattr(obj, name)]
        if typing.get_origin(hint) is tuple:
            if not isinstance(values[0], tuple):
                raise ValueError(f"{name} must be a tuple, got {values[0]!r}")
            name, hint, values = f"{name} entries", typing.get_args(hint)[0], values[0]
        kinds = tuple(_NUMBERS.get(arm, arm) for arm in typing.get_args(hint) or (hint,))
        for value in values:
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


def build_from_dict(cls, values, kind=None):
    """``cls(**values)``, or one ``ValueError`` naming the unknown or missing keys.

    ``kind`` names the mapping in the message; it defaults to the class name.
    """
    kind = kind or cls.__name__
    if not isinstance(values, dict):
        raise ValueError(f"{kind} must be a mapping, got {values!r}")
    rejected = set(values) - {f.name for f in fields(cls)}
    if rejected:
        raise ValueError(f"unknown {kind} keys: {sorted(rejected)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"missing {kind} keys: {missing}")
    return cls(**values)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with binary group attribute and binary label."""

    features: np.ndarray
    groups: np.ndarray
    labels: np.ndarray
    feature_kinds: tuple

    def __post_init__(self):
        features = _freeze(np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "feature_kinds", tuple(self.feature_kinds))
        n, d = features.shape if features.ndim == 2 else (0, 0)
        if n < 1 or d < 1:
            raise ValueError(f"need a non-empty 2-D feature matrix, got {features.shape}")
        if len(self.groups) != n or len(self.labels) != n:
            raise ValueError("features, groups and labels must share length")
        object.__setattr__(self, "groups", _binary(self.groups, "group"))
        object.__setattr__(self, "labels", _binary(self.labels, "label"))
        if len(self.feature_kinds) != d:
            raise ValueError("feature_kinds length must equal feature count")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def subset(self, index) -> "LabeledDataset":
        index = np.asarray(index)
        return LabeledDataset(
            self.features[index], self.groups[index], self.labels[index], self.feature_kinds
        )

    def without_labels(self) -> "UnlabeledDataset":
        return UnlabeledDataset(self.features, self.groups)


@dataclass(frozen=True)
class UnlabeledDataset:
    """Feature matrix with group attribute only (deployment-time data)."""

    features: np.ndarray
    groups: np.ndarray

    def __post_init__(self):
        features = _freeze(np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "features", features)
        if features.ndim != 2 or features.shape[0] < 2:
            raise ValueError("unlabeled dataset needs at least 2 rows")
        if len(self.groups) != features.shape[0]:
            raise ValueError("features and groups must share length")
        object.__setattr__(self, "groups", _binary(self.groups, "group"))

    @property
    def m(self):
        return self.features.shape[0]

    def has_group(self, g) -> bool:
        return bool((self.groups == g).any())

    def subset(self, index) -> "UnlabeledDataset":
        index = np.asarray(index)
        return UnlabeledDataset(self.features[index], self.groups[index])


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column means and strictly positive stds (categorical: 0/1)."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = _freeze(np.asarray(self.means, dtype=np.float64))
        stds = _freeze(np.asarray(self.stds, dtype=np.float64))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        if (stds <= 0).any():
            raise ValueError("stds must be strictly positive")


def infer_feature_kinds(features, overrides=None) -> tuple:
    """Columns whose distinct values are within {0, 1} are categorical."""
    features = np.asarray(features)
    kinds = [
        CATEGORICAL if np.isin(np.unique(features[:, j]), (0.0, 1.0)).all() else CONTINUOUS
        for j in range(features.shape[1])
    ]
    for column, kind in (overrides or {}).items():
        if kind not in (CATEGORICAL, CONTINUOUS):
            raise ValueError(f"unknown feature kind {kind!r} for column {column}")
        kinds[column] = kind
    return tuple(kinds)


def _read_rows(path):
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    matrix = np.empty((len(rows), len(header)), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i + 1} has {len(row)} cells, header has {len(header)}")
        for j, cell in enumerate(row):
            try:
                matrix[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"non-numeric cell {cell!r} at row {i + 1}, column {header[j]!r}"
                ) from None
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"non-finite cell {rows[i][j]!r} at row {i + 1}, column {header[j]!r}")
    return header, matrix


def _split_columns(header, matrix, special):
    missing = [c for c in special if c not in header]
    if missing:
        raise ValueError(f"missing column(s) {missing} in header {header}")
    special_idx = [header.index(c) for c in special]
    feature_idx = [j for j in range(len(header)) if j not in special_idx]
    if not feature_idx:
        raise ValueError("no feature columns left after removing group/label")
    names = [header[j] for j in feature_idx]
    return names, matrix[:, feature_idx], [matrix[:, j] for j in special_idx]


def _sidecar_kinds(path):
    """Optional ``<path>.kinds.json`` mapping column name to feature kind."""
    sidecar = f"{path}.kinds.json"
    if not os.path.exists(sidecar):
        return {}
    with open(sidecar, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_csv(path, kind_overrides=None) -> LabeledDataset:
    """Load a labeled CSV; ``kind_overrides`` maps column name to kind.

    A sidecar ``<path>.kinds.json`` provides the same overrides from disk;
    explicit arguments win over the sidecar.
    """
    header, matrix = _read_rows(path)
    names, features, (groups, labels) = _split_columns(header, matrix, ["group", "label"])
    merged = {**_sidecar_kinds(path), **(kind_overrides or {})}
    overrides = {names.index(c): k for c, k in merged.items()}
    kinds = infer_feature_kinds(features, overrides)
    return LabeledDataset(features, groups, labels, kinds)


def load_unlabeled_csv(path) -> UnlabeledDataset:
    header, matrix = _read_rows(path)
    _, features, (groups,) = _split_columns(header, matrix, ["group"])
    return UnlabeledDataset(features, groups)


def write_csv(path, data, feature_names=None):
    """Write a dataset back to CSV with full float round-trip precision."""
    features = data.features
    names = feature_names or [f"f{j}" for j in range(features.shape[1])]
    labeled = isinstance(data, LabeledDataset)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["group"] + (["label"] if labeled else []))
        for i in range(features.shape[0]):
            row = [repr(float(v)) for v in features[i]] + [str(int(data.groups[i]))]
            if labeled:
                row.append(str(int(data.labels[i])))
            writer.writerow(row)


# -- z-score normalization ------------------------------------------------


def fit_zscore(data, feature_kinds=None) -> NormalizationStats:
    """Population mean/std per continuous column; constant columns get std 1.

    ``feature_kinds`` defaults to ``data.feature_kinds``; pass the source's
    kinds to fit statistics on unlabeled rows.
    """
    features = data.features
    kinds = data.feature_kinds if feature_kinds is None else feature_kinds
    if features.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit normalization stats")
    means = np.zeros(features.shape[1])
    stds = np.ones(features.shape[1])
    for j, kind in enumerate(kinds):
        if kind != CONTINUOUS:
            continue
        col = features[:, j]
        means[j] = col.mean()
        std = col.std()
        stds[j] = std if std > 0 else 1.0
    return NormalizationStats(means, stds)


def apply_zscore(data, stats: NormalizationStats):
    """Columnwise ``(x - mean) / std``; returns a dataset of the same type."""
    if data.features.shape[1] != len(stats.means):
        raise ValueError(
            f"dimension mismatch: data has {data.features.shape[1]} columns, "
            f"stats have {len(stats.means)}"
        )
    transformed = (data.features - stats.means) / stats.stds
    return replace(data, features=transformed)


# -- synthetic generators --------------------------------------------------

# Shared logistic labeling rule: P(Y=1 | x) = sigmoid(scale * <x, dir>).
# Train and test draw labels from the same rule, so only the covariates shift.
LABEL_DIRECTION = np.array([1.0, 1.0]) / math.sqrt(2.0)
LABEL_SCALE = 2.0

_GROUP0_CENTERS = (np.array([-1.5, 1.5]), np.array([1.5, -1.5]))
_GROUP0_STD = 1.0
_GROUP1_CENTER = np.array([-1.5, 1.5])
_GROUP1_STD = 0.6

DEFAULT_ASYMMETRIC_SHIFT = (5.0, -5.0)


def _logistic_labels(rng, features, direction=LABEL_DIRECTION, scale=LABEL_SCALE):
    probs = 1.0 / (1.0 + np.exp(-scale * (features @ direction)))
    return (rng.random(len(features)) < probs).astype(np.int64)


def _sample_group0(rng, n):
    pick = rng.integers(0, 2, size=n)
    base = rng.normal(scale=_GROUP0_STD, size=(n, 2))
    return base + np.asarray(_GROUP0_CENTERS)[pick]


def _sample_group1(rng, n, center):
    return rng.normal(scale=_GROUP1_STD, size=(n, 2)) + center


def make_synthetic_asymmetric_labeled(seed, n_per_group, shift_vector=DEFAULT_ASYMMETRIC_SHIFT):
    """2-D asymmetric-shift task, ``(train, test)``: group 0 is stationary, group 1 moves.

    Group 0 is the same two-cluster Gaussian mixture in train and test;
    group 1 is a single Gaussian whose test cluster sits ``shift_vector``
    away from its train cluster.  Labels come from the module-level
    logistic rule in both splits; the labeled test split is what
    evaluation scores against, and ``test.without_labels()`` is the
    unlabeled target.  Equal ``seed`` gives bit-identical draws.
    """
    if n_per_group < 10:
        raise ValueError("n_per_group must be at least 10")
    shift = np.asarray(shift_vector, dtype=np.float64)
    rng = np.random.default_rng(seed)
    kinds = (CONTINUOUS, CONTINUOUS)
    splits = []
    for center1 in (_GROUP1_CENTER, _GROUP1_CENTER + shift):
        x0 = _sample_group0(rng, n_per_group)
        x1 = _sample_group1(rng, n_per_group, center1)
        features = np.vstack([x0, x1])
        groups = np.concatenate([np.zeros(n_per_group), np.ones(n_per_group)])
        labels = _logistic_labels(rng, features)
        splits.append(LabeledDataset(features, groups, labels, kinds))
    return splits[0], splits[1]


@dataclass(frozen=True)
class GaussianShiftTask:
    """Mean-shifted isotropic Gaussians with closed-form density ratios.

    Source covariates are N(0, I_d); target covariates are
    N(gamma * e_1, I_d), which is exactly the exponential tilt of the
    source along the first axis.  Labels follow the shared logistic rule
    and group membership is an independent fair coin, so the shift is a
    pure covariate shift.
    """

    gamma: float
    dim: int = 2
    label_direction: tuple = (0.0, 1.0)
    label_scale: float = LABEL_SCALE
    # labels get noisier along the shift axis when > 0: the logistic
    # slope decays as label_scale - drift * x1 (clamped to [0.3, 4.0])
    label_scale_drift: float = 0.0

    def _label_dir(self):
        v = np.asarray(self.label_direction, dtype=np.float64)
        return v / np.linalg.norm(v)

    def _slopes(self, features):
        x1 = np.asarray(features)[:, 0]
        return np.clip(self.label_scale - self.label_scale_drift * x1, 0.3, 4.0)

    def sample_source(self, n, seed) -> LabeledDataset:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, self.dim))
        return self._finish(rng, x)

    def sample_target(self, n, seed) -> LabeledDataset:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, self.dim))
        x[:, 0] += self.gamma
        return self._finish(rng, x)

    def _finish(self, rng, x):
        groups = rng.integers(0, 2, size=len(x))
        labels = (rng.random(len(x)) < self.label_probability(x)).astype(np.int64)
        return LabeledDataset(x, groups, labels, (CONTINUOUS,) * self.dim)

    def log_ratio_source_over_target(self, features) -> np.ndarray:
        """log(P_source(x) / P_target(x)) = -gamma*x1 + gamma^2/2, exactly."""
        x1 = np.asarray(features)[:, 0]
        return -self.gamma * x1 + 0.5 * self.gamma**2

    def source_over_target(self, features) -> np.ndarray:
        return np.exp(self.log_ratio_source_over_target(features))

    def target_over_source(self, features) -> np.ndarray:
        return np.exp(-self.log_ratio_source_over_target(features))

    def label_probability(self, features) -> np.ndarray:
        arg = self._slopes(features) * (np.asarray(features) @ self._label_dir())
        return 1.0 / (1.0 + np.exp(-arg))
