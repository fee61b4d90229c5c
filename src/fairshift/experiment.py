"""Experiment orchestration: seeded sweeps, aggregation, variance studies.

A sweep runs every grid point (method x gamma x lambda1 x lambda2 x m)
for a fixed number of repetitions, with per-run seeds derived as
``base_seed + repetition`` so results are independent yet reproducible.
Outputs are plain CSV with documented headers; re-running a spec
reproduces every byte.

The runs of one ``(gamma, rep)`` whose configs have equal read keys at
``pretrain_epochs`` (see :func:`~fairshift.training._read_key`), whatever
their methods, run as one task that shares one
:class:`~fairshift.training.PretrainCache`: the first of them trains those
epochs and the others resume from a copy when their data match too.  Each
still draws its data and trains once, in grid order, and its results are
those of a run on its own.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Annotated

import numpy as np

from .config import check_field_types
from .data import (
    GaussianShiftTask,
    LabeledDataset,
    apply_zscore,
    fit_zscore,
    load_csv,
    make_synthetic_asymmetric_labeled,
)
from .losses import conditional_entropy, risk_bound_gap
from .metrics import RunMetrics, evaluate_model
from .splitter import ShiftConfig, split
from .training import PretrainCache, TrainConfig, _read_key, _setup_process, train

SYNTHETIC_ASYMMETRIC = "synthetic:asymmetric"
SYNTHETIC_GAUSSIAN = "synthetic:gaussian"

DEFAULT_BOUND_FACTOR = 5.0

# unit direction along which synthetic asymmetric shifts scale with gamma
_ASYM_SHIFT_DIRECTION = np.array([1.0, -1.0]) / np.sqrt(2.0)
# the least std that a synthetic source, z-scored on the pooled rows, must keep
# in some column: the asymmetric task crosses it at a gamma of about 50, past
# which erm's error climbs to chance; the Gaussian task's label column never shifts
MIN_SOURCE_SPREAD = 0.1

_METRIC_FIELDS = [f.name for f in fields(RunMetrics)]
_POINT_COLUMNS = ["method", "gamma", "lambda1", "lambda2", "m"]

RUN_COLUMNS = _POINT_COLUMNS + ["rep", "seed", "status"] + _METRIC_FIELDS

# wall time stays out of runs.csv, so reruns of a sweep match byte for byte;
# resumed_epochs counts the epochs a run took from its task's pretraining cache,
# and ess_share is its weight summary's, blank for a run without one
_TIMED = ["resumed_epochs", "ess_share", "wall_s"]
TIMING_COLUMNS = RUN_COLUMNS[: RUN_COLUMNS.index("status") + 1] + _TIMED

FAILURE_COLUMNS = _POINT_COLUMNS + ["rep", "seed", "exception", "message", "traceback"]

AGGREGATE_COLUMNS = (
    _POINT_COLUMNS
    + ["repetitions", "ok_runs", "status"]
    + [f"{f}_mean" for f in _METRIC_FIELDS]
    + [f"{f}_std" for f in _METRIC_FIELDS]
)
# read_aggregate_csv's parser of each column; a column not named here is float
_AGGREGATE_TYPES = {"method": str, "status": str, "m": int, "repetitions": int, "ok_runs": int}


# each grid list, in grid order, and the TrainConfig field its entries set;
# a gammas entry sets the shift of the run's data instead
GRID_FIELDS = {
    "methods": "method",
    "gammas": None,
    "lambda1s": "lambda1",
    "lambda2s": "lambda2",
    "ms": "m_cap",
}
# each nested key that the grid sets for every run, so a spec leaves it at its
# default, and the key that sets it
_GRID_OWNED = {f"train.{name}": grid for grid, name in GRID_FIELDS.items() if name}
_GRID_OWNED |= {"train.seed": "base_seed", "shift.gamma": "gammas", "shift.seed": "base_seed"}


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: str
    methods: tuple[str, ...] = ("ours",)
    gammas: tuple[Annotated[float, "be >= 0"], ...] = (10.0,)
    lambda1s: tuple[float, ...] = (0.1,)
    lambda2s: tuple[float, ...] = (1.0,)
    ms: tuple[int, ...] = (50,)
    repetitions: Annotated[int, "be >= 1"] = 50
    base_seed: Annotated[int, "be >= 0"] = 0
    n_per_group: Annotated[int, "be >= 10"] = 300
    train: TrainConfig = field(default_factory=TrainConfig)
    shift: ShiftConfig = field(default_factory=ShiftConfig)

    def __post_init__(self):
        check_field_types(self)
        for key, owner in _GRID_OWNED.items():
            part, name = key.split(".")
            nested = getattr(self, part)
            if getattr(nested, name) != getattr(type(nested)(), name):
                raise ValueError(f"{key} is set for each run by {owner}; set {owner} instead")
        # a synthetic task draws its own shift, and a CSV pool has its own size
        synthetic = self.dataset.startswith("synthetic:")
        if synthetic:
            unread = [f"shift.{f.name}" for f in fields(ShiftConfig)
                      if getattr(self.shift, f.name) != f.default]
        else:  # a plain field's default is also its class attribute
            unread = ["n_per_group"] if self.n_per_group != ExperimentSpec.n_per_group else []
        if unread:
            why = "draws its own shift" if synthetic else "is a CSV pool"
            raise ValueError(f"{unread[0]} is read by no run: dataset {self.dataset!r} {why}")
        # TrainConfig checks each field alone, so checking every entry on its
        # own rejects a bad grid point before any run
        for name in GRID_FIELDS:
            for i, value in enumerate(getattr(self, name)):
                try:
                    self.run_config(self.train.seed, **{name: value})
                except ValueError as exc:
                    raise ValueError(f"{name} entry {i}: {exc}") from None

    def grid(self):
        lists = itertools.product(*(getattr(self, name) for name in GRID_FIELDS))
        for method, gamma, lam1, lam2, m in lists:
            yield method, float(gamma), float(lam1), float(lam2), int(m)

    def run_config(self, seed, **entries) -> TrainConfig:
        """``train`` with ``seed`` and one entry of any grid lists, each keyed by
        its list: ``run_config(3, ms=20)`` sets ``seed=3, m_cap=20``."""
        values = {GRID_FIELDS[name]: v for name, v in entries.items() if GRID_FIELDS[name]}
        return replace(self.train, seed=seed, **values)


def _normalize_pool(train: LabeledDataset, test: LabeledDataset):
    """Z-score both splits with statistics fit on the pooled rows."""
    pool = LabeledDataset(
        np.vstack([train.features, test.features]),
        np.concatenate([train.groups, test.groups]),
        np.concatenate([train.labels, test.labels]),
        train.feature_kinds,
    )
    stats = fit_zscore(pool)
    return apply_zscore(train, stats), apply_zscore(test, stats)


class _DataProvider:
    """Produces (source, target_pool, eval_set) triples per seeded run.

    A synthetic draw whose z-scored source keeps a std below
    ``MIN_SOURCE_SPREAD`` in every column raises one ``ValueError``.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.pool = None
        if spec.dataset.startswith("synthetic:"):
            if spec.dataset not in (SYNTHETIC_ASYMMETRIC, SYNTHETIC_GAUSSIAN):
                raise ValueError(f"unknown synthetic dataset {spec.dataset!r}")
        else:
            self.pool = load_csv(spec.dataset)
            stats = fit_zscore(self.pool)
            self.pool = apply_zscore(self.pool, stats)

    def make(self, gamma, seed):
        spec = self.spec
        if self.pool is not None:
            result = split(self.pool, replace(spec.shift, gamma=gamma, seed=seed))
            source = self.pool.subset(result.train_idx)
            test = self.pool.subset(result.test_idx)
        else:
            if spec.dataset == SYNTHETIC_ASYMMETRIC:
                source, test = make_synthetic_asymmetric_labeled(
                    seed, spec.n_per_group, gamma * _ASYM_SHIFT_DIRECTION
                )
            else:
                n = 2 * spec.n_per_group
                source, test = GaussianShiftTask(gamma=gamma).sample(n, n, seed)
            source, test = _normalize_pool(source, test)
            spread = source.features.std(axis=0).max()
            if spread < MIN_SOURCE_SPREAD:
                raise ValueError(
                    f"gamma={gamma}: the source keeps a std of at most {spread:.3g} < "
                    f"{MIN_SOURCE_SPREAD} in every column after z-scoring on the pooled rows, "
                    "too flat to train on"
                )
        return source, test.without_labels(), test


# a pool worker's copy of the sweep's data, received once when the worker starts
_worker_provider = None


def _init_worker(provider):
    global _worker_provider
    _worker_provider = provider
    _setup_process()


def _task_config(spec, task):
    point, rep = task
    return spec.run_config(spec.base_seed + rep, **dict(zip(GRID_FIELDS, point)))


def _execute_run(task, provider, cache):
    """One seeded run of a ``(point, rep)`` task on ``provider``'s data; returns its row.

    ``cache`` goes to :func:`train`.  Beside the ``RUN_COLUMNS`` the row
    holds ``resumed_epochs``, ``ess_share`` (of the model's weight summary,
    blank without one or for a failed run), ``wall_s`` (data, training
    without resumed epochs, and scoring) and, for a failed run, its exception.
    """
    point, rep = task
    cfg = _task_config(provider.spec, task)
    row = {**dict(zip(_POINT_COLUMNS, point)), "rep": rep, "seed": cfg.seed}
    row.update(resumed_epochs=0, ess_share="")
    start = time.perf_counter()
    try:
        source, target, eval_set = provider.make(row["gamma"], cfg.seed)
        model = train(source, target, cfg, cache)
        row["resumed_epochs"] = model.resumed_epochs
        metrics = evaluate_model(model, eval_set)
    except Exception as exc:
        row["status"] = "failed"
        for name in _METRIC_FIELDS:
            row[name] = ""
        row["exception"] = type(exc).__name__
        row["message"] = str(exc)
        row["traceback"] = traceback.format_exc()
    else:
        row["status"] = "ok"
        for name in _METRIC_FIELDS:
            row[name] = getattr(metrics, name)
        if model.weight_summary is not None:
            row["ess_share"] = model.weight_summary.ess_share
    row["wall_s"] = time.perf_counter() - start
    return row


def _execute_group(tasks, provider=None):
    """The runs of ``tasks``, in order, sharing one pretraining cache and one provider."""
    provider = provider or _worker_provider
    cache = PretrainCache()
    return [_execute_run(task, provider, cache) for task in tasks]


def _group_tasks(spec, tasks, workers):
    """Index lists into ``tasks`` of ``spec``: the runs that execute as one task.

    The runs of one ``(gamma, rep)`` whose configs have equal read keys at
    ``pretrain_epochs`` form one group.  Groups keep grid order, within
    and by their first member.  If that leaves fewer groups than
    ``workers``, every run is alone, so no worker idles for sharing.
    """
    groups = {}
    for i, task in enumerate(tasks):
        (_, gamma, *_), rep = task
        cfg = _task_config(spec, task)
        groups.setdefault((gamma, rep, _read_key(cfg, cfg.pretrain_epochs)), []).append(i)
    if len(groups) < workers:
        return [[i] for i in range(len(tasks))]
    return list(groups.values())


def run_experiment(spec: ExperimentSpec, workers: int = 1):
    """Execute the sweep; returns ``(run_rows, aggregate_rows)``.

    Each run row is one dict (see :func:`_execute_run`), in grid order, and
    so is each grid point's aggregate row (see :func:`_aggregate`).
    The dataset is loaded (and a CSV pool z-scored) once, in the calling
    process, so a bad dataset raises before any run starts.  Runs are
    independent, so ``workers > 1`` fans them out over a bounded process
    pool, of no more processes than there are tasks, whose workers each
    receive the loaded data once, at start-up, and set themselves up as
    :func:`train` sets up any process that trains.  The runs that share
    pretraining execute as one task (see :func:`_group_tasks`), which the
    serial path reaches at its first run's place; results are gathered in
    grid order either way, and a run that raises is recorded with status
    ``failed`` without stopping the sweep.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    points = list(spec.grid())
    tasks = [(point, rep) for point in points for rep in range(spec.repetitions)]
    provider = _DataProvider(spec)
    groups = _group_tasks(spec, tasks, workers)
    members = [[tasks[i] for i in group] for group in groups]
    if workers == 1:
        results = [_execute_group(group, provider) for group in members]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(groups)), initializer=_init_worker, initargs=(provider,)
        ) as pool:
            results = list(pool.map(_execute_group, members))
    run_rows = [None] * len(tasks)
    for group, result in zip(groups, results):
        for i, row in zip(group, result):
            run_rows[i] = row

    reps = spec.repetitions
    aggregates = [_aggregate(p, run_rows[i * reps : (i + 1) * reps]) for i, p in enumerate(points)]
    return run_rows, aggregates


def _aggregate(point, rows):
    """A grid point's row of ``AGGREGATE_COLUMNS``: the mean and population
    std of each metric over its ``ok`` runs, NaN if it has none."""
    ok_rows = [row for row in rows if row["status"] == "ok"]
    status = "complete" if len(ok_rows) == len(rows) else "partial"
    agg = dict(zip(_POINT_COLUMNS, point))
    agg.update(repetitions=len(rows), ok_runs=len(ok_rows), status=status)
    values = {f: np.array([row[f] for row in ok_rows], dtype=np.float64) for f in _METRIC_FIELDS}
    nan = float("nan")
    agg.update({f"{f}_mean": float(v.mean()) if ok_rows else nan for f, v in values.items()})
    # population std: a single repetition reports exactly 0 spread
    agg.update({f"{f}_std": float(v.std()) if ok_rows else nan for f, v in values.items()})
    return agg


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_table(path, columns, rows):
    """CSV of ``columns`` from row dicts; floats keep their full repr, so reruns
    match byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def write_run_csv(path, run_rows):
    _write_table(path, RUN_COLUMNS, run_rows)


def write_timings_csv(path, run_rows):
    """One row per run: grid point, rep, seed, status, resumed epochs, ESS share, wall seconds."""
    _write_table(path, TIMING_COLUMNS, run_rows)


def write_failures_jsonl(path, run_rows):
    """One JSON object of ``FAILURE_COLUMNS`` per failed run.

    The traceback holds the checkout's paths and line numbers; the type and
    message do not, so they are what two commits or checkouts can compare.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for row in run_rows:
            if row["status"] == "failed":
                fh.write(json.dumps({c: row[c] for c in FAILURE_COLUMNS}) + "\n")


def write_aggregate_csv(path, aggregates):
    _write_table(path, AGGREGATE_COLUMNS, aggregates)


def read_aggregate_csv(path):
    """The rows of an ``aggregate.csv``, as :func:`run_experiment` returns them.

    A header other than ``AGGREGATE_COLUMNS``, or a line of another field
    count, raises one ``ValueError``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != AGGREGATE_COLUMNS:
            raise ValueError(f"{path} does not have the aggregate columns {AGGREGATE_COLUMNS}")
        rows = []
        for row in reader:
            # DictReader keys a long line's surplus by None and fills a short one with None
            if None in row or None in row.values():
                raise ValueError(
                    f"{path} line {reader.line_num}: expected {len(AGGREGATE_COLUMNS)} fields"
                )
            rows.append({c: _AGGREGATE_TYPES.get(c, float)(v) for c, v in row.items()})
        return rows


def pareto_frontier(rows):
    """Rows with an ok run not dominated in (error mean, equalized-odds mean).

    A row without an ok run has NaN means and never enters.  Duplicate
    coordinate pairs keep their first occurrence; the output preserves
    input order.
    """
    points = {}
    for row in rows:
        if row["ok_runs"] > 0:
            points.setdefault((row["error_pct_mean"], row["eodds_mean"]), row)
    return [
        row
        for (error, eodds), row in points.items()
        if not any(e <= error and o <= eodds and (e, o) != (error, eodds) for e, o in points)
    ]


# -- objective-estimator variance study -------------------------------------

VARIANCE_COLUMNS = [
    "gamma",
    "m",
    "n",
    "repetitions",
    "is_std",
    "we_std",
    "is_mean",
    "we_mean",
]


def _true_risk_per_row(model, task: GaussianShiftTask, data):
    """Exact conditional cross entropy of each row given the true P(Y=1|x)."""
    probs = model.predict_proba(data.features)
    label_probs = task.label_probability(data.features)
    return -(label_probs * np.log(probs) + (1.0 - label_probs) * np.log(1.0 - probs))


def _damped_target_entropy(model, task: GaussianShiftTask, target) -> float:
    """Mean target entropy, each row damped by ``exp(-source/target ratio)``."""
    entropy = conditional_entropy(model.predict_proba(target.features)).value
    damp = np.exp(-task.source_over_target(target.features))
    return float((damp * entropy).mean())


def importance_weighted_risk_estimate(model, task: GaussianShiftTask, n, seed) -> float:
    """Target-risk estimate from a source draw, reweighted by exact ratios."""
    source = task.sample_source(n, seed)
    with np.errstate(under="ignore"):  # a weight may underflow; not all of them
        z = task.target_over_source(source.features)
    if not z.any():
        raise ValueError(f"gamma={task.gamma}: every exact ratio of a source draw underflows to 0")
    return float((z * _true_risk_per_row(model, task, source)).mean())


def weighted_entropy_objective_estimate(model, task: GaussianShiftTask, n, m, seed) -> float:
    """Source risk plus the ratio-damped entropy term from a target draw."""
    source, target = task.sample(n, m, seed)
    risk = float(_true_risk_per_row(model, task, source).mean())
    return risk + _damped_target_entropy(model, task, target)


def bound_gap_estimate(
    model, task: GaussianShiftTask, n_mc, seed, epsilon=DEFAULT_BOUND_FACTOR
) -> float:
    """Monte-Carlo slack of the weighted-entropy bound for one model."""
    source, target = task.sample(n_mc, n_mc, seed)
    source_risk = float(_true_risk_per_row(model, task, source).mean())
    test_risk = float(_true_risk_per_row(model, task, target).mean())
    weighted_entropy = _damped_target_entropy(model, task, target)
    return risk_bound_gap(source_risk, weighted_entropy, epsilon, test_risk)


@dataclass(frozen=True)
class VarianceStudySpec:
    """The grid and draws of :func:`run_variance_study`."""

    gammas: tuple[float, ...] = (2.0, 2.5, 3.0)
    ms: tuple[Annotated[int, "be >= 1"], ...] = (10, 20, 50)
    repetitions: Annotated[int, "be >= 1"] = 20
    n: Annotated[int, "be >= 1"] = 200
    base_seed: Annotated[int, "be >= 0"] = 0

    def __post_init__(self):
        check_field_types(self)


def run_variance_study(spec: VarianceStudySpec = VarianceStudySpec()):
    """Spread of the two target-risk estimators for a fixed pretrained model.

    For each (gamma, m) the study redraws data ``repetitions`` times and
    records the standard deviation of (a) the exact-ratio importance
    weighted risk over a source draw and (b) the weighted-entropy
    objective over a source and a target draw.  The model is ten ``erm``
    epochs seeded by ``base_seed`` on a source draw at the first gamma.
    """
    n, base_seed, repetitions = spec.n, spec.base_seed, spec.repetitions
    cfg = TrainConfig(method="erm", pretrain_epochs=10, adapt_epochs=0, seed=base_seed)
    base_task = GaussianShiftTask(gamma=float(spec.gammas[0]))
    model = train(base_task.sample_source(500, base_seed), None, cfg)
    rows = []
    seeds = range(base_seed + 1000, base_seed + 1000 + repetitions)
    for gamma in spec.gammas:
        task = GaussianShiftTask(gamma=float(gamma))
        # the importance-weighted estimate draws no target, so it is the same for every m
        is_estimates = np.array(
            [importance_weighted_risk_estimate(model, task, n, seed) for seed in seeds]
        )
        for m in spec.ms:
            we_estimates = np.array(
                [weighted_entropy_objective_estimate(model, task, n, m, seed) for seed in seeds]
            )
            rows.append(
                {
                    "gamma": float(gamma),
                    "m": int(m),
                    "n": int(n),
                    "repetitions": repetitions,
                    "is_std": float(is_estimates.std()),
                    "we_std": float(we_estimates.std()),
                    "is_mean": float(is_estimates.mean()),
                    "we_mean": float(we_estimates.mean()),
                }
            )
    return rows


def write_variance_csv(path, rows):
    _write_table(path, VARIANCE_COLUMNS, rows)
