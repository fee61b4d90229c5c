"""Experiment orchestration: seeded sweeps, aggregation, variance studies.

A sweep runs every grid point (method x gamma x lambda1 x lambda2 x m)
for a fixed number of repetitions, with per-run seeds derived as
``base_seed + repetition`` so results are independent yet reproducible.
Outputs are plain CSV with documented headers; re-running a spec
reproduces every byte.

The ``erm``, ``ours`` and ``unweighted_entropy`` runs of one
``(gamma, rep)`` train the same first ``pretrain_epochs`` epochs, so they
run as one task that shares one :class:`~fairshift.training.PretrainCache`:
the first of them trains those epochs and the others resume from a copy.
Each still draws its data and trains once, in grid order, and its results
are those of a run on its own.
"""

from __future__ import annotations

import csv
import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    GaussianShiftTask,
    LabeledDataset,
    apply_zscore,
    check_field_types,
    fit_zscore,
    load_csv,
    make_synthetic_asymmetric_labeled,
)
from .losses import conditional_entropy, risk_bound_gap
from .metrics import evaluate_model
from .splitter import ShiftConfig, split
from .training import SHARES_PRETRAINING, PretrainCache, TrainConfig, _setup_process, train

SYNTHETIC_ASYMMETRIC = "synthetic:asymmetric"
SYNTHETIC_GAUSSIAN = "synthetic:gaussian"

# lambda pairs that worked well on the standard preprocessed benchmarks
RECOMMENDED_LAMBDAS = {
    "adult": (1.0, 0.01),
    "arrhythmia": (0.01, 0.005),
    "communities": (0.005, 0.0001),
    "drug": (0.1, 0.1),
}

DEFAULT_BOUND_FACTOR = 5.0

# unit direction along which synthetic asymmetric shifts scale with gamma
_ASYM_SHIFT_DIRECTION = np.array([1.0, -1.0]) / np.sqrt(2.0)

RUN_COLUMNS = [
    "method",
    "gamma",
    "lambda1",
    "lambda2",
    "m",
    "rep",
    "seed",
    "status",
    "error_pct",
    "eodds",
    "acc_parity_pct",
    "error_group0_pct",
    "error_group1_pct",
]

_METRIC_FIELDS = [
    "error_pct",
    "eodds",
    "acc_parity_pct",
    "error_group0_pct",
    "error_group1_pct",
]

# wall time stays out of runs.csv, so reruns of a sweep match byte for byte;
# resumed_epochs counts the epochs a run took from its task's pretraining cache
TIMING_COLUMNS = RUN_COLUMNS[: RUN_COLUMNS.index("status") + 1] + ["resumed_epochs", "wall_s"]

AGGREGATE_COLUMNS = (
    ["method", "gamma", "lambda1", "lambda2", "m", "repetitions", "ok_runs", "status"]
    + [f"{f}_mean" for f in _METRIC_FIELDS]
    + [f"{f}_std" for f in _METRIC_FIELDS]
)


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: str
    methods: tuple[str, ...] = ("ours",)
    gammas: tuple[float, ...] = (10.0,)
    lambda1s: tuple[float, ...] = (0.1,)
    lambda2s: tuple[float, ...] = (1.0,)
    ms: tuple[int, ...] = (50,)
    repetitions: int = 50
    base_seed: int = 0
    n_per_group: int = 300
    train: TrainConfig = field(default_factory=TrainConfig)
    shift: ShiftConfig = field(default_factory=ShiftConfig)

    def __post_init__(self):
        check_field_types(self)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed!r}")
        for name in ("methods", "gammas", "lambda1s", "lambda2s", "ms"):
            if not getattr(self, name):
                raise ValueError(f"grid list {name} must be non-empty")

    def grid(self):
        for method in self.methods:
            for gamma in self.gammas:
                for lam1 in self.lambda1s:
                    for lam2 in self.lambda2s:
                        for m in self.ms:
                            yield method, float(gamma), float(lam1), float(lam2), int(m)


@dataclass(frozen=True)
class AggregateRow:
    method: str
    gamma: float
    lambda1: float
    lambda2: float
    m: int
    repetitions: int
    ok_runs: int
    status: str
    means: dict
    stds: dict

    @property
    def error_mean(self):
        return self.means["error_pct"]

    @property
    def eodds_mean(self):
        return self.means["eodds"]


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
    """Produces (source, target_pool, eval_set) triples per seeded run."""

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
                task = GaussianShiftTask(gamma=gamma)
                kids = np.random.SeedSequence(seed).spawn(2)
                source = task.sample_source(2 * spec.n_per_group, kids[0])
                test = task.sample_target(2 * spec.n_per_group, kids[1])
            source, test = _normalize_pool(source, test)
        return source, test.without_labels(), test


# a pool worker's copy of the sweep's data, received once when the worker starts
_worker_provider = None


def _init_worker(provider):
    global _worker_provider
    _worker_provider = provider
    _setup_process()


def _execute_run(task, provider=None, cache=None):
    """One seeded run of a ``(point, rep)`` task; returns its row.

    ``provider`` defaults to the one the pool worker received at start-up;
    ``cache`` goes to :func:`train`.  Beside the ``RUN_COLUMNS`` the row
    holds ``resumed_epochs``, ``wall_s`` (data, training without resumed
    epochs, and scoring) and, for a failed run, its exception.
    """
    (method, gamma, lam1, lam2, m), rep = task
    if provider is None:
        provider = _worker_provider
    spec = provider.spec
    seed = spec.base_seed + rep
    cfg = replace(
        spec.train, method=method, lambda1=lam1, lambda2=lam2, m_cap=m, seed=seed
    )
    row = {
        "method": method,
        "gamma": gamma,
        "lambda1": lam1,
        "lambda2": lam2,
        "m": m,
        "rep": rep,
        "seed": seed,
        "resumed_epochs": 0,
    }
    start = time.perf_counter()
    try:
        source, target, eval_set = provider.make(gamma, seed)
        model = train(source, target, cfg, cache)
        row["resumed_epochs"] = model.resumed_epochs
        metrics = evaluate_model(model, eval_set)
    except Exception as exc:
        row["status"] = "failed"
        for name in _METRIC_FIELDS:
            row[name] = ""
        row["_exception"] = type(exc).__name__
        row["_message"] = str(exc)
        row["_traceback"] = traceback.format_exc()
    else:
        row["status"] = "ok"
        for name in _METRIC_FIELDS:
            row[name] = getattr(metrics, name)
    row["wall_s"] = time.perf_counter() - start
    return row


def _execute_group(tasks, provider=None):
    """The runs of ``tasks``, in order, sharing one pretraining cache."""
    cache = PretrainCache()
    return [_execute_run(task, provider, cache) for task in tasks]


def _group_tasks(tasks, workers):
    """Index lists into ``tasks``: the runs that execute as one task.

    The ``SHARES_PRETRAINING`` runs of one ``(gamma, rep)`` form one group;
    every other run is alone.  Groups keep grid order, within and by their
    first member.  If that leaves fewer groups than ``workers``, every run
    is alone, so no worker idles for the sake of sharing.
    """
    groups, shared = [], {}
    for i, ((method, gamma, *_), rep) in enumerate(tasks):
        if method not in SHARES_PRETRAINING:
            groups.append([i])
        elif (gamma, rep) in shared:
            shared[gamma, rep].append(i)
        else:
            shared[gamma, rep] = [i]
            groups.append(shared[gamma, rep])
    if len(groups) < workers:
        return [[i] for i in range(len(tasks))]
    return groups


def run_experiment(spec: ExperimentSpec, workers: int = 1):
    """Execute the sweep; returns ``(run_rows, aggregate_rows)``.

    Each run row is one dict (see :func:`_execute_run`), in grid order.
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
    groups = _group_tasks(tasks, workers)
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


def _aggregate(point, rows) -> AggregateRow:
    """A grid point's mean and population std of each metric over its ``ok`` rows."""
    ok_rows = [row for row in rows if row["status"] == "ok"]
    means, stds = {}, {}
    for name in _METRIC_FIELDS:
        values = np.array([row[name] for row in ok_rows], dtype=np.float64)
        means[name] = float(values.mean()) if len(values) else float("nan")
        # population std: a single repetition reports exactly 0 spread
        stds[name] = float(values.std()) if len(values) else float("nan")
    status = "complete" if len(ok_rows) == len(rows) else "partial"
    return AggregateRow(*point, len(rows), len(ok_rows), status, means, stds)


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_table(path, columns, rows):
    """CSV with a header; floats keep their full repr so reruns match byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_run_csv(path, run_rows):
    _write_table(path, RUN_COLUMNS, ([row[c] for c in RUN_COLUMNS] for row in run_rows))


def write_timings_csv(path, run_rows):
    """One row per run: grid point, rep, seed, status, resumed epochs and wall seconds."""
    _write_table(path, TIMING_COLUMNS, ([row[c] for c in TIMING_COLUMNS] for row in run_rows))


def write_failures_jsonl(path, run_rows):
    """One JSON object per failed run: grid point, rep, seed, exception type, message, traceback.

    The traceback holds the checkout's paths and line numbers; the type and
    message do not, so they are what two commits or checkouts can compare.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for row in run_rows:
            if row["status"] == "failed":
                record = {
                    c: row[c] for c in ("method", "gamma", "lambda1", "lambda2", "m", "rep", "seed")
                }
                record["exception"] = row["_exception"]
                record["message"] = row["_message"]
                record["traceback"] = row["_traceback"]
                fh.write(json.dumps(record) + "\n")


def write_aggregate_csv(path, aggregates):
    _write_table(
        path,
        AGGREGATE_COLUMNS,
        (
            [agg.method, agg.gamma, agg.lambda1, agg.lambda2, agg.m]
            + [agg.repetitions, agg.ok_runs, agg.status]
            + [agg.means[f] for f in _METRIC_FIELDS]
            + [agg.stds[f] for f in _METRIC_FIELDS]
            for agg in aggregates
        ),
    )


def read_aggregate_csv(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                AggregateRow(
                    method=record["method"],
                    gamma=float(record["gamma"]),
                    lambda1=float(record["lambda1"]),
                    lambda2=float(record["lambda2"]),
                    m=int(record["m"]),
                    repetitions=int(record["repetitions"]),
                    ok_runs=int(record["ok_runs"]),
                    status=record["status"],
                    means={f: float(record[f"{f}_mean"]) for f in _METRIC_FIELDS},
                    stds={f: float(record[f"{f}_std"]) for f in _METRIC_FIELDS},
                )
            )
    return rows


def pareto_frontier(rows):
    """Rows not dominated in (error mean, equalized-odds mean).

    Duplicate coordinate pairs keep their first occurrence; the output
    preserves input order.
    """
    unique = []
    seen = set()
    for row in rows:
        key = (row.error_mean, row.eodds_mean)
        if key in seen:
            continue
        seen.add(key)
        unique.append(row)
    kept = []
    for row in unique:
        dominated = any(
            other.error_mean <= row.error_mean
            and other.eodds_mean <= row.eodds_mean
            and (other.error_mean < row.error_mean or other.eodds_mean < row.eodds_mean)
            for other in unique
            if other is not row
        )
        if not dominated:
            kept.append(row)
    return kept


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
    z = task.target_over_source(source.features)
    return float((z * _true_risk_per_row(model, task, source)).mean())


def weighted_entropy_objective_estimate(
    model, task: GaussianShiftTask, n, m, seed, entropy_coef=1.0
) -> float:
    """Source risk plus the ratio-damped entropy term from a target draw."""
    kids = np.random.SeedSequence(seed).spawn(2)
    source = task.sample_source(n, kids[0])
    target = task.sample_target(m, kids[1])
    risk = float(_true_risk_per_row(model, task, source).mean())
    return risk + entropy_coef * _damped_target_entropy(model, task, target)


def bound_gap_estimate(
    model, task: GaussianShiftTask, n_mc, seed, epsilon=DEFAULT_BOUND_FACTOR
) -> float:
    """Monte-Carlo slack of the weighted-entropy bound for one model."""
    kids = np.random.SeedSequence(seed).spawn(2)
    source = task.sample_source(n_mc, kids[0])
    target = task.sample_target(n_mc, kids[1])
    source_risk = float(_true_risk_per_row(model, task, source).mean())
    test_risk = float(_true_risk_per_row(model, task, target).mean())
    weighted_entropy = _damped_target_entropy(model, task, target)
    return risk_bound_gap(source_risk, weighted_entropy, epsilon, test_risk)


def run_variance_study(
    gammas=(2.0, 2.5, 3.0),
    ms=(10, 20, 50),
    repetitions=20,
    n=200,
    base_seed=0,
    entropy_coef=1.0,
    train_cfg: TrainConfig | None = None,
):
    """Spread of the two target-risk estimators for a fixed pretrained model.

    For each (gamma, m) the study redraws data ``repetitions`` times and
    records the standard deviation of (a) the exact-ratio importance
    weighted risk over a source draw and (b) the weighted-entropy
    objective over a source and a target draw.
    """
    cfg = train_cfg or TrainConfig(
        method="erm", pretrain_epochs=10, adapt_epochs=0, seed=base_seed
    )
    base_task = GaussianShiftTask(gamma=float(gammas[0]))
    model = train(base_task.sample_source(500, base_seed), None, replace(cfg, method="erm"))
    rows = []
    for gamma in gammas:
        task = GaussianShiftTask(gamma=float(gamma))
        for m in ms:
            is_estimates = np.array(
                [
                    importance_weighted_risk_estimate(
                        model, task, n, base_seed + 1000 + r
                    )
                    for r in range(repetitions)
                ]
            )
            we_estimates = np.array(
                [
                    weighted_entropy_objective_estimate(
                        model, task, n, m, base_seed + 1000 + r, entropy_coef
                    )
                    for r in range(repetitions)
                ]
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
    _write_table(path, VARIANCE_COLUMNS, ([row[c] for c in VARIANCE_COLUMNS] for row in rows))
