"""The three benchmark workloads and their output checks.

All workloads are closed loops: one client in this process, and the next
call starts when the previous one returns.  An iteration is one pass over
the workload's runs; it reports its wall time, the runs attempted and
failed, per-call ``train()`` times, quality figures, and every check that
did not hold.  Any failed run is counted, never dropped.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import inputs

RANGES = {
    "error_pct": (0.0, 100.0),
    "eodds": (0.0, 1.0),
    "acc_parity_pct": (0.0, 100.0),
    "error_group0_pct": (0.0, 100.0),
    "error_group1_pct": (0.0, 100.0),
}


def range_problems(values: dict) -> list:
    """Names of ``RunMetrics`` fields that are missing, non-finite or out of range."""
    bad = []
    for name, (lo, hi) in RANGES.items():
        v = values.get(name)
        if not isinstance(v, float) or not math.isfinite(v) or not lo <= v <= hi:
            bad.append(f"{name}={v!r}")
    return bad


@dataclass
class Iteration:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    train_s: list = field(default_factory=list)
    error_pct: list = field(default_factory=list)
    eodds: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def completed(self):
        return self.attempted - self.failed


def import_package():
    """Import the package modules the workloads and tracer use."""
    from fairshift import autodiff, cli, data, experiment, losses, metrics, nets, splitter
    from fairshift import training

    return {
        "autodiff": autodiff,
        "cli": cli,
        "data": data,
        "experiment": experiment,
        "losses": losses,
        "metrics": metrics,
        "nets": nets,
        "splitter": splitter,
        "training": training,
    }


class AsymWorkload:
    """``train()`` + ``evaluate_model`` on seeded asymmetric-task draws.

    Every attribute lookup goes through the package module at call time,
    so a traced iteration sees the wrapped functions.
    """

    def __init__(self, fs, seed, methods, runs=inputs.ASYM_RUNS, train_overrides=None):
        self.fs = fs
        self.seeds = inputs.run_seeds(seed, runs)
        self.methods = methods
        self.train_overrides = dict(train_overrides or {})
        self.reference = {}  # (seed, method) -> param digests of the first run

    def setup(self):
        """One untimed warm-up run of each method."""
        warm = Iteration()
        for method in self.methods:
            self._run(self.seeds[0], method, warm, tracer=None)
        return warm

    def _run(self, seed, method, it, tracer):
        fs = self.fs
        it.attempted += 1
        if tracer is not None:
            tracer.begin_run()
        try:
            source, test = fs["data"].make_synthetic_asymmetric_labeled(
                seed, inputs.ASYM_N_PER_GROUP
            )
            target = test.without_labels().subset(inputs.target_index(test.groups, seed))
            cfg = fs["training"].TrainConfig(seed=seed, method=method, **self.train_overrides)
            t0 = time.perf_counter()
            model = fs["training"].train(source, target, cfg)
            it.train_s.append(time.perf_counter() - t0)
            result = fs["metrics"].evaluate_model(model, test)
        except Exception as exc:  # a failed run is counted, never dropped
            it.failed += 1
            it.problems.append(f"{method} seed {seed} raised {type(exc).__name__}: {exc}")
            return
        values = {name: getattr(result, name) for name in RANGES}
        bad = range_problems(values)
        if bad:
            it.failed += 1
            it.problems.append(f"{method} seed {seed} metrics out of range: {bad}")
            return
        digests = list(model.param_digests)
        expected = self.reference.setdefault((seed, method), digests)
        if digests != expected:
            it.problems.append(f"{method} seed {seed}: param_digests differ from first run")
        it.error_pct.append(values["error_pct"])
        it.eodds.append(values["eodds"])

    def iteration(self, tracer=None, workers=None):
        """One pass over every (seed, method) run; ``workers`` does not apply."""
        it = Iteration()
        t0 = time.perf_counter()
        for seed in self.seeds:
            for method in self.methods:
                self._run(seed, method, it, tracer)
        it.wall_s = time.perf_counter() - t0
        return it


class SweepWorkload:
    """``fairshift experiment`` through ``cli.main`` on a generated CSV pool."""

    def __init__(self, fs, seed, workdir, workers, rows=inputs.POOL_ROWS, extra_config=""):
        self.fs = fs
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.rows = rows
        self.extra_config = extra_config
        self.pool = os.path.join(workdir, "pool.csv")
        self.config = os.path.join(workdir, "experiment.cfg")
        self.reference = None  # runs.csv bytes of the first iteration

    def setup(self):
        """Write the inputs, then one untimed warm-up run (erm) through the pool."""
        os.makedirs(self.workdir, exist_ok=True)
        inputs.write_pool_csv(self.pool, self.seed, self.rows)
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(inputs.experiment_config_text(self.seed) + self.extra_config)
        warm = Iteration()
        out = os.path.join(self.workdir, "warmup")
        shutil.rmtree(out, ignore_errors=True)
        argv = self._argv(out, self.workers) + ["--method", "erm"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.fs["cli"].main(argv)
        if code != 0:
            warm.problems.append(f"warm-up cli.main returned {code}")
        return warm

    def _argv(self, out, workers):
        return [
            "experiment",
            "--config",
            self.config,
            "--data",
            self.pool,
            "--out",
            out,
            "--workers",
            str(workers),
        ]

    def iteration(self, tracer=None, workers=None):
        """One sweep; ``workers`` overrides the pool size for this call."""
        workers = workers or self.workers
        it = Iteration()
        out = os.path.join(self.workdir, f"out-w{workers}")
        shutil.rmtree(out, ignore_errors=True)
        argv = self._argv(out, workers)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = self.fs["cli"].main(argv)
            else:
                with tracer.span("cli.main"):
                    code = self.fs["cli"].main(argv)
        it.wall_s = time.perf_counter() - t0
        if code != 0:
            it.problems.append(f"cli.main returned {code} at workers={workers}")
        self._check_outputs(out, workers, it)
        return it

    def _check_outputs(self, out, workers, it):
        path = os.path.join(out, "runs.csv")
        expected_runs = len(inputs.SWEEP_METHODS)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            it.attempted, it.failed = expected_runs, expected_runs
            it.problems.append(f"runs.csv unreadable at workers={workers}: {exc}")
            return
        if self.reference is None:
            self.reference = raw
        elif raw != self.reference:
            it.problems.append(
                f"runs.csv at workers={workers} differs from the first iteration's"
            )
        rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
        it.attempted = max(len(rows), expected_runs)
        it.failed = it.attempted - len(rows)
        if len(rows) != expected_runs:
            it.problems.append(f"runs.csv has {len(rows)} rows, expected {expected_runs}")
        for row in rows:
            if row.get("status") != "ok":
                it.failed += 1
                continue
            try:
                values = {name: float(row[name]) for name in RANGES}
            except (KeyError, ValueError) as exc:
                it.failed += 1
                it.problems.append(f"{row.get('method')}: unparsable metrics ({exc})")
                continue
            bad = range_problems(values)
            if bad:
                it.failed += 1
                it.problems.append(f"{row.get('method')}: metrics out of range: {bad}")
                continue
            it.error_pct.append(values["error_pct"])
            it.eodds.append(values["eodds"])
