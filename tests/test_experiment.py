import csv
import ctypes
import json
import dataclasses
import hashlib
import math
import os
import typing

import numpy as np
import pytest

import fairshift.experiment as experiment_module
import fairshift.training as training_module
from fairshift.data import make_synthetic_asymmetric_labeled
from fairshift.experiment import (
    AGGREGATE_COLUMNS,
    GRID_FIELDS,
    ExperimentSpec,
    VarianceStudySpec,
    _normalize_pool,
    pareto_frontier,
    read_aggregate_csv,
    run_experiment,
    run_variance_study,
    write_aggregate_csv,
    write_failures_jsonl,
    write_run_csv,
    write_timings_csv,
    write_variance_csv,
)
from fairshift.training import TrainConfig

TINY_TRAIN = TrainConfig(pretrain_epochs=2, adapt_epochs=2)

# runs.csv of the tiny synthetic:gaussian sweep of test_gaussian_dataset_supported
GOLDEN_GAUSSIAN_RUNS_SHA256 = "5403545589aa0f357906f24b3edb1f02d8abee0f4974d76cf02a3b25518b2e44"
# (is_std, we_std, is_mean, we_mean) of TestVarianceStudy's rows, as float.hex
GOLDEN_VARIANCE_ROWS = [
    ("0x1.63884156a88dep-4", "0x1.3480967c01715p-4", "0x1.8d364093bbdf8p-2", "0x1.8a04b6ab0c4b0p-1"),
    ("0x1.63884156a88dep-4", "0x1.bdbf046c97c1dp-5", "0x1.8d364093bbdf8p-2", "0x1.92b9ee6d3a81fp-1"),
    ("0x1.63884156a88dep-4", "0x1.3e16c623f4accp-5", "0x1.8d364093bbdf8p-2", "0x1.8f51224bdd553p-1"),
]


def _tiny_spec(**overrides):
    base = dict(
        dataset="synthetic:asymmetric",
        methods=("erm",),
        gammas=(4.0,),
        lambda1s=(0.1,),
        lambda2s=(0.5,),
        ms=(30,),
        repetitions=2,
        base_seed=0,
        n_per_group=60,
        train=TINY_TRAIN,
    )
    base.update(overrides)
    if not base["dataset"].startswith("synthetic:"):
        del base["n_per_group"]  # a CSV pool has its own size
    return ExperimentSpec(**base)


def _write_pool_csv(tmp_path, n=220):
    """A labeled CSV pool of ``n`` rows with three continuous features."""
    rng = np.random.default_rng(0)
    path = tmp_path / "pool.csv"
    with open(path, "w") as fh:
        fh.write("f0,f1,f2,group,label\n")
        for _ in range(n):
            x = rng.normal(size=3)
            fh.write(
                ",".join(map(repr, map(float, x))) + f",{rng.integers(0, 2)},{int(x[0] > 0)}\n"
            )
    return str(path)


def _openblas(kind):
    """OpenBLAS's ``*_{kind}_num_threads*`` entry point behind numpy, or None."""
    blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            name = f"{prefix}openblas_{kind}_num_threads{suffix}"
            if hasattr(blas, name):
                entry = getattr(blas, name)
                entry.argtypes = [ctypes.c_int] if kind == "set" else []
                entry.restype = None if kind == "set" else ctypes.c_int
                return entry
    return None


class TestRunExperiment:
    def test_single_repetition_yields_zero_std(self):
        runs, aggs = run_experiment(_tiny_spec(repetitions=1))
        assert len(runs) == 1
        assert len(aggs) == 1
        assert aggs[0]["status"] == "complete"
        stds = [aggs[0][c] for c in AGGREGATE_COLUMNS if c.endswith("_std")]
        assert stds == [0.0] * 5

    def test_seeds_are_base_plus_index(self):
        runs, _ = run_experiment(_tiny_spec(base_seed=100, repetitions=3))
        assert [r["seed"] for r in runs] == [100, 101, 102]

    def test_aggregate_matches_recomputation_from_run_rows(self):
        runs, aggs = run_experiment(_tiny_spec(repetitions=3))
        errors = np.array([r["error_pct"] for r in runs])
        assert aggs[0]["error_pct_mean"] == pytest.approx(errors.mean())
        assert aggs[0]["error_pct_std"] == pytest.approx(errors.std())

    def test_failed_runs_recorded_not_fatal(self):
        # m larger than the available target pool fails each ours run
        spec = _tiny_spec(methods=("ours", "erm"), ms=(10_000,), repetitions=2)
        runs, aggs = run_experiment(spec)
        ours_rows = [r for r in runs if r["method"] == "ours"]
        assert all(r["status"] == "failed" for r in ours_rows)
        ours_agg = next(a for a in aggs if a["method"] == "ours")
        assert ours_agg["status"] == "partial"
        assert ours_agg["ok_runs"] == 0
        erm_agg = next(a for a in aggs if a["method"] == "erm")
        assert erm_agg["status"] == "complete"

    def test_grid_iterates_every_combination(self):
        spec = _tiny_spec(methods=("erm",), gammas=(1.0, 2.0), ms=(20, 30), repetitions=1)
        runs, aggs = run_experiment(spec)
        assert len(runs) == 4
        assert len(aggs) == 4

    def test_worker_pool_matches_sequential_execution(self):
        spec = _tiny_spec(methods=("erm", "ours"), repetitions=2)
        sequential = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        # every field of a run row but its wall time
        untimed = [[{k: v for k, v in r.items() if k != "wall_s"} for r in rows[0]]
                   for rows in (sequential, parallel)]
        assert untimed[0] == untimed[1]
        assert sequential[1] == parallel[1]

    def test_gaussian_dataset_supported(self, tmp_path):
        runs, _ = run_experiment(_tiny_spec(dataset="synthetic:gaussian", gammas=(1.0,)))
        assert all(r["status"] == "ok" for r in runs)
        # the task's draws and label rule, pinned bit for bit through training
        write_run_csv(tmp_path / "runs.csv", runs)
        digest = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_GAUSSIAN_RUNS_SHA256

    def test_unknown_synthetic_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic"):
            run_experiment(_tiny_spec(dataset="synthetic:nope"))

    def test_csv_dataset_goes_through_splitter(self, tmp_path):
        spec = _tiny_spec(dataset=_write_pool_csv(tmp_path), gammas=(5.0,), ms=(20,))
        runs, _ = run_experiment(spec)
        assert all(r["status"] == "ok" for r in runs)

    def test_pooled_sweep_loads_csv_once(self, tmp_path, monkeypatch):
        # a file, not a counter: loads inside worker processes must show too
        log = tmp_path / "loads.log"
        real_load = experiment_module.load_csv

        def logged_load(path):
            with open(log, "a") as fh:
                fh.write(f"{path}\n")
            return real_load(path)

        monkeypatch.setattr(experiment_module, "load_csv", logged_load)
        spec = _tiny_spec(dataset=_write_pool_csv(tmp_path), gammas=(5.0,), ms=(20,))
        runs, _ = run_experiment(spec, workers=2)
        assert [r["status"] for r in runs] == ["ok", "ok"]
        assert len(log.read_text().splitlines()) == 1

    def test_pool_receives_the_data_once_per_worker(self, tmp_path, monkeypatch):
        # a file, not a counter: the pickling happens wherever the pool needs it
        log = tmp_path / "pickles.log"

        def logged_getstate(provider):
            with open(log, "a") as fh:
                fh.write("pickled\n")
            return provider.__dict__

        monkeypatch.setattr(experiment_module._DataProvider, "__getstate__", logged_getstate)
        spec = _tiny_spec(
            dataset=_write_pool_csv(tmp_path), methods=("erm", "zsa"), gammas=(5.0,), ms=(20,)
        )
        runs, _ = run_experiment(spec, workers=2)
        assert [r["status"] for r in runs] == ["ok"] * 4
        pickles = len(log.read_text().splitlines()) if log.exists() else 0
        assert pickles <= 2

    @pytest.mark.skipif(_openblas("get") is None, reason="numpy's BLAS is not OpenBLAS")
    def test_pool_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        # a file, not a counter: the counts are read inside the workers
        log = tmp_path / "threads.log"
        real_train = experiment_module.train

        def logged_train(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{_openblas('get')()}\n")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiment_module, "train", logged_train)
        # a caller already set up: its forked workers must still set themselves up
        monkeypatch.setattr(training_module, "_set_up_pid", os.getpid())
        before = _openblas("get")()
        # two threads in the caller, so forked workers would inherit more than one
        _openblas("set")(2)
        try:
            runs, _ = run_experiment(_tiny_spec(repetitions=4), workers=2)
            assert _openblas("get")() == 2
        finally:
            _openblas("set")(before)
        assert [r["status"] for r in runs] == ["ok"] * 4
        assert log.read_text().splitlines() == ["1"] * 4

    @pytest.mark.skipif(_openblas("get") is None, reason="numpy's BLAS is not OpenBLAS")
    def test_in_process_training_runs_one_blas_thread(self, monkeypatch):
        # a process not yet set up, with two threads: what the setup must change
        monkeypatch.setattr(training_module, "_set_up_pid", None)
        before = _openblas("get")()
        _openblas("set")(2)
        try:
            runs, _ = run_experiment(_tiny_spec(repetitions=1), workers=1)
            assert _openblas("get")() == 1
        finally:
            _openblas("set")(before)
        assert [r["status"] for r in runs] == ["ok"]

    @pytest.mark.parametrize("workers,runs,started", [(2, 1, 1), (4, 3, 3), (2, 3, 2)])
    def test_pool_starts_no_more_processes_than_tasks(self, monkeypatch, workers, runs, started):
        sizes = []

        class RecordingPool(experiment_module.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(experiment_module, "ProcessPoolExecutor", RecordingPool)
        rows, _ = run_experiment(_tiny_spec(repetitions=runs), workers=workers)
        assert [r["status"] for r in rows] == ["ok"] * runs
        assert sizes == [started]

    def test_runs_csv_bytes_do_not_depend_on_workers(self, tmp_path):
        spec = _tiny_spec(dataset=_write_pool_csv(tmp_path), methods=("erm", "ours"), ms=(20,))
        blobs = []
        for workers in (1, 2):
            path = tmp_path / f"runs_{workers}.csv"
            runs = run_experiment(spec, workers=workers)[0]
            write_run_csv(path, runs)
            blobs.append(path.read_bytes())
            timings = tmp_path / f"timings_{workers}.csv"
            write_timings_csv(timings, runs)
            with open(timings) as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["method"], r["rep"], r["status"]) for r in rows] == [
                (r["method"], str(r["rep"]), r["status"]) for r in runs
            ]
            assert all(float(r["wall_s"]) > 0 for r in rows)
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(_tiny_spec(), workers=workers)


def test_failure_records_carry_the_exception_message(tmp_path):
    # the tiny spec's target holds 120 points, so m = 500 fails every run
    runs, _ = run_experiment(_tiny_spec(methods=("ours", "zsa"), ms=(500,)), workers=1)
    path = tmp_path / "failures.jsonl"
    write_failures_jsonl(path, runs)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 4
    for record in records:
        assert list(record)[-3:] == ["exception", "message", "traceback"]
        assert record["exception"] == "ValueError"
        assert record["message"] == "m_cap=500 exceeds available target points (120)"


def test_timings_report_the_ess_share_of_each_weighted_run(tmp_path):
    # at m = 500 every method but erm fails before training: no summary
    spec = _tiny_spec(methods=training_module.METHODS, ms=(30, 500), repetitions=1)
    runs, _ = run_experiment(spec)
    write_timings_csv(tmp_path / "timings.csv", runs)
    with open(tmp_path / "timings.csv") as fh:
        timings = list(csv.DictReader(fh))
    assert list(timings[0]) == experiment_module.TIMING_COLUMNS
    assert experiment_module.TIMING_COLUMNS[-3:] == ["resumed_epochs", "ess_share", "wall_s"]
    weighted = {"ours", "kliep_iw", "lsif_iw"}
    for row in timings:
        if row["method"] in weighted and row["status"] == "ok":
            assert 0.0 < float(row["ess_share"]) <= 1.0
        else:
            assert row["ess_share"] == ""
    assert {(r["method"], r["m"]) for r in timings if r["ess_share"]} == {
        (method, "30") for method in weighted
    }
    # the share is the summary of the run's own model
    source, target, _ = experiment_module._DataProvider(spec).make(4.0, 0)
    (ours,) = [r for r in runs if (r["method"], r["m"]) == ("ours", 30)]
    columns = experiment_module._POINT_COLUMNS
    cfg = spec.run_config(0, **{name: ours[c] for name, c in zip(GRID_FIELDS, columns)})
    model = training_module.train(source, target, cfg)
    assert ours["ess_share"] == model.weight_summary.ess_share


@pytest.mark.parametrize(
    "dataset,gamma,fails",
    [
        ("synthetic:asymmetric", 10.0, False),
        ("synthetic:asymmetric", 1e3, True),
        # the Gaussian task's label column never shifts, so it keeps its spread
        ("synthetic:gaussian", 1e6, False),
    ],
)
def test_a_synthetic_draw_whose_source_the_shift_flattens_is_refused(dataset, gamma, fails):
    provider = experiment_module._DataProvider(_tiny_spec(dataset=dataset))
    if fails:
        with pytest.raises(ValueError, match=f"^gamma={gamma}: the source keeps a std of at most"):
            provider.make(gamma, 0)
    else:
        source, _, _ = provider.make(gamma, 0)
        assert source.features.std(axis=0).max() >= experiment_module.MIN_SOURCE_SPREAD


@pytest.mark.parametrize("seed", [0, 1])
def test_asymmetric_provider_draws_the_normalized_default_task(seed):
    # the 20-seed acceptance loops rest on this: at gamma 5*sqrt(2) the
    # provider's draw is the task's default (5.0, -5.0) shift, z-scored
    provider = experiment_module._DataProvider(_tiny_spec(n_per_group=300))
    source, target, test = provider.make(5 * math.sqrt(2), seed)
    want_source, want_test = _normalize_pool(*make_synthetic_asymmetric_labeled(seed, 300))
    for got, want in ((source, want_source), (test, want_test), (target, want_test)):
        for column in ("features", "groups", "labels"):
            if hasattr(got, column):  # the target has no labels
                a, b = getattr(got, column), getattr(want, column)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _ungrouped(spec, tasks, workers):
    return [[i] for i in range(len(tasks))]


class TestSharedPretraining:
    # m = 500 exceeds the 120 target points, so those matching runs fail
    # before training; erm, which draws no target sample, still runs
    SPEC = dict(
        methods=("ours", "erm", "zsa", "unweighted_entropy"),
        lambda1s=(0.0, 0.1),
        ms=(30, 500),
        gammas=(2.0, 4.0),
    )

    @staticmethod
    def _sweep(tmp_path, tag, spec, workers):
        runs, aggs = run_experiment(spec, workers=workers)
        write_run_csv(tmp_path / f"runs_{tag}.csv", runs)
        write_aggregate_csv(tmp_path / f"agg_{tag}.csv", aggs)
        write_timings_csv(tmp_path / f"timings_{tag}.csv", runs)
        with open(tmp_path / f"timings_{tag}.csv") as fh:
            timings = list(csv.DictReader(fh))
        blobs = [(tmp_path / f"{kind}_{tag}.csv").read_bytes() for kind in ("runs", "agg")]
        return blobs, runs, timings

    def test_grouped_sweeps_equal_ungrouped_ones(self, tmp_path, monkeypatch):
        spec = _tiny_spec(**self.SPEC)
        grouped = {w: self._sweep(tmp_path, f"g{w}", spec, w) for w in (1, 2)}
        monkeypatch.setattr(experiment_module, "_group_tasks", _ungrouped)
        alone = {w: self._sweep(tmp_path, f"u{w}", spec, w) for w in (1, 2)}
        assert grouped[1][0] == grouped[2][0] == alone[1][0] == alone[2][0]
        runs = grouped[1][1]
        # 2 gammas x 2 lambda1s x 2 reps of each matching method at m = 500
        assert [r["status"] for r in runs].count("failed") == 3 * 8
        for workers in (1, 2):
            assert {t["resumed_epochs"] for t in alone[workers][2]} == {"0"}
            resumed = {
                (t["method"], t["gamma"], t["lambda1"], t["m"], t["rep"]): t["resumed_epochs"]
                for t in grouped[workers][2]
                if t["resumed_epochs"] != "0"
            }
            # per (gamma, rep), 8 runs of ours, erm and unweighted_entropy
            # train: the first trains the shared epochs, the other 7 resume;
            # zsa's two runs at m = 30 share a cut too, so the second resumes
            assert len(resumed) == (7 + 1) * 4
            assert set(resumed.values()) == {str(TINY_TRAIN.pretrain_epochs)}
            assert ("ours", "2.0", "0.0", "30", "0") not in resumed
            assert ("erm", "2.0", "0.0", "500", "0") in resumed
            assert ("zsa", "2.0", "0.1", "30", "0") in resumed

    def test_groups_keep_grid_order(self):
        spec = _tiny_spec(
            methods=("kliep_iw", "erm", "zsa", "ours"), gammas=(1.0, 2.0), repetitions=2
        )
        tasks = [(point, rep) for point in spec.grid() for rep in range(spec.repetitions)]
        # kliep_iw 0-3, erm 4-7, zsa 8-11, ours 12-15; gamma-major, rep-minor
        groups = experiment_module._group_tasks(spec, tasks, workers=2)
        assert groups == [[0], [1], [2], [3], [4, 12], [5, 13], [6, 14], [7, 15]] + [
            [i] for i in range(8, 12)
        ]
        assert sorted(i for group in groups for i in group) == list(range(16))

    def test_methods_that_do_not_share_stay_alone(self):
        spec = _tiny_spec(methods=("kliep_iw", "lsif_iw", "zsa"), repetitions=2)
        tasks = [(point, rep) for point in spec.grid() for rep in range(spec.repetitions)]
        assert experiment_module._group_tasks(spec, tasks, workers=1) == [[i] for i in range(6)]

    def test_too_few_groups_for_the_workers_ungroups(self):
        spec = _tiny_spec(methods=("ours", "erm"), lambda1s=(0.0, 0.1), repetitions=1)
        tasks = [(point, rep) for point in spec.grid() for rep in range(spec.repetitions)]
        assert experiment_module._group_tasks(spec, tasks, workers=1) == [[0, 1, 2, 3]]
        assert experiment_module._group_tasks(spec, tasks, workers=2) == [[0], [1], [2], [3]]
        both = _tiny_spec(methods=("ours", "erm"), repetitions=2)
        tasks = [(point, rep) for point in both.grid() for rep in range(both.repetitions)]
        assert experiment_module._group_tasks(both, tasks, workers=2) == [[0, 2], [1, 3]]


class TestCsvRoundTrips:
    def test_rerun_writes_identical_bytes(self, tmp_path):
        spec = _tiny_spec(repetitions=2)
        paths = []
        for tag in ("a", "b"):
            runs, aggs = run_experiment(spec)
            run_path = tmp_path / f"runs_{tag}.csv"
            agg_path = tmp_path / f"agg_{tag}.csv"
            write_run_csv(run_path, runs)
            write_aggregate_csv(agg_path, aggs)
            paths.append((run_path.read_bytes(), agg_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_aggregate_csv_read_back(self, tmp_path):
        _, aggs = run_experiment(_tiny_spec(repetitions=2))
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, aggs)
        loaded = read_aggregate_csv(path)
        assert loaded == aggs

    def test_aggregate_csv_with_a_nan_row_round_trips_byte_for_byte(self, tmp_path):
        # at m = 10_000 every ours run fails (NaN means); erm draws no target
        spec = _tiny_spec(methods=("ours", "erm"), ms=(30, 10_000))
        _, aggs = run_experiment(spec)
        assert [(a["method"], a["m"], a["ok_runs"]) for a in aggs] == [
            ("ours", 30, 2), ("ours", 10_000, 0), ("erm", 30, 2), ("erm", 10_000, 2)
        ]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_aggregate_csv(first, aggs)
        loaded = read_aggregate_csv(first)
        write_aggregate_csv(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        assert math.isnan(loaded[1]["error_pct_mean"]) and math.isnan(loaded[1]["eodds_std"])
        assert [row for i, row in enumerate(loaded) if i != 1] == [
            row for i, row in enumerate(aggs) if i != 1
        ]

    def test_run_csv_parses_with_stdlib_reader(self, tmp_path):
        runs, _ = run_experiment(_tiny_spec(repetitions=2))
        path = tmp_path / "runs.csv"
        write_run_csv(path, runs)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["error_pct"]) == runs[0]["error_pct"]


def _agg(error, eodds, method="m", ok_runs=1):
    row = dict.fromkeys(AGGREGATE_COLUMNS, 0.0)
    row.update(method=method, m=0, repetitions=1, ok_runs=ok_runs, status="complete")
    row.update(error_pct_mean=error, eodds_mean=eodds)
    return row


class TestParetoFrontier:
    def test_single_row_is_its_own_frontier(self):
        rows = [_agg(10.0, 0.1)]
        assert pareto_frontier(rows) == rows

    def test_dominated_row_removed(self):
        rows = [_agg(10.0, 0.1), _agg(12.0, 0.05), _agg(13.0, 0.2)]
        frontier = pareto_frontier(rows)
        assert [(r["error_pct_mean"], r["eodds_mean"]) for r in frontier] == [
            (10.0, 0.1),
            (12.0, 0.05),
        ]

    def test_rows_without_an_ok_run_never_enter(self):
        nan = float("nan")
        finite, failed = _agg(10.0, 0.1, method="finite"), _agg(nan, nan, ok_runs=0)
        assert pareto_frontier([failed, finite]) == [finite]
        assert pareto_frontier([failed]) == []

    def test_partial_row_with_an_ok_run_stays_eligible(self):
        partial = {**_agg(9.0, 0.2, method="partial"), "repetitions": 2, "status": "partial"}
        rows = [_agg(10.0, 0.1), partial, _agg(11.0, 0.3)]
        assert pareto_frontier(rows) == rows[:2]

    def test_duplicates_keep_first_occurrence(self):
        first = _agg(10.0, 0.1, method="first")
        second = _agg(10.0, 0.1, method="second")
        frontier = pareto_frontier([first, second])
        assert frontier == [first]

    def test_output_mutually_non_dominating(self):
        rng = np.random.default_rng(0)
        rows = [_agg(float(e), float(o)) for e, o in rng.uniform(0, 1, size=(40, 2))]
        frontier = pareto_frontier(rows)
        points = [(r["error_pct_mean"], r["eodds_mean"]) for r in frontier]
        for a in points:
            for b in points:
                if a is b:
                    continue
                dominates = a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])
                assert not dominates


class TestVarianceStudy:
    @pytest.fixture(scope="class")
    @staticmethod
    def rows():
        return run_variance_study(VarianceStudySpec(gammas=(2.0,), ms=(10, 20, 40), repetitions=12))

    def test_rows_are_bit_stable(self, rows):
        estimates = ("is_std", "we_std", "is_mean", "we_mean")
        assert [tuple(row[k].hex() for k in estimates) for row in rows] == GOLDEN_VARIANCE_ROWS

    def test_row_schema(self, rows):
        assert len(rows) == 3
        for row in rows:
            assert row["is_std"] >= 0 and row["we_std"] >= 0
            assert np.isfinite(row["is_mean"]) and np.isfinite(row["we_mean"])

    def test_doubling_m_shrinks_entropy_term_spread_like_sqrt(self, rows):
        # i.i.d. scaling: doubling the target draw cuts the spread by
        # about 1/sqrt(2) while the target term dominates
        assert rows[1]["we_std"] / rows[0]["we_std"] == pytest.approx(
            1 / np.sqrt(2), rel=0.2
        )

    def test_quadrupling_m_halves_entropy_term_spread(self, rows):
        std10 = rows[0]["we_std"]
        std40 = rows[2]["we_std"]
        assert std40 / std10 == pytest.approx(0.5, rel=0.25)

    def test_tiny_exact_ratios_are_valid(self):
        # at gamma 10 every ratio of a 200-row draw is below 1e-11, and none is 0
        (row,) = run_variance_study(VarianceStudySpec(gammas=(10.0,), ms=(10,), repetitions=3))
        assert row["is_std"] > 0 and row["is_mean"] > 0

    def test_exact_ratios_that_all_underflow_raise(self):
        spec = VarianceStudySpec(gammas=(100.0,), ms=(10,), repetitions=3)
        cause = "^gamma=100.0: every exact ratio of a source draw underflows to 0$"
        with pytest.raises(ValueError, match=cause):
            run_variance_study(spec)

    def test_csv_written(self, rows, tmp_path):
        path = tmp_path / "var.csv"
        write_variance_csv(path, rows)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 3
        assert float(parsed[0]["is_std"]) == rows[0]["is_std"]


@pytest.mark.parametrize(
    "grid,cause",
    [
        (dict(methods=("ours", "bogus")), "^methods entry 1: unknown method 'bogus'"),
        (dict(lambda1s=(0.1, -0.5)), "^lambda1s entry 1: lambda1 must be >= 0, got -0.5"),
        (dict(lambda2s=(1.0, -1.0)), "^lambda2s entry 1: lambda2 must be >= 0, got -1.0"),
        (dict(ms=(30, 0)), "^ms entry 1: m_cap must be >= 1, got 0"),
        (dict(gammas=(4.0, -1.0)), r"^gammas entries must be >= 0, got -1\.0"),
    ],
    ids=["method", "lambda1", "lambda2", "m", "gamma"],
)
def test_bad_grid_entry_raises_before_any_run(grid, cause, monkeypatch):
    started = []
    monkeypatch.setattr(experiment_module, "train", lambda *args: started.append(args))
    with pytest.raises(ValueError, match=cause):
        run_experiment(_tiny_spec(**grid))
    assert started == []


def test_spec_validation():
    with pytest.raises(ValueError, match="repetitions"):
        _tiny_spec(repetitions=0)
    with pytest.raises(ValueError, match="non-empty"):
        _tiny_spec(methods=())
    with pytest.raises(ValueError, match="^base_seed must be >= 0, got -1"):
        _tiny_spec(base_seed=-1)
    with pytest.raises(ValueError, match="^ms must be non-empty"):
        _tiny_spec(ms=())
    with pytest.raises(ValueError, match="^gammas must be non-empty"):
        VarianceStudySpec(gammas=())


def test_grid_fields_name_every_grid_list_once_in_grid_order():
    hints = typing.get_type_hints(ExperimentSpec)
    grid_lists = [name for name, hint in hints.items() if typing.get_origin(hint) is tuple]
    assert list(GRID_FIELDS) == grid_lists
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert {f for f in GRID_FIELDS.values() if f} <= train_fields
    spec = _tiny_spec(methods=("erm", "zsa"), gammas=(1, 2.5), ms=(30, 7))
    points = list(spec.grid())
    assert points[0] == ("erm", 1.0, 0.1, 0.5, 30) and points[-1] == ("zsa", 2.5, 0.1, 0.5, 7)
    assert len(points) == 8


def test_run_config_sets_each_entry_by_its_list():
    spec = _tiny_spec()
    cfg = spec.run_config(3, methods="zsa", gammas=9.0, lambda1s=0.0, lambda2s=2.0, ms=7)
    assert cfg == dataclasses.replace(
        TINY_TRAIN, seed=3, method="zsa", lambda1=0.0, lambda2=2.0, m_cap=7
    )
    assert spec.run_config(5) == dataclasses.replace(TINY_TRAIN, seed=5)
