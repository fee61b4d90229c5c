import csv
import ctypes
import json
import math
import os

import numpy as np
import pytest

import fairshift.experiment as experiment_module
import fairshift.training as training_module
from fairshift.data import make_synthetic_asymmetric_labeled
from fairshift.experiment import (
    AggregateRow,
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
        assert aggs[0].status == "complete"
        for value in aggs[0].stds.values():
            assert value == 0.0

    def test_seeds_are_base_plus_index(self):
        runs, _ = run_experiment(_tiny_spec(base_seed=100, repetitions=3))
        assert [r["seed"] for r in runs] == [100, 101, 102]

    def test_aggregate_matches_recomputation_from_run_rows(self):
        runs, aggs = run_experiment(_tiny_spec(repetitions=3))
        errors = np.array([r["error_pct"] for r in runs])
        assert aggs[0].means["error_pct"] == pytest.approx(errors.mean())
        assert aggs[0].stds["error_pct"] == pytest.approx(errors.std())

    def test_failed_runs_recorded_not_fatal(self):
        # m larger than the available target pool fails each ours run
        spec = _tiny_spec(methods=("ours", "erm"), ms=(10_000,), repetitions=2)
        runs, aggs = run_experiment(spec)
        ours_rows = [r for r in runs if r["method"] == "ours"]
        assert all(r["status"] == "failed" for r in ours_rows)
        ours_agg = next(a for a in aggs if a.method == "ours")
        assert ours_agg.status == "partial"
        assert ours_agg.ok_runs == 0
        erm_agg = next(a for a in aggs if a.method == "erm")
        assert erm_agg.status == "complete"

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

    def test_gaussian_dataset_supported(self):
        runs, _ = run_experiment(_tiny_spec(dataset="synthetic:gaussian", gammas=(1.0,)))
        assert all(r["status"] == "ok" for r in runs)

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


def _ungrouped(tasks, workers):
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
            # train: the first trains the shared epochs, the other 7 resume
            assert len(resumed) == 7 * 4
            assert set(resumed.values()) == {str(TINY_TRAIN.pretrain_epochs)}
            assert ("ours", "2.0", "0.0", "30", "0") not in resumed
            assert ("erm", "2.0", "0.0", "500", "0") in resumed

    def test_groups_keep_grid_order(self):
        spec = _tiny_spec(
            methods=("kliep_iw", "erm", "zsa", "ours"), gammas=(1.0, 2.0), repetitions=2
        )
        tasks = [(point, rep) for point in spec.grid() for rep in range(spec.repetitions)]
        # kliep_iw 0-3, erm 4-7, zsa 8-11, ours 12-15; gamma-major, rep-minor
        groups = experiment_module._group_tasks(tasks, workers=2)
        assert groups == [[0], [1], [2], [3], [4, 12], [5, 13], [6, 14], [7, 15]] + [
            [i] for i in range(8, 12)
        ]
        assert sorted(i for group in groups for i in group) == list(range(16))

    def test_methods_that_do_not_share_stay_alone(self):
        spec = _tiny_spec(methods=("kliep_iw", "lsif_iw", "zsa"), repetitions=2)
        tasks = [(point, rep) for point in spec.grid() for rep in range(spec.repetitions)]
        assert experiment_module._group_tasks(tasks, workers=1) == [[i] for i in range(6)]

    def test_too_few_groups_for_the_workers_ungroups(self):
        spec = _tiny_spec(methods=("ours", "erm"), lambda1s=(0.0, 0.1), repetitions=1)
        tasks = [(point, rep) for point in spec.grid() for rep in range(spec.repetitions)]
        assert experiment_module._group_tasks(tasks, workers=1) == [[0, 1, 2, 3]]
        assert experiment_module._group_tasks(tasks, workers=2) == [[0], [1], [2], [3]]
        both = _tiny_spec(methods=("ours", "erm"), repetitions=2)
        tasks = [(point, rep) for point in both.grid() for rep in range(both.repetitions)]
        assert experiment_module._group_tasks(tasks, workers=2) == [[0, 2], [1, 3]]


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
        assert len(loaded) == len(aggs)
        assert loaded[0].means["error_pct"] == aggs[0].means["error_pct"]
        assert loaded[0].status == aggs[0].status

    def test_run_csv_parses_with_stdlib_reader(self, tmp_path):
        runs, _ = run_experiment(_tiny_spec(repetitions=2))
        path = tmp_path / "runs.csv"
        write_run_csv(path, runs)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["error_pct"]) == runs[0]["error_pct"]


def _agg(error, eodds, method="m"):
    metrics = ["error_pct", "eodds", "acc_parity_pct", "error_group0_pct", "error_group1_pct"]
    means = dict.fromkeys(metrics, 0.0)
    means["error_pct"] = error
    means["eodds"] = eodds
    return AggregateRow(
        method=method, gamma=0.0, lambda1=0.0, lambda2=0.0, m=0,
        repetitions=1, ok_runs=1, status="complete",
        means=means, stds=dict.fromkeys(metrics, 0.0),
    )


class TestParetoFrontier:
    def test_single_row_is_its_own_frontier(self):
        rows = [_agg(10.0, 0.1)]
        assert pareto_frontier(rows) == rows

    def test_dominated_row_removed(self):
        rows = [_agg(10.0, 0.1), _agg(12.0, 0.05), _agg(13.0, 0.2)]
        frontier = pareto_frontier(rows)
        assert [(r.error_mean, r.eodds_mean) for r in frontier] == [(10.0, 0.1), (12.0, 0.05)]

    def test_duplicates_keep_first_occurrence(self):
        first = _agg(10.0, 0.1, method="first")
        second = _agg(10.0, 0.1, method="second")
        frontier = pareto_frontier([first, second])
        assert frontier == [first]

    def test_output_mutually_non_dominating(self):
        rng = np.random.default_rng(0)
        rows = [_agg(float(e), float(o)) for e, o in rng.uniform(0, 1, size=(40, 2))]
        frontier = pareto_frontier(rows)
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominates = (
                    a.error_mean <= b.error_mean
                    and a.eodds_mean <= b.eodds_mean
                    and (a.error_mean < b.error_mean or a.eodds_mean < b.eodds_mean)
                )
                assert not dominates


class TestVarianceStudy:
    @pytest.fixture(scope="class")
    @staticmethod
    def rows():
        return run_variance_study(VarianceStudySpec(gammas=(2.0,), ms=(10, 20, 40), repetitions=12))

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

    def test_csv_written(self, rows, tmp_path):
        path = tmp_path / "var.csv"
        write_variance_csv(path, rows)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 3
        assert float(parsed[0]["is_std"]) == rows[0]["is_std"]


def test_spec_validation():
    with pytest.raises(ValueError, match="repetitions"):
        _tiny_spec(repetitions=0)
    with pytest.raises(ValueError, match="non-empty"):
        _tiny_spec(methods=())
    with pytest.raises(ValueError, match="^base_seed must be >= 0, got -1"):
        _tiny_spec(base_seed=-1)
