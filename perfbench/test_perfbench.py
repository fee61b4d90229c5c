"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from layers import instrument, layer_metrics, per_run_counts  # noqa: E402
from tracer import BOOKKEEPING, Patcher, Tracer, self_times, totals  # noqa: E402
from workloads import AsymWorkload, SweepWorkload, import_package  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "perfbench-tests"
SMALL_TRAIN = {"pretrain_epochs": 1, "adapt_epochs": 1}
SMALL_SWEEP = "train.pretrain_epochs = 1\ntrain.adapt_epochs = 1\n"


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


@pytest.fixture(scope="module")
def fs():
    return import_package()


@pytest.fixture
def workdir(request):
    path = SCRATCH / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_tracer_nesting_and_self_time():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 10.0]))
    tracer.begin_run()
    with tracer.span("outer") as outer:
        with tracer.span("a") as a:  # 1 -> 2
            pass
        with tracer.span("b") as b:  # 4 -> 5
            pass
    assert (a.parent, b.parent, outer.parent) == (outer.id, outer.id, None)
    assert {s.run for s in tracer.spans} == {1}
    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(10.0 - 1.0 - 1.0)
    assert own[a.id] == pytest.approx(1.0)
    t = totals(tracer.spans)
    assert t["outer"] == pytest.approx((1, 10.0, 8.0))
    assert t["b"] == pytest.approx((1, 1.0, 1.0))


def test_wrap_books_observer_work_outside_the_span():
    # clock reads: outer open, before-open, before-close, f open, f close,
    # observer open, observer close, outer close
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 3.0, 4.0, 4.0, 7.0, 8.0]))
    seen = []
    f = tracer.wrap(
        "f",
        lambda x: x * 2,
        before=lambda args: args[0] + 1,
        observer=lambda args, result, state: seen.append((result, state)),
    )
    with tracer.span("outer") as outer:
        assert f(5) == 10
    assert seen == [(10, 6)]
    t = totals(tracer.spans)
    assert t["f"] == pytest.approx((1, 1.0, 1.0))
    assert t[BOOKKEEPING] == pytest.approx((2, 5.0, 5.0))
    assert self_times(tracer.spans)[outer.id] == pytest.approx(8.0 - 1.0 - 5.0)


def test_span_closed_out_of_order_raises():
    tracer = Tracer()
    first = tracer.open("first")
    tracer.open("second")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_patcher_swaps_every_binding_and_restores(fs):
    original = fs["losses"].wasserstein2
    with Patcher("fairshift") as patcher:
        patcher.patch_function(fs["losses"], "wasserstein2", lambda fn: "wrapped")
        assert fs["losses"].wasserstein2 == "wrapped"
        assert fs["training"].wasserstein2 == "wrapped"
    assert fs["losses"].wasserstein2 is original
    assert fs["training"].wasserstein2 is original


def test_inputs_are_seeded(fs):
    assert inputs.run_seeds(3) == inputs.run_seeds(3)
    assert inputs.run_seeds(3) != inputs.run_seeds(4)
    groups = fs["data"].make_synthetic_asymmetric_labeled(3, inputs.ASYM_N_PER_GROUP)[1].groups
    idx = inputs.target_index(groups, 3)
    assert [int((groups[idx] == g).sum()) for g in (0, 1)] == list(inputs.ASYM_TARGET_GROUPS)
    assert (idx == inputs.target_index(groups, 3)).all()
    header, matrix = inputs.adult_like_pool(5)
    assert matrix.shape == (inputs.POOL_ROWS, 97 + 2)
    assert header[-2:] == ["group", "label"]
    again = inputs.adult_like_pool(5)[1]
    assert (matrix == again).all()
    assert not (matrix == inputs.adult_like_pool(6)[1]).all()
    kinds = fs["data"].infer_feature_kinds(matrix[:, :-2])
    assert kinds.count("continuous") == 6 and kinds.count("categorical") == 91
    from fairshift.config import experiment_spec_from_dict, parse_kv_text

    text = inputs.experiment_config_text(5)
    spec = experiment_spec_from_dict(parse_kv_text(text), dataset="pool.csv")
    assert spec.methods == inputs.SWEEP_METHODS
    assert (spec.gammas, spec.ms, spec.repetitions) == ((10,), (50,), 1)


def _traced_iteration(fs, wl, **kwargs):
    tracer = Tracer()
    patcher, counters = instrument(tracer, fs, **kwargs)
    with patcher:
        it = wl.iteration(tracer, workers=1)
    return tracer, counters, it


@pytest.mark.parametrize("methods", [("ours",), ("erm", "zsa")])
def test_smoke_asym(fs, methods):
    wl = AsymWorkload(fs, 7, methods, runs=2, train_overrides=SMALL_TRAIN)
    assert not wl.setup().problems
    plain = wl.iteration()
    tracer, counters, it = _traced_iteration(fs, wl)
    assert not plain.problems and not it.problems
    assert it.attempted == it.completed == 2 * len(methods)
    w2 = per_run_counts(tracer.spans, "losses.w2")
    table = layer_metrics(tracer.spans, counters, it.wall_s)
    if methods == ("ours",):
        # one adaptation epoch over 600 rows in 256-row batches
        assert w2 == {1: 3, 2: 3}
        # 26 vs 24 target points: every solve is the transport LP
        assert (counters.lp_calls, counters.assign_calls) == (6, 0)
        assert 0.0 <= table["losses.coupling_support_reuse_frac"][0] <= 1.0
        assert table["nets.weight_forward_calls"][0] > 0
    else:
        assert w2 == {} and counters.lp_calls == counters.assign_calls == 0
    assert table["training.train_calls"][0] == 2 * len(methods)
    assert table["autodiff.backward_calls"][0] == table["nets.adam_steps"][0] > 0
    assert 0.0 < table["training.self_s"][0] < table["training.train_s"][0]


def test_smoke_sweep(fs, workdir):
    wl = SweepWorkload(fs, 7, str(workdir), 2, rows=400, extra_config=SMALL_SWEEP)
    assert not wl.setup().problems
    pooled = wl.iteration()
    tracer, counters, it = _traced_iteration(fs, wl, run_marker="splitter.split")
    assert not pooled.problems and not it.problems
    assert it.attempted == it.completed == len(inputs.SWEEP_METHODS)
    table = layer_metrics(tracer.spans, counters, it.wall_s)
    assert table["data.load_csv_calls"][0] == 1
    assert table["splitter.split_calls"][0] == len(inputs.SWEEP_METHODS)
    assert sorted(per_run_counts(tracer.spans, "training.train")) == [1, 2, 3, 4]
    assert set(per_run_counts(tracer.spans, "losses.w2")) == {1, 3}  # ours, kliep_iw


def test_corrupted_runs_csv_fails(fs, workdir, monkeypatch):
    wl = SweepWorkload(fs, 8, str(workdir), 1, rows=400, extra_config=SMALL_SWEEP)
    wl.setup()
    assert not wl.iteration().problems
    real = fs["cli"].write_run_csv

    def corrupting(path, rows):
        real(path, rows)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")

    monkeypatch.setattr(fs["cli"], "write_run_csv", corrupting)
    problems = wl.iteration().problems
    assert any("differs" in p for p in problems)


def test_corrupted_digest_fails(fs, monkeypatch):
    wl = AsymWorkload(fs, 9, ("erm",), runs=1, train_overrides=SMALL_TRAIN)
    assert not wl.iteration().problems
    real = fs["training"].train

    def corrupting(*args, **kwargs):
        model = real(*args, **kwargs)
        model.param_digests[-1] = "0" * 64
        return model

    monkeypatch.setattr(fs["training"], "train", corrupting)
    problems = wl.iteration().problems
    assert any("param_digests" in p for p in problems)


def test_out_of_range_metrics_count_as_failed():
    assert run.quantile_note(list(range(20)), 0.9) is None
    from workloads import range_problems

    good = {name: 1.0 for name in ("error_pct", "eodds", "acc_parity_pct")}
    good.update(error_group0_pct=0.0, error_group1_pct=100.0)
    assert range_problems(good) == []
    assert range_problems({**good, "eodds": 1.5})
    assert range_problems({**good, "error_pct": float("nan")})


def test_refuses_to_run_without_the_package(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "erm_asym", "--seed", "1"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", "0"],
        cwd=workdir,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
