import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fairshift
from fairshift.cli import _load_trained, main
from fairshift.data import load_csv, make_synthetic_asymmetric_labeled, write_csv
from fairshift.training import TrainConfig


@pytest.fixture()
def pool_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "pool.csv"
    with open(path, "w") as fh:
        fh.write("f0,f1,f2,group,label\n")
        for _ in range(250):
            x = rng.normal(size=3)
            fh.write(
                ",".join(map(repr, map(float, x)))
                + f",{rng.integers(0, 2)},{int(x[1] > 0)}\n"
            )
    return path


@pytest.fixture()
def source_and_target_csv(tmp_path):
    source, test = make_synthetic_asymmetric_labeled(0, 80)
    source_path = tmp_path / "source.csv"
    target_path = tmp_path / "target.csv"
    eval_path = tmp_path / "eval.csv"
    write_csv(source_path, source)
    write_csv(target_path, test.without_labels())
    write_csv(eval_path, test)
    return source_path, target_path, eval_path


def test_split_writes_indices_and_summary(pool_csv, tmp_path, capsys):
    out = tmp_path / "split_out"
    code = main(
        ["split", "--data", str(pool_csv), "--out", str(out), "--seed", "3", "--gamma", "10"]
    )
    assert code == 0
    train_idx = [int(line) for line in (out / "train_idx.txt").read_text().splitlines()]
    val_idx = [int(line) for line in (out / "val_idx.txt").read_text().splitlines()]
    test_idx = [int(line) for line in (out / "test_idx.txt").read_text().splitlines()]
    assert len(test_idx) == round(0.4 * 250)
    assert sorted(train_idx + val_idx + test_idx) == list(range(250))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma"] == 10.0
    assert summary["counts"]["train"] == len(train_idx)
    assert "log_z" in summary


def test_train_and_evaluate_round_trip(source_and_target_csv, tmp_path, capsys):
    source_path, target_path, eval_path = source_and_target_csv
    cfg = tmp_path / "train.cfg"
    cfg.write_text("pretrain_epochs = 2\nadapt_epochs = 2\nm_cap = 30\nlambda2 = 0.3\n")
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--data", str(source_path),
            "--target", str(target_path),
            "--config", str(cfg),
            "--method", "ours",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "checkpoint.json").exists()
    history = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
    assert len(history) == 4
    assert {"epoch", "erm", "total", "epoch_s"} <= set(history[0])

    code = main(
        [
            "evaluate",
            "--checkpoint", str(out / "checkpoint.json"),
            "--data", str(eval_path),
            "--seed", "1",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    source = load_csv(source_path)
    digest = hashlib.sha256(
        source.features.astype(np.float64).tobytes() + source.labels.astype(np.int64).tobytes()
    ).hexdigest()
    assert json.loads((out / "checkpoint.json").read_text())["extra"]["train_data_sha256"] == digest
    assert f"trained on data sha256={digest}" in printed
    assert printed[-2].startswith("method,seed,gamma,error_pct")
    fields = printed[-1].split(",")
    assert fields[0] == "ours"
    assert 0.0 <= float(fields[3]) <= 100.0

    trained = TrainConfig(
        pretrain_epochs=2, adapt_epochs=2, m_cap=30, lambda2=0.3, method="ours", seed=1
    )
    checkpoint = out / "checkpoint.json"
    assert _load_trained(checkpoint)[0].config == trained
    # a checkpoint written before the config was stored rebuilds the method only
    payload = json.loads(checkpoint.read_text())
    del payload["extra"]["config"]
    del payload["extra"]["train_data_sha256"]
    checkpoint.write_text(json.dumps(payload))
    assert _load_trained(checkpoint)[0].config == TrainConfig(method="ours")
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(eval_path)]) == 0
    assert "trained on data sha256=unrecorded" in capsys.readouterr().out.splitlines()


def test_experiment_and_pareto_commands(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = synthetic:asymmetric\n"
        "methods = erm, ours\n"
        "gammas = 4.0\n"
        "lambda1s = 0.1\n"
        "lambda2s = 0.5\n"
        "ms = 30\n"
        "n_per_group = 60\n"
        "train.pretrain_epochs = 2\n"
        "train.adapt_epochs = 2\n"
    )
    out = tmp_path / "exp_out"
    code = main(
        ["experiment", "--config", str(cfg), "--out", str(out), "--reps", "2", "--seed", "0"]
    )
    assert code == 0
    assert (out / "runs.csv").exists()
    # header + one row per run (2 methods x 2 reps)
    assert (out / "timings.csv").read_text().count("\n") == 5
    agg = out / "aggregate.csv"
    assert agg.exists()

    pareto_out = tmp_path / "pareto.csv"
    code = main(["pareto", "--input", str(agg), "--out", str(pareto_out)])
    assert code == 0
    assert pareto_out.read_text().count("\n") >= 2  # header + at least one row


def test_experiment_partial_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = synthetic:asymmetric\n"
        "methods = ours\n"
        "ms = 10000\n"  # exceeds the synthetic target pool: every run fails
        "n_per_group = 60\n"
        "train.pretrain_epochs = 1\n"
        "train.adapt_epochs = 1\n"
    )
    out = tmp_path / "exp_out"
    code = main(["experiment", "--config", str(cfg), "--out", str(out), "--reps", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "m_cap" in err
    failures_path = out / "failures.jsonl"
    assert str(failures_path) in err
    failures = [json.loads(line) for line in failures_path.read_text().splitlines()]
    assert [(f["method"], f["rep"], f["seed"]) for f in failures] == [("ours", 0, 0), ("ours", 1, 1)]
    assert {f["m"] for f in failures} == {10000}
    assert {f["exception"] for f in failures} == {"ValueError"}
    assert all(f["traceback"].startswith("Traceback") for f in failures)
    assert all("m_cap" in f["traceback"].splitlines()[-1] for f in failures)

    # a clean rerun into the same directory empties the file
    cfg.write_text(cfg.read_text().replace("ms = 10000", "ms = 30"))
    code = main(["experiment", "--config", str(cfg), "--out", str(out), "--reps", "1"])
    assert code == 0
    assert failures_path.read_text() == ""
    assert "failures.jsonl" not in capsys.readouterr().err


def test_experiment_rejects_workers_below_one(tmp_path, capsys):
    out = tmp_path / "exp_out"
    code = main(
        ["experiment", "--data", "synthetic:asymmetric", "--out", str(out), "--workers", "0"]
    )
    assert code == 1
    assert "workers" in capsys.readouterr().err


def test_usage_errors_reported_cleanly(source_and_target_csv, tmp_path, capsys):
    source_path, _, _ = source_and_target_csv
    # ours requires target data: clean message and exit 1, no traceback
    code = main(
        ["train", "--data", str(source_path), "--method", "ours", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "requires target" in capsys.readouterr().err


def test_train_rejects_non_finite_cell(source_and_target_csv, tmp_path, capsys):
    source_path, _, _ = source_and_target_csv
    lines = source_path.read_text().splitlines()
    lines[2] = "inf," + lines[2].split(",", 1)[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["train", "--data", str(bad), "--method", "erm", "--out", str(tmp_path / "x")])
    assert code == 1
    column = lines[0].split(",")[0]
    assert f"non-finite cell 'inf' at row 2, column '{column}'" in capsys.readouterr().err


def test_variance_study_command(tmp_path):
    cfg = tmp_path / "var.cfg"
    cfg.write_text("gammas = 2.0\nms = 10, 20\nn = 100\n")
    out = tmp_path / "var_out"
    code = main(
        ["variance-study", "--config", str(cfg), "--out", str(out), "--reps", "4", "--seed", "1"]
    )
    assert code == 0
    lines = (out / "variance.csv").read_text().splitlines()
    assert lines[0].startswith("gamma,m,n,repetitions")
    assert len(lines) == 3


def test_variance_study_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "var.cfg"
    cfg.write_text("gamas = 2.0\n")
    code = main(["variance-study", "--config", str(cfg), "--out", str(tmp_path / "var_out")])
    assert code == 1
    assert "gamas" in capsys.readouterr().err


def test_importing_the_package_loads_no_scipy():
    code = (
        "import sys, fairshift, fairshift.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(fairshift.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
