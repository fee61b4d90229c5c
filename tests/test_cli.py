import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import fairshift
from fairshift.cli import _load_trained, main
from fairshift.data import (
    load_csv,
    load_unlabeled_csv,
    make_synthetic_asymmetric_labeled,
    write_csv,
)
from fairshift.training import METHODS, TrainConfig


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


# each hostile input through the CLI: (id, argv, exit code, the text that names
# the cause); {name} is a file of the hostile_files fixture, {out} a fresh directory,
# and a case may repeat an option of TRAIN: argparse keeps its last value
TRAIN = ["train", "--target", "{target}", "--config", "{quick}", "--out", "{out}"]
HOSTILE_INPUTS = [
    ("text-cell", TRAIN + ["--data", "{text_cell}", "--method", "erm"], 1,
     "non-numeric cell 'abc' at row 2, column 'f0'"),
    ("nan-cell", TRAIN + ["--data", "{nan_cell}", "--method", "erm"], 1,
     "non-finite cell 'nan' at row 2, column 'f0'"),
    ("inf-cell", TRAIN + ["--data", "{inf_cell}", "--method", "erm"], 1,
     "non-finite cell 'inf' at row 2, column 'f0'"),
    ("constant-column", TRAIN + ["--data", "{constant}", "--method", "ours"], 0,
     "trained ours for 4 epochs"),
    *(
        (f"one-label-{method}", TRAIN + ["--data", "{one_label}", "--method", method], 1,
         "the source holds only label 0; training needs both labels")
        for method in METHODS
    ),
    ("evaluate-one-label", ["evaluate", "--checkpoint", "{checkpoint}", "--data", "{one_label}"],
     1, "the evaluation data has no rows with group=0, label=1; "
     "equalized odds needs every (group, label) cell"),
    ("ours-one-group-target",
     TRAIN + ["--data", "{source}", "--target", "{one_group}", "--method", "ours"], 1,
     "target must contain both groups"),
    ("zsa-one-group-target",
     TRAIN + ["--data", "{source}", "--target", "{one_group}", "--method", "zsa"], 0,
     "trained zsa for 4 epochs"),
    ("m-cap-above-target", TRAIN + ["--data", "{source}", "--config", "{big_m}"], 1,
     "m_cap=1000 exceeds available target points (160)"),
    ("zero-epochs", TRAIN + ["--data", "{source}", "--config", "{no_epochs}"], 1,
     "pretrain_epochs + adapt_epochs must be >= 1, got 0 + 0"),
    ("negative-seed", TRAIN + ["--data", "{source}", "--seed", "-1"], 1,
     "seed must be >= 0, got -1"),
    # wrong-typed config values: one ValueError naming the field
    ("none-lambda1", TRAIN + ["--data", "{source}", "--config", "{none_lambda1}"], 1,
     "lambda1 must be float, got None"),
    ("float-batch-size", TRAIN + ["--data", "{source}", "--config", "{float_batch}"], 1,
     "batch_size must be int, got 3.5"),
    ("float-m-cap", TRAIN + ["--data", "{source}", "--config", "{float_m_cap}"], 1,
     "m_cap must be int, got 2.5"),
    ("bool-lambda2", TRAIN + ["--data", "{source}", "--config", "{bool_lambda2}"], 1,
     "lambda2 must be float, got True"),
    ("float-split-seed", ["split", "--data", "{source}", "--config", "{float_seed}",
                          "--out", "{out}"], 1, "seed must be int, got 1.5"),
    *(
        (f"experiment-{name}", ["experiment", "--data", "{source}", "--config", f"{{{name}}}",
                                "--out", "{out}"], 1, cause)
        for name, cause in (
            ("text_ms", "ms entries must be int, got 'abc'"),
            ("float_reps", "repetitions must be int, got 2.5"),
            ("float_train_seed", "seed must be int, got 1.5"),
        )
    ),
    ("experiment-no-dataset", ["experiment", "--config", "{no_dataset}", "--out", "{out}"], 1,
     "missing ExperimentSpec keys: ['dataset']"),
    ("experiment-zero-workers", ["experiment", "--data", "synthetic:asymmetric", "--out", "{out}",
                                 "--workers", "0"], 1, "workers must be >= 1, got 0"),
    ("ours-without-target", ["train", "--data", "{source}", "--method", "ours", "--out", "{out}"],
     1, "method 'ours' requires target data"),
    *(
        (f"variance-study-{name}", ["variance-study", "--config", f"{{{name}}}", "--out", "{out}"],
         1, cause)
        for name, cause in (
            ("text_ms", "ms entries must be int, got 'abc'"),
            ("float_n", "n must be int, got 2.5"),
            ("typo_gammas", "unknown variance-study keys: ['gamas']"),
        )
    ),
    *(
        (f"evaluate-{name}", ["evaluate", "--checkpoint", f"{{{name}}}", "--data", "{source}"], 1,
         cause)
        for name, cause in (
            ("no_predictor", "checkpoint has no 'predictor'"),
            ("no_params", "checkpoint predictor has no 'params'"),
            ("text_rep_dim", "rep_dim must be int, got '8'"),
            ("short_w3", "checkpoint predictor params 'w3' must be a (64, 32) array of numbers"),
            ("text_weight_dim", "weight_net input_dim and hidden_dim must be ints >= 1"),
        )
    ),
]


@pytest.fixture()
def hostile_files(source_and_target_csv, tmp_path):
    source_path, target_path, _ = source_and_target_csv
    source = load_csv(source_path)
    files = {"source": source_path, "target": target_path}
    lines = source_path.read_text().splitlines()
    for name, cell in (("text_cell", "abc"), ("nan_cell", "nan"), ("inf_cell", "inf")):
        bad = lines[:2] + [cell + "," + lines[2].split(",", 1)[1]] + lines[3:]
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("\n".join(bad) + "\n")
    constant = source.features.copy()
    constant[:, 0] = 3.0
    for name, data in (
        ("constant", replace(source, features=constant)),
        ("one_label", replace(source, labels=np.zeros(source.n, dtype=np.int64))),
    ):
        files[name] = tmp_path / f"{name}.csv"
        write_csv(files[name], data)
    target = load_unlabeled_csv(target_path)
    files["one_group"] = tmp_path / "one_group.csv"
    write_csv(files["one_group"], target.subset(np.flatnonzero(target.groups == 0)))
    for name, text in (
        ("quick", "pretrain_epochs = 2\nadapt_epochs = 2\nm_cap = 30\n"),
        ("big_m", "pretrain_epochs = 2\nadapt_epochs = 2\nm_cap = 1000\n"),
        ("no_epochs", "pretrain_epochs = 0\nadapt_epochs = 0\n"),
        ("none_lambda1", "lambda1 = none\n"),
        ("float_batch", "batch_size = 3.5\n"),
        ("float_m_cap", "m_cap = 2.5\n"),
        ("bool_lambda2", "lambda2 = true\n"),
        ("float_seed", "seed = 1.5\n"),
        ("text_ms", "ms = abc\n"),
        ("float_reps", "repetitions = 2.5\n"),
        ("float_train_seed", "train.seed = 1.5\n"),
        ("no_dataset", "methods = erm\nrepetitions = 1\n"),
        ("float_n", "n = 2.5\n"),
        ("typo_gammas", "gamas = 2.0\n"),
    ):
        files[name] = tmp_path / f"{name}.cfg"
        files[name].write_text(text)
    files["checkpoint"] = tmp_path / "erm" / "checkpoint.json"
    main(["train", "--data", str(source_path), "--method", "erm", "--config",
          str(files["quick"]), "--out", str(files["checkpoint"].parent)])
    # checkpoints of the wrong structure
    files["no_predictor"] = tmp_path / "no_predictor.json"
    files["no_predictor"].write_text('{"format_version": 1}')
    trained = json.loads(files["checkpoint"].read_text())
    config, params = trained["predictor"]["config"], trained["predictor"]["params"]
    for name, part, value in (
        ("no_params", "predictor", {"config": config}),
        ("text_rep_dim", "predictor", {"config": {**config, "rep_dim": "8"}, "params": params}),
        ("short_w3", "predictor", {"config": config, "params": {**params, "w3": [[0.0]]}}),
        ("text_weight_dim", "weight_net", {"input_dim": "64", "hidden_dim": 32}),
    ):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({**trained, part: value}))
    return files


@pytest.mark.parametrize(
    "argv,code,cause", [case[1:] for case in HOSTILE_INPUTS], ids=[c[0] for c in HOSTILE_INPUTS]
)
def test_hostile_input(hostile_files, tmp_path, capsys, argv, code, cause):
    capsys.readouterr()
    values = {**hostile_files, "out": tmp_path / "out"}
    with np.errstate(all="raise"):
        assert main([arg.format(**values) for arg in argv]) == code
    printed = capsys.readouterr()
    assert cause in (printed.err if code else printed.out)
    if code:
        assert printed.err.startswith("error: ") and "Traceback" not in printed.err


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


def test_readme_python_compiles_and_imports_public_names_only():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    imported = []
    for block in blocks:
        compile(block, "README.md", "exec")
        imported += [
            alias.name
            for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "fairshift"
            for alias in node.names
        ]
    assert imported
    assert [name for name in imported if not hasattr(fairshift, name)] == []
