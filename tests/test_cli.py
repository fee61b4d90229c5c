import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import fairshift
from fairshift.cli import main
from fairshift.data import (
    CATEGORICAL,
    load_csv,
    load_unlabeled_csv,
    make_synthetic_asymmetric_labeled,
    write_csv,
)
from fairshift.experiment import AGGREGATE_COLUMNS, write_aggregate_csv
from fairshift.nets import WeightNetwork
from fairshift.training import METHODS, TrainConfig, load_checkpoint


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


def _write_source_and_target(directory):
    """``source.csv``, ``target.csv`` and ``eval.csv`` of one asymmetric draw, in ``directory``."""
    source, test = make_synthetic_asymmetric_labeled(0, 80)
    paths = [directory / name for name in ("source.csv", "target.csv", "eval.csv")]
    for path, data in zip(paths, (source, test.without_labels(), test)):
        write_csv(path, data)
    return paths


@pytest.fixture()
def source_and_target_csv(tmp_path):
    return _write_source_and_target(tmp_path)


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
    assert re.fullmatch(
        rf"trained ours for 4 epochs, weight ESS \d+\.\d of 30 -> {re.escape(str(out))}",
        capsys.readouterr().out.strip(),
    )
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
    assert load_checkpoint(checkpoint)[0].config == trained
    # a checkpoint saved from Python records no data digest
    payload = json.loads(checkpoint.read_text())
    del payload["extra"]["train_data_sha256"]
    checkpoint.write_text(json.dumps(payload))
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


def test_pareto_leaves_out_points_without_an_ok_run(tmp_path, capsys):
    nan = float("nan")
    rows = []
    for method, error, ok_runs in (("erm", 20.0, 2), ("ours", nan, 0)):
        row = dict.fromkeys(AGGREGATE_COLUMNS, 0.0 if ok_runs else nan)
        row.update(method=method, m=30, repetitions=2, ok_runs=ok_runs, status="complete")
        row.update(error_pct_mean=error, eodds_mean=0.1 if ok_runs else nan)
        rows.append(row)
    rows[1]["status"] = "partial"
    agg, out = tmp_path / "aggregate.csv", tmp_path / "pareto.csv"
    write_aggregate_csv(agg, rows)
    assert main(["pareto", "--input", str(agg), "--out", str(out)]) == 0
    assert "1/2 rows on the frontier" in capsys.readouterr().out
    assert out.read_text().splitlines() == agg.read_text().splitlines()[:2]


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



def test_a_gamma_that_flattens_a_synthetic_source_fails_its_run(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = synthetic:asymmetric\n"
        "methods = erm,\n"
        "gammas = 1e6\n"
        "train.pretrain_epochs = 3\n"
        "train.adapt_epochs = 0\n"
    )
    out = tmp_path / "exp_out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--reps", "1"]) == 2
    cause = r"gamma=1000000\.0: the source keeps a std of at most \S+ < 0\.1 in every column"
    assert re.search(f"run failed: method=erm gamma=1000000.0 rep=0: ValueError: {cause}",
                     capsys.readouterr().err)
    (failure,) = [json.loads(line) for line in (out / "failures.jsonl").read_text().splitlines()]
    assert re.match(cause, failure["message"])
    (row,) = (out / "runs.csv").read_text().splitlines()[1:]
    assert row.startswith("erm,1000000.0,") and ",failed," in row


def test_a_gamma_that_overflows_a_gaussian_pool_fails_its_run(tmp_path, capsys):
    out = tmp_path / "exp_out"
    argv = ["experiment", "--data", "synthetic:gaussian", "--method", "erm", "--gamma", "1e200",
            "--reps", "1", "--out", str(out)]
    assert main(argv) == 2
    cause = "feature column 0: its mean or std overflows float64"
    assert f"run failed: method=erm gamma=1e+200 rep=0: ValueError: {cause}\n" in (
        capsys.readouterr().err
    )
    (row,) = (out / "runs.csv").read_text().splitlines()[1:]
    assert row.startswith("erm,1e+200,") and ",failed," in row


# each hostile input through the CLI: (id, argv, exit code, the text that names
# the cause); {name} is a file of the hostile_files fixture, {out} a fresh directory,
# and a case may repeat an option of TRAIN: argparse keeps its last value
TRAIN = ["train", "--target", "{target}", "--config", "{quick}", "--out", "{out}"]
# each nested key that a sweep's grid sets for every run, a value other than its
# default, and the key that sets it
GRID_OWNED_KEYS = [
    ("train.method", "zsa", "methods"),
    ("train.lambda1", "0.7", "lambda1s"),
    ("train.lambda2", "0.5", "lambda2s"),
    ("train.m_cap", "7", "ms"),
    ("train.seed", "99", "base_seed"),
    ("shift.gamma", "3.0", "gammas"),
    ("shift.seed", "5", "base_seed"),
]
HOSTILE_INPUTS = [
    ("text-cell", TRAIN + ["--data", "{text_cell}", "--method", "erm"], 1,
     "non-numeric cell 'abc' at row 2, column 'f0'"),
    ("nan-cell", TRAIN + ["--data", "{nan_cell}", "--method", "erm"], 1,
     "non-finite cell 'nan' at row 2, column 'f0'"),
    ("inf-cell", TRAIN + ["--data", "{inf_cell}", "--method", "erm"], 1,
     "non-finite cell 'inf' at row 2, column 'f0'"),
    ("constant-column", TRAIN + ["--data", "{constant}", "--method", "ours"], 0,
     "trained ours for 4 epochs"),
    # a column holding 1e200 and -1e200, whose square overflows
    ("split-huge-column", ["split", "--data", "{huge_column}", "--out", "{out}"], 1,
     "the feature covariance overflows float64"),
    ("zsa-huge-column", TRAIN + ["--data", "{huge_column}", "--method", "zsa"], 1,
     "feature column 0: its mean or std overflows float64"),
    ("experiment-huge-column", ["experiment", "--data", "{huge_column}", "--method", "erm",
                                "--reps", "1", "--out", "{out}"], 1,
     "feature column 0: its mean or std overflows float64"),
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
    # a target with one feature column more than the source
    *(
        (f"wide-target-{method}",
         TRAIN + ["--data", "{source}", "--target", "{wide_target}", "--method", method], 1,
         "the target has 3 feature columns and the source 2; both must hold the same features")
        for method in ("zsa", "ours", "kliep_iw")
    ),
    # a labeled CSV as the target, whose label column would read as a third feature
    ("labeled-target", TRAIN + ["--data", "{source}", "--target", "{source}"], 1,
     "source.csv has a 'label' column; an unlabeled file has none"),
    ("m-cap-above-target", TRAIN + ["--data", "{source}", "--config", "{big_m}"], 1,
     "m_cap=1000 exceeds available target points (160)"),
    ("m-cap-one", TRAIN + ["--data", "{source}", "--config", "{one_m}"], 1,
     "m_cap=1 is too small: the target subsample needs 2 points"),
    # a run whose steps overflow names the epoch, not numpy's operands; a
    # weight_decay of 1e300 fails the config instead, before any step
    *(
        (f"diverging-{name}", TRAIN + ["--data", "{source}", "--config", f"{{huge_{name}}}"], 1,
         cause)
        for name, cause in (
            ("learning_rate", "training diverged at epoch 0: overflow encountered in matmul"),
            ("weight_decay", "learning_rate * weight_decay must be < 1, got 0.001 * 1e+300"),
            ("c1", "training diverged at epoch 1: non-finite gradient norm"),
            ("lambda2", "training diverged at epoch 1: non-finite gradient norm"),
        )
    ),
    # decay that zeroes or flips every parameter at each step would train a
    # constant predictor, which scores as perfectly fair
    ("zeroing-decay", TRAIN + ["--data", "{source}", "--config", "{unit_decay}"], 1,
     "learning_rate * weight_decay must be < 1, got 1 * 1: "
     "each step would zero or flip every parameter"),
    ("decay-of-1000", TRAIN + ["--data", "{source}", "--config", "{big_decay}"], 1,
     "learning_rate * weight_decay must be < 1, got 0.001 * 1000: "),
    # the second 'group' column would silently become a feature
    ("repeated-column", TRAIN + ["--data", "{repeated_column}", "--method", "erm"], 1,
     "repeated_column.csv: column 'group' appears more than once in the header"),
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
            # a bad grid entry raises before the first run of the good ones
            ("bogus_method", "methods entry 1: unknown method 'bogus'"),
            ("negative_lambda1", "lambda1s entry 1: lambda1 must be >= 0, got -0.5"),
            ("zero_m", "ms entry 0: m_cap must be >= 1, got 0"),
            ("negative_gamma", "gammas entries must be >= 0, got -1"),
            # the synthetic generators need 10 points per group
            ("small_n", "n_per_group must be >= 10, got 5"),
        )
    ),
    # the grid sets each of these for every run, so a file's value would be dropped
    *(
        (f"experiment-owned-{key}", ["experiment", "--data", "{source}", "--config",
                                     f"{{owned_{key.replace('.', '_')}}}", "--out", "{out}"], 1,
         f"{key} is set for each run by {owner}; set {owner} instead")
        for key, _, owner in GRID_OWNED_KEYS
    ),
    # a synthetic task draws its own shift, and a CSV pool has its own size
    ("experiment-synthetic-shift-key", ["experiment", "--data", "synthetic:asymmetric",
                                        "--config", "{synthetic_shift}", "--out", "{out}"], 1,
     "shift.test_fraction is read by no run: dataset 'synthetic:asymmetric' draws its own shift"),
    ("experiment-pool-n-per-group", ["experiment", "--data", "{source}", "--config",
                                     "{pool_n_per_group}", "--out", "{out}"], 1,
     "n_per_group is read by no run: dataset '{source}' is a CSV pool"),
    ("experiment-negative-gamma-flag", ["experiment", "--data", "{source}", "--gamma", "-1",
                                        "--out", "{out}"], 1,
     "gammas entries must be >= 0, got -1.0"),
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
            ("typo_gammas", "unknown VarianceStudySpec keys: ['gamas']"),
            # every exact target/source ratio underflows to 0: no spread to report
            ("huge_gamma", "gamma=1000000.0: every exact ratio of a source draw underflows to 0"),
        )
    ),
    *(
        (f"pareto-{name}", ["pareto", "--input", f"{{{name}}}", "--out", "{out}"], 1, cause)
        for name, cause in (
            ("runs_csv", "does not have the aggregate columns"),
            ("short_row", "line 2: expected 18 fields"),
            ("long_row", "line 2: expected 18 fields"),
        )
    ),
    *(
        (f"evaluate-{name}", ["evaluate", "--checkpoint", f"{{{name}}}", "--data", "{source}"], 1,
         cause)
        for name, cause in (
            ("no_predictor", "checkpoint has no 'predictor'"),
            ("no_w3", "checkpoint predictor 'w3' must be a (64, 32) array of finite numbers"),
            # every shape comes from the stored TrainConfig, checked by its own rules
            ("text_rep_dim", "rep_dim must be int, got '8'"),
            ("negative_hidden_dim", "hidden_dim must be >= 1, got -1"),
            ("big_dropout", "dropout_rate must lie in [0, 1), got 7.0"),
            ("text_weight_hidden_dim", "weight_hidden_dim must be int, got '32'"),
            ("text_input_dim", "checkpoint input_dim must be an int >= 1, got '2'"),
            ("short_w3", "checkpoint predictor 'w3' must be a (64, 32) array of finite numbers"),
            ("text_b1", "checkpoint predictor 'b1' must be a (64,) array of finite numbers"),
            ("nan_w1", "checkpoint predictor 'w1' must be a (2, 64) array of finite numbers"),
            ("inf_weight_w1",
             "checkpoint weight_net 'w1' must be a (2, 32) array of finite numbers"),
            ("int_extra", "checkpoint extra must be a mapping, got 5"),
            ("no_stds", "checkpoint input_stats 'stds' must be a (2,) array of finite numbers"),
            ("inf_means", "checkpoint input_stats 'means' must be a (2,) array of finite numbers"),
            ("zero_stds", "checkpoint input_stats stds must be strictly positive"),
            ("list_config", "checkpoint config must be a mapping, got [1]"),
            ("no_config", "checkpoint has no 'config'"),
            # each optional part is there exactly when the config calls for it
            ("zsa_no_input_stats", "checkpoint has no 'input_stats', which method 'zsa' reads"),
            ("erm_input_stats", "checkpoint has 'input_stats', which method 'erm' never reads"),
            ("erm_weight_net", "checkpoint has a weight_net, which its 'erm' run never trains"),
            ("version_1", "unsupported checkpoint version: 1"),
            ("unknown_key", "unknown checkpoint keys: ['notes']"),
        )
    ),
    # a zsa checkpoint standardizes a batch of the wrong width before its predictor sees it
    ("evaluate-zsa-wide", ["evaluate", "--checkpoint", "{zsa_checkpoint}", "--data",
                           "{wide_source}"], 1,
     "dimension mismatch: data has 3 columns, stats have 2"),
    # a malformed kinds sidecar next to the source CSV names the sidecar file
    *(
        (f"sidecar-{name}", TRAIN + ["--data", f"{{sidecar_{name}}}", "--method", "erm"], 1,
         cause)
        for name, cause in (
            ("list", "sidecar_list.csv.kinds.json: must map column names to kinds, got [1]"),
            ("unknown_column", "sidecar_unknown_column.csv.kinds.json: 'nope' is no feature column"),
            ("invalid_json", "sidecar_invalid_json.csv.kinds.json: invalid JSON: "),
        )
    ),
]


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory):
    # built once: no case writes to these files, and the checkpoints take two runs
    tmp_path = tmp_path_factory.mktemp("hostile")
    source_path, target_path, _ = _write_source_and_target(tmp_path)
    source = load_csv(source_path)
    files = {"source": source_path, "target": target_path}
    lines = source_path.read_text().splitlines()
    for name, cell in (("text_cell", "abc"), ("nan_cell", "nan"), ("inf_cell", "inf")):
        bad = lines[:2] + [cell + "," + lines[2].split(",", 1)[1]] + lines[3:]
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("\n".join(bad) + "\n")
    constant, huge = source.features.copy(), source.features.copy()
    constant[:, 0] = 3.0
    huge[:2, 0] = 1e200, -1e200
    for name, data in (
        ("constant", replace(source, features=constant)),
        ("huge_column", replace(source, features=huge)),
        ("one_label", replace(source, labels=np.zeros(source.n, dtype=np.int64))),
    ):
        files[name] = tmp_path / f"{name}.csv"
        write_csv(files[name], data)
    target = load_unlabeled_csv(target_path)
    files["one_group"] = tmp_path / "one_group.csv"
    write_csv(files["one_group"], target.subset(np.flatnonzero(target.groups == 0)))
    files["wide_target"] = tmp_path / "wide_target.csv"
    write_csv(files["wide_target"], replace(target, features=np.c_[target.features, target.groups]))
    files["wide_source"] = tmp_path / "wide_source.csv"
    wide = np.c_[source.features, source.groups]
    kinds = (*source.feature_kinds, CATEGORICAL)
    write_csv(files["wide_source"], replace(source, features=wide, feature_kinds=kinds))
    files["repeated_column"] = tmp_path / "repeated_column.csv"
    files["repeated_column"].write_text(
        "f0,group,group,label\n" + "".join(f"{i},{i % 2},{i // 2 % 2},{i % 3 % 2}\n"
                                           for i in range(12))
    )
    for name, text in (
        ("quick", "pretrain_epochs = 2\nadapt_epochs = 2\nm_cap = 30\n"),
        ("big_m", "pretrain_epochs = 2\nadapt_epochs = 2\nm_cap = 1000\n"),
        ("one_m", "pretrain_epochs = 2\nadapt_epochs = 2\nm_cap = 1\n"),
        *(
            (f"huge_{name}", f"pretrain_epochs = 1\nadapt_epochs = 2\n{name} = 1e300\n{extra}")
            for name, extra in (
                # without decay, which the product rule would refuse first
                ("learning_rate", "weight_decay = 0\n"),
                ("weight_decay", ""),
                ("c1", ""),
                ("lambda2", ""),
            )
        ),
        ("unit_decay", "pretrain_epochs = 1\nadapt_epochs = 2\nlearning_rate = 1\n"
                       "weight_decay = 1\n"),
        ("big_decay", "pretrain_epochs = 1\nadapt_epochs = 2\nweight_decay = 1000\n"),
        ("no_epochs", "pretrain_epochs = 0\nadapt_epochs = 0\n"),
        ("none_lambda1", "lambda1 = none\n"),
        ("float_batch", "batch_size = 3.5\n"),
        ("float_m_cap", "m_cap = 2.5\n"),
        ("bool_lambda2", "lambda2 = true\n"),
        ("float_seed", "seed = 1.5\n"),
        ("text_ms", "ms = abc\n"),
        ("float_reps", "repetitions = 2.5\n"),
        ("float_train_seed", "train.seed = 1.5\n"),
        ("bogus_method", "methods = ours, bogus\nrepetitions = 4\n"),
        ("negative_lambda1", "lambda1s = 0.1, -0.5\n"),
        ("zero_m", "ms = 0\n"),
        ("negative_gamma", "gammas = 10, -1\n"),
        ("small_n", "n_per_group = 5\n"),
        ("no_dataset", "methods = erm\nrepetitions = 1\n"),
        ("float_n", "n = 2.5\n"),
        ("typo_gammas", "gamas = 2.0\n"),
        ("huge_gamma", "gammas = 1e6\nms = 10\n"),
        # a one-run erm sweep, which would run at the grid's values if the key were dropped
        *(
            (f"owned_{key.replace('.', '_')}", "methods = erm\nrepetitions = 1\n"
             f"train.pretrain_epochs = 1\ntrain.adapt_epochs = 0\n{key} = {value}\n")
            for key, value, _ in GRID_OWNED_KEYS
        ),
        *(
            (name, "methods = erm\nrepetitions = 1\n"
             f"train.pretrain_epochs = 1\ntrain.adapt_epochs = 0\n{line}\n")
            for name, line in (
                ("synthetic_shift", "shift.test_fraction = 0.9"),
                ("pool_n_per_group", "n_per_group = 20"),
            )
        ),
    ):
        files[name] = tmp_path / f"{name}.cfg"
        files[name].write_text(text)
    header = ",".join(AGGREGATE_COLUMNS)
    for name, text in (
        ("runs_csv", "method,gamma\nerm,1.0\n"),
        ("short_row", f"{header}\nerm,1.0\n"),
        ("long_row", f"{header}\nerm" + ",1" * len(AGGREGATE_COLUMNS) + "\n"),
    ):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(text)
    files["checkpoint"] = tmp_path / "erm" / "checkpoint.json"
    main(["train", "--data", str(source_path), "--method", "erm", "--config",
          str(files["quick"]), "--out", str(files["checkpoint"].parent)])
    files["zsa_checkpoint"] = tmp_path / "zsa" / "checkpoint.json"
    main(["train", "--data", str(source_path), "--target", str(target_path), "--method", "zsa",
          "--config", str(files["quick"]), "--out", str(files["zsa_checkpoint"].parent)])
    # checkpoints of the wrong structure, each one change to a file that train wrote
    erm, zsa = (json.loads(files[name].read_text()) for name in ("checkpoint", "zsa_checkpoint"))
    config, params = erm["config"], erm["predictor"]
    kliep = {**config, "method": "kliep_iw"}
    weight_net = dict(zip(("w1", "b1", "w2", "b2"),
                          (p.value.tolist() for p in WeightNetwork(2, 0).parameters)))
    widths = ("hidden_dim", "rep_dim", "clf_hidden_dim", "weight_hidden_dim", "dropout_rate")
    version_1 = {  # the layout of format version 1
        "format_version": 1,
        "predictor": {"config": {"input_dim": 2, **{k: config[k] for k in widths}},
                      "params": params},
        "extra": {"method": "erm", "seed": config["seed"], "config": config, **erm["extra"]},
    }
    for name, base, changes in (
        ("no_predictor", erm, {"predictor": None}),
        ("no_w3", erm, {"predictor": {k: v for k, v in params.items() if k != "w3"}}),
        ("text_rep_dim", erm, {"config": {**config, "rep_dim": "8"}}),
        ("negative_hidden_dim", erm, {"config": {**config, "hidden_dim": -1}}),
        ("big_dropout", erm, {"config": {**config, "dropout_rate": 7.0}}),
        ("text_weight_hidden_dim", erm,
         {"config": {**kliep, "weight_hidden_dim": "32"}, "weight_net": weight_net}),
        ("text_input_dim", erm, {"input_dim": "2"}),
        ("short_w3", erm, {"predictor": {**params, "w3": [[0.0]]}}),
        ("text_b1", erm, {"predictor": {**params, "b1": [str(v) for v in params["b1"]]}}),
        ("nan_w1", erm,
         {"predictor": {**params, "w1": [[math.nan] + params["w1"][0][1:]] + params["w1"][1:]}}),
        ("inf_weight_w1", erm,
         {"config": kliep, "weight_net": {**weight_net, "w1": [[math.inf] * 32] * 2}}),
        ("int_extra", erm, {"extra": 5}),
        ("no_stds", zsa, {"input_stats": {"means": [0.0, 0.0]}}),
        ("inf_means", zsa, {"input_stats": {"means": [0.0, math.inf], "stds": [1.0, 1.0]}}),
        ("zero_stds", zsa, {"input_stats": {"means": [0.0, 0.0], "stds": [0.0, 1.0]}}),
        ("list_config", erm, {"config": [1]}),
        ("no_config", erm, {"config": None}),
        ("zsa_no_input_stats", zsa, {"input_stats": None}),
        ("erm_input_stats", erm, {"input_stats": zsa["input_stats"]}),
        ("erm_weight_net", erm, {"weight_net": weight_net}),
        ("version_1", version_1, {}),
        ("unknown_key", erm, {"notes": "x"}),
    ):
        payload = {**base, **changes}  # a change to None deletes the key
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
    for name, text in (
        ("list", "[1]"),
        ("unknown_column", '{"nope": "continuous"}'),
        ("invalid_json", '{"f0": '),
    ):
        files[f"sidecar_{name}"] = tmp_path / f"sidecar_{name}.csv"
        files[f"sidecar_{name}"].write_text(source_path.read_text())
        (tmp_path / f"sidecar_{name}.csv.kinds.json").write_text(text)
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
    assert cause.format(**values) in (printed.err if code else printed.out)
    if code:
        assert printed.err.startswith("error: ") and "Traceback" not in printed.err


@pytest.mark.parametrize("name", ["learning_rate", "c1", "lambda2"])
def test_a_diverging_run_prints_one_line_and_no_numpy_warning(hostile_files, tmp_path, capsys,
                                                              name):
    # numpy's default error handling, as on the command line; a warning fails this test
    capsys.readouterr()
    argv = [arg.format(**hostile_files, out=tmp_path / "out") for arg in TRAIN]
    assert main(argv + ["--data", str(hostile_files["source"]), "--config",
                        str(hostile_files[f"huge_{name}"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at epoch ") and err.count("\n") == 1


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


def test_a_variance_study_file_sets_repetitions_and_base_seed(tmp_path):
    grid = "gammas = 2.0\nms = 10\nn = 50\n"
    outputs = []
    for name, text, flags in (
        ("file", grid + "repetitions = 3\nbase_seed = 2\n", []),
        ("flags", grid, ["--reps", "3", "--seed", "2"]),
        # a flag overrides the file
        ("both", grid + "repetitions = 5\nbase_seed = 7\n", ["--reps", "3", "--seed", "2"]),
    ):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        assert main(["variance-study", "--config", str(cfg), "--out", str(out)] + flags) == 0
        outputs.append((out / "variance.csv").read_text())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].splitlines()[1].startswith("2.0,10,50,3,")


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
