"""Command-line entry points.

Subcommands: ``split``, ``train``, ``evaluate``, ``experiment``,
``variance-study``, ``pareto``.  All outputs are CSV/JSON/JSONL files
with stable headers.  Exit code 0 means full success; 2 means the sweep
completed with at least one failed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .config import config_from_dict, parse_kv_file
from .data import load_csv, load_unlabeled_csv
from .experiment import (
    ExperimentSpec,
    VarianceStudySpec,
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
from .metrics import evaluate_model
from .splitter import ShiftConfig, split, split_summary
from .training import TrainConfig, load_checkpoint, save_checkpoint, train


def _load_config(path):
    return parse_kv_file(path) if path else {}


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_split(args):
    data = load_csv(args.data)
    values = _load_config(args.config)
    cfg = config_from_dict(ShiftConfig, values, gamma=args.gamma, seed=args.seed)
    result = split(data, cfg)
    out = _ensure_out(args.out)
    for name, idx in (
        ("train_idx.txt", result.train_idx),
        ("val_idx.txt", result.val_idx),
        ("test_idx.txt", result.test_idx),
    ):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.writelines(f"{i}\n" for i in idx)
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(split_summary(result, cfg), fh, indent=2)
    print(f"split written to {out}: {result.counts()}")
    return 0


def _data_digest(data):
    """SHA-256 of a labeled set's features (float64) and labels (int64), row order."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.features, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(data.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def _cmd_train(args):
    source = load_csv(args.data)
    target = load_unlabeled_csv(args.target) if args.target else None
    values = _load_config(args.config)
    cfg = config_from_dict(TrainConfig, values, method=args.method, seed=args.seed)
    model = train(source, target, cfg)
    out = _ensure_out(args.out)
    save_checkpoint(
        os.path.join(out, "checkpoint.json"),
        model,
        extra={"train_data_sha256": _data_digest(source)},
    )
    with open(os.path.join(out, "history.jsonl"), "w", encoding="utf-8") as fh:
        for epoch, entry in enumerate(model.history):
            record = {"epoch": epoch, **entry.to_dict()}
            fh.write(json.dumps(record) + "\n")
    summary = model.weight_summary
    ess = "" if summary is None else f", weight ESS {summary.ess:.1f} of {summary.n}"
    print(f"trained {model.config.method} for {len(model.history)} epochs{ess} -> {out}")
    return 0


def _cmd_evaluate(args):
    model, extra = load_checkpoint(args.checkpoint)
    data = load_csv(args.data)
    # a checkpoint saved from Python, not by `fairshift train`, names no data
    print(f"trained on data sha256={extra.get('train_data_sha256', 'unrecorded')}")
    metrics = evaluate_model(model, data)
    row = {
        "method": model.config.method,
        "seed": args.seed if args.seed is not None else "",
        "gamma": args.gamma if args.gamma is not None else "",
        "error_pct": metrics.error_pct,
        "eodds": metrics.eodds,
        "acc_parity_pct": metrics.acc_parity_pct,
    }
    line = ",".join(str(row[k]) for k in row)
    header = ",".join(row)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + line + "\n")
    print(header)
    print(line)
    return 0


def _cmd_experiment(args):
    spec = config_from_dict(
        ExperimentSpec,
        _load_config(args.config),
        dataset=args.data,
        repetitions=args.reps,
        base_seed=args.seed,
        gammas=args.gamma,
        ms=args.m,
        methods=args.method or None,
    )
    run_rows, aggregates = run_experiment(spec, workers=args.workers)
    out = _ensure_out(args.out)
    write_run_csv(os.path.join(out, "runs.csv"), run_rows)
    write_aggregate_csv(os.path.join(out, "aggregate.csv"), aggregates)
    write_timings_csv(os.path.join(out, "timings.csv"), run_rows)
    # written on every sweep, so a stale file never outlives a clean rerun
    failures_path = os.path.join(out, "failures.jsonl")
    write_failures_jsonl(failures_path, run_rows)
    failed = [r for r in run_rows if r["status"] != "ok"]
    for row in failed:
        sys.stderr.write(
            f"run failed: method={row['method']} gamma={row['gamma']} rep={row['rep']}: "
            f"{row['exception']}: {row['message']}\n"
        )
    if failed:
        sys.stderr.write(f"tracebacks of failed runs: {failures_path}\n")
    print(f"{len(run_rows) - len(failed)}/{len(run_rows)} runs ok -> {out}")
    return 2 if failed else 0


def _cmd_variance_study(args):
    values = _load_config(args.config)
    # a file sets the grid and the draw size; the seed and repetitions come from the flags
    rejected = set(values) - {"gammas", "ms", "n"}
    if rejected:
        raise ValueError(f"unknown variance-study keys: {sorted(rejected)}")
    spec = config_from_dict(
        VarianceStudySpec,
        values,
        repetitions=args.reps,
        base_seed=args.seed,
        gammas=args.gamma,
        ms=args.m,
    )
    rows = run_variance_study(spec)
    out = _ensure_out(args.out)
    write_variance_csv(os.path.join(out, "variance.csv"), rows)
    print(f"{len(rows)} grid points -> {out}/variance.csv")
    return 0


def _cmd_pareto(args):
    rows = read_aggregate_csv(args.input)
    frontier = pareto_frontier(rows)
    write_aggregate_csv(args.out, frontier)
    print(f"{len(frontier)}/{len(rows)} rows on the frontier -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairshift",
        description="Fair classification under covariate shift: splits, training, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="construct a covariate-shifted partition")
    p.add_argument("--data", required=True, help="labeled CSV")
    p.add_argument("--config", help="key-value shift config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--gamma", type=float)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--data", required=True, help="labeled source CSV")
    p.add_argument("--target", help="unlabeled target CSV")
    p.add_argument("--config", help="key-value train config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--method")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--gamma", type=float)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run a seeded sweep with aggregation")
    p.add_argument("--config", help="key-value experiment spec")
    p.add_argument("--data", help="dataset path or synthetic:<name>")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--method")
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--workers", type=int, default=1, help="process pool size for runs")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "variance-study", help="estimator spread vs shift strength and target size"
    )
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--reps", type=int)
    p.set_defaults(func=_cmd_variance_study)

    p = sub.add_parser("pareto", help="filter an aggregate CSV to its Pareto frontier")
    p.add_argument("--input", required=True, help="aggregate.csv from an experiment")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pareto)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
