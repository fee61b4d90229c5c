"""Benchmark for fairshift: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ours_asym --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer metrics taken from spans around calls into each module.  The
last line of standard output is one JSON object; the lines before it
print every figure by name and unit, with the environment record.  Full
results and spans are written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("ours_asym", "erm_asym", "sweep_tabular")
ASYM_METHODS = {"ours_asym": ("ours",), "erm_asym": ("erm", "zsa")}
SWEEP_WORKERS = 2
SETUP_PROBES = 2  # plus this process's own set-up

# W2 solves per run fixed by the default schedule: one per adaptation step
# of ``ours`` (35 epochs of 256-row batches) and one per step of every
# ``kliep_iw`` epoch (15 of 32-row batches, 35 of 256-row batches).  The
# asymmetric source has 600 rows, the sweep's shifted split 1107.
W2_PER_OURS_RUN = 35 * 3
W2_PER_OURS_SWEEP_RUN = 35 * 5
W2_PER_KLIEP_RUN = 15 * 35 + 35 * 5

END_TO_END = ("setup_s", "runs_per_s", "peak_rss_mb", "error_pct")
PER_LAYER = (
    "losses.w2_calls",
    "losses.w2_pct_of_train",
    "losses.coupling_pct_of_train",
    "losses.coupling_lp_calls",
    "losses.coupling_assign_calls",
    "losses.coupling_support_reuse_frac",
    "autodiff.backward_calls",
    "autodiff.backward_s",
    "autodiff.tape_nodes",
    "nets.predictor_forward_calls",
    "nets.predictor_forward_rows",
    "nets.predictor_forward_s",
    "nets.weight_forward_calls",
    "nets.weight_forward_pct_of_train",
    "nets.adam_steps",
    "nets.adam_s",
    "training.train_calls",
    "training.train_s",
    "training.self_s",
    "data.load_csv_calls",
    "data.load_csv_pct_of_wall",
    "data.synth_pct_of_wall",
    "splitter.split_calls",
    "splitter.split_pct_of_wall",
    "metrics.evaluate_calls",
    "metrics.evaluate_s",
    "metrics.eodds_mean",
    "experiment.self_pct_of_wall",
    "experiment.write_csv_pct_of_wall",
    "experiment.failed_runs",
    "experiment.worker_peak_rss_mb",
    "cli.main_pct_of_wall",
    "trace.overhead_s",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set the workload up and exit (used to time set-up in a fresh process)",
    )
    return p.parse_args(argv)


def env_record():
    """Machine and library facts that the figures depend on."""
    import numpy
    import scipy

    cpu_max = None
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="utf-8") as fh:
            cpu_max = fh.read().strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "sweep_workers": SWEEP_WORKERS,
    }


def set_up(name, seed, workdir):
    """Import the package, build the workload and warm it up."""
    from workloads import AsymWorkload, SweepWorkload, import_package

    fs = import_package()
    if name == "sweep_tabular":
        wl = SweepWorkload(fs, seed, str(workdir), SWEEP_WORKERS)
    else:
        wl = AsymWorkload(fs, seed, ASYM_METHODS[name])
    return fs, wl, wl.setup().problems


def rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def seconds_since_process_start():
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def time_setup(args):
    """Wall time of fresh processes that import, generate inputs and warm up."""
    samples, problems = [], []
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "0",
        "--trace",
        "0",
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=150
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-400:]!r}")
    return samples, problems


def quantile_note(values, q):
    """Percentile ``q`` of ``values`` if at least ten samples lie beyond it."""
    n = len(values)
    if n * (1.0 - q) < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def end_to_end(args, workdir):
    _, wl, problems = set_up(args.workload, args.seed, workdir)
    # this process's own set-up is one sample; fresh processes give the rest
    samples = [seconds_since_process_start()]
    probe_samples, probe_problems = time_setup(args)
    samples += probe_samples
    problems += probe_problems

    iterations = []
    t_start = time.perf_counter()
    while len(iterations) < 2 or time.perf_counter() - t_start < args.seconds:
        iterations.append(wl.iteration())

    first = iterations[0]
    train_s = [t for it in iterations for t in it.train_s]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    for it in iterations:
        problems += it.problems
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "runs_per_s": (
            sum(it.completed for it in iterations) / sum(it.wall_s for it in iterations),
            "1/s",
        ),
        "peak_rss_mb": (rss_mb(resource.RUSAGE_SELF), "MB"),
        # no completed run leaves the worst error; ``correct`` is false then
        "error_pct": (statistics.fmean(first.error_pct) if first.error_pct else 100.0, "%"),
    }
    if train_s:
        p90 = quantile_note(train_s, 0.9)
        train_p50 = f"{statistics.median(train_s):.4f} s over {len(train_s)} train() calls"
        train_p90 = (
            f"{p90:.4f} s"
            if p90 is not None
            else f"not reported: {len(train_s)} samples leave fewer than 10 beyond p90"
        )
    else:
        train_p50 = train_p90 = "n/a: train() runs inside the sweep's pool workers"
    notes = {
        "iterations": len(iterations),
        "iteration_s": [it.wall_s for it in iterations],
        "train_s_p50": train_p50,
        "train_s_p90": train_p90,
        "eodds": statistics.fmean(first.eodds) if first.eodds else None,
        "failed_frac": failed / attempted if attempted else None,
        "setup_s_samples": samples,
        "largest_child_rss_mb (set-up process or pool worker)": rss_mb(resource.RUSAGE_CHILDREN),
    }
    return metrics, notes, attempted, failed, problems


def traced(args, workdir):
    from layers import instrument, layer_metrics, per_run_counts
    from tracer import Tracer

    fs, wl, problems = set_up(args.workload, args.seed, workdir)
    pooled = []
    if args.workload == "sweep_tabular":
        # pool workers are out of the tracer's reach: trace at one worker
        # and check it against the untraced output at the default count
        pooled.append(wl.iteration())
    # untraced iterations on both sides of the traced one, same worker count
    untraced = [wl.iteration(workers=1)]
    tracer = Tracer()
    patcher, counters = instrument(
        tracer, fs, run_marker="splitter.split" if args.workload == "sweep_tabular" else None
    )
    with patcher:
        t_it = wl.iteration(tracer, workers=1)
    untraced.append(wl.iteration(workers=1))
    everything = pooled + untraced + [t_it]
    for it in everything:
        problems += it.problems

    table = layer_metrics(tracer.spans, counters, t_it.wall_s)
    table["metrics.eodds_mean"] = (
        sum(t_it.eodds) / len(t_it.eodds) if t_it.eodds else 1.0,
        "1",
    )
    table["experiment.failed_runs"] = (
        t_it.failed if args.workload == "sweep_tabular" else 0,
        "count",
    )
    table["experiment.worker_peak_rss_mb"] = (rss_mb(resource.RUSAGE_CHILDREN), "MB")
    table["trace.overhead_s"] = (
        t_it.wall_s - statistics.fmean(it.wall_s for it in untraced),
        "s",
    )
    problems += sanity_counts(args.workload, per_run_counts(tracer.spans, "losses.w2"))

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    notes = {
        "pooled_iteration_s": [it.wall_s for it in pooled],
        "untraced_iteration_s": [it.wall_s for it in untraced],
        "traced_iteration_s": t_it.wall_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    return table, notes, attempted, failed, problems


def sanity_counts(workload, w2):
    """W2 solves per run (run id -> count) must match the training schedule."""
    import inputs

    if workload == "erm_asym":
        expected = {}
    elif workload == "ours_asym":
        expected = {run: W2_PER_OURS_RUN for run in range(1, inputs.ASYM_RUNS + 1)}
    else:
        # runs.csv order: ours, erm, kliep_iw, zsa (run ids from 1)
        expected = {1: W2_PER_OURS_SWEEP_RUN, 3: W2_PER_KLIEP_RUN}
    if w2 != expected:
        return [f"W2 solves per run {w2} differ from the schedule's {expected}"]
    return []


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fairshift" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: package source not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"

    if args.setup_probe:
        try:
            problems = set_up(args.workload, args.seed, workdir)[2]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for p in problems:
            sys.stderr.write(f"problem: {p}\n")
        return 1 if problems else 0

    try:
        measure = traced if args.trace else end_to_end
        table, notes, attempted, failed, problems = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    env = env_record()
    correct = not problems and attempted > 0
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in table.items():
        mark = "" if name in wanted else "  (table only)"
        print(f"  {name:40s} {value!r:>24} {unit}{mark}")
    for name, value in notes.items():
        print(f"  {name:40s} {value}")
    print(f"  attempted={attempted} failed={failed} correct={correct}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]} for name in wanted},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(
            {
                "env": env,
                "table": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
                "notes": notes,
                "problems": problems,
                "result": result,
            },
            fh,
            indent=1,
        )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
