"""Per-layer instrumentation: which package calls are traced and how.

``instrument`` wraps the public entry points of each module (one layer
per module) and returns the observers that count work the spans alone do
not show: rows per forward pass, autodiff nodes per backward pass, and
whether each transport plan kept the support of the previous one.
``layer_metrics`` turns the spans and counters of one traced iteration
into the per-layer table.
"""

from __future__ import annotations

import numpy as np

from tracer import Patcher, totals

SUPPORT_TOL = 1e-12  # plan entries above this count as support


def _rows(batch):
    return np.shape(getattr(batch, "value", batch))[0]


def _tape_size(root):
    """Nodes a backward pass from ``root`` reaches (same walk as the tape)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Counters:
    """Work counts gathered by the observers of one traced iteration."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.forward_rows = 0
        self.tape_nodes = 0
        self.lp_calls = 0
        self.assign_calls = 0
        self.support_reused = 0
        self._prev_support = None
        self._prev_run = None

    def on_forward(self, args, result, rows):
        self.forward_rows += rows

    def on_backward(self, args, result, nodes):
        self.tape_nodes += nodes

    def on_coupling(self, args, plan, _):
        na, nb = _rows(args[0]), _rows(args[1])
        if na == nb:
            self.assign_calls += 1
        else:
            self.lp_calls += 1
        support = plan.plan > SUPPORT_TOL
        prev = self._prev_support
        if (
            self._prev_run == self.tracer.run
            and prev is not None
            and prev.shape == support.shape
            and np.array_equal(prev, support)
        ):
            self.support_reused += 1
        self._prev_support, self._prev_run = support, self.tracer.run


def instrument(tracer, fs, run_marker=None):
    """Wrap the traced targets of package modules ``fs``; returns (patcher, counters).

    ``fs`` maps module short names (``autodiff``, ``nets``, ...) to the
    imported modules.  When ``run_marker`` names a span, each call to it
    starts a new run id (used where runs happen inside one program call).
    """
    counters = Counters(tracer)
    patcher = Patcher("fairshift")

    def spanned(name, **hooks):
        return lambda fn: tracer.wrap(name, fn, **hooks)

    def marked(name):
        if name != run_marker:
            return spanned(name)
        return spanned(name, before=lambda args: tracer.begin_run())

    patcher.patch_method(
        fs["nets"].PredictorModel,
        "forward",
        spanned(
            "nets.predictor_forward",
            before=lambda args: _rows(args[1]),
            observer=counters.on_forward,
        ),
    )
    patcher.patch_method(fs["nets"].WeightNetwork, "forward", spanned("nets.weight_forward"))
    patcher.patch_method(fs["nets"].AdamOptimizer, "step", spanned("nets.adam"))
    patcher.patch_method(
        fs["autodiff"].Tensor,
        "backward",
        spanned(
            "autodiff.backward",
            before=lambda args: _tape_size(args[0]),
            observer=counters.on_backward,
        ),
    )
    patcher.patch_function(
        fs["losses"], "solve_coupling", spanned("losses.coupling", observer=counters.on_coupling)
    )
    for module, name, span in (
        ("losses", "wasserstein2", "losses.w2"),
        ("training", "train", "training.train"),
        ("metrics", "evaluate_model", "metrics.evaluate"),
        ("data", "load_csv", "data.load_csv"),
        ("data", "make_synthetic_asymmetric_labeled", "data.synth"),
        ("splitter", "split", "splitter.split"),
        ("experiment", "run_experiment", "experiment.run_experiment"),
        ("experiment", "write_run_csv", "experiment.write_csv"),
    ):
        patcher.patch_function(fs[module], name, marked(span))
    return patcher, counters


def per_run_counts(spans, name):
    """Run id -> number of ``name`` spans in that run (runs with none omitted)."""
    out = {}
    for s in spans:
        if s.name == name:
            out[s.run] = out.get(s.run, 0) + 1
    return out


def layer_metrics(spans, counters, wall_s):
    """Every per-layer figure of one traced iteration: name -> (value, unit)."""
    t = totals(spans)

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    train_s = secs("training.train")
    solves = counters.lp_calls + counters.assign_calls
    backward_calls = calls("autodiff.backward")

    def pct(part, base):
        return 100.0 * part / base if base > 0 else 0.0

    return {
        "losses.w2_calls": (calls("losses.w2"), "count"),
        "losses.w2_s": (secs("losses.w2"), "s"),
        "losses.w2_pct_of_train": (pct(secs("losses.w2"), train_s), "%"),
        "losses.coupling_s": (secs("losses.coupling"), "s"),
        "losses.coupling_pct_of_train": (pct(secs("losses.coupling"), train_s), "%"),
        "losses.coupling_lp_calls": (counters.lp_calls, "count"),
        "losses.coupling_assign_calls": (counters.assign_calls, "count"),
        "losses.coupling_support_reuse_frac": (
            counters.support_reused / solves if solves else 0.0,
            "fraction",
        ),
        "autodiff.backward_calls": (backward_calls, "count"),
        "autodiff.backward_s": (secs("autodiff.backward"), "s"),
        "autodiff.tape_nodes": (
            counters.tape_nodes / backward_calls if backward_calls else 0.0,
            "nodes/call",
        ),
        "nets.predictor_forward_calls": (calls("nets.predictor_forward"), "count"),
        "nets.predictor_forward_rows": (counters.forward_rows, "count"),
        "nets.predictor_forward_s": (secs("nets.predictor_forward"), "s"),
        "nets.weight_forward_calls": (calls("nets.weight_forward"), "count"),
        "nets.weight_forward_s": (secs("nets.weight_forward"), "s"),
        "nets.weight_forward_pct_of_train": (pct(secs("nets.weight_forward"), train_s), "%"),
        "nets.adam_steps": (calls("nets.adam"), "count"),
        "nets.adam_s": (secs("nets.adam"), "s"),
        "training.train_calls": (calls("training.train"), "count"),
        "training.train_s": (train_s, "s"),
        "training.self_s": (own("training.train"), "s"),
        "data.load_csv_calls": (calls("data.load_csv"), "count"),
        "data.load_csv_s": (secs("data.load_csv"), "s"),
        "data.load_csv_pct_of_wall": (pct(secs("data.load_csv"), wall_s), "%"),
        "data.synth_s": (secs("data.synth"), "s"),
        "data.synth_pct_of_wall": (pct(secs("data.synth"), wall_s), "%"),
        "splitter.split_calls": (calls("splitter.split"), "count"),
        "splitter.split_s": (secs("splitter.split"), "s"),
        "splitter.split_pct_of_wall": (pct(secs("splitter.split"), wall_s), "%"),
        "metrics.evaluate_calls": (calls("metrics.evaluate"), "count"),
        "metrics.evaluate_s": (secs("metrics.evaluate"), "s"),
        "experiment.run_experiment_s": (secs("experiment.run_experiment"), "s"),
        "experiment.self_s": (own("experiment.run_experiment"), "s"),
        "experiment.self_pct_of_wall": (pct(own("experiment.run_experiment"), wall_s), "%"),
        "experiment.write_csv_s": (secs("experiment.write_csv"), "s"),
        "experiment.write_csv_pct_of_wall": (pct(secs("experiment.write_csv"), wall_s), "%"),
        "cli.main_s": (secs("cli.main"), "s"),
        "cli.main_pct_of_wall": (pct(secs("cli.main"), wall_s), "%"),
        "trace.bookkeeping_s": (secs("trace.bookkeeping"), "s"),
    }
