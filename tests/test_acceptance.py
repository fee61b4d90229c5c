"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 needs an externally preprocessed dataset and is skipped
when the file is absent; a miss there does not fail the suite.
"""

import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import reference_tape as ref
from fairshift.data import (
    GaussianShiftTask,
    make_synthetic_asymmetric_labeled,
)
from fairshift.experiment import (
    ExperimentSpec,
    VarianceStudySpec,
    bound_gap_estimate,
    run_experiment,
    run_variance_study,
)
from fairshift.losses import (
    conditional_entropy,
    constraint_penalty,
    cross_entropy_risk,
    kliep_loss,
    lsif_loss,
    wasserstein2,
    weighted_entropy_term,
)
from fairshift.nets import NetConfig, PredictorModel, WeightNetwork
from fairshift.splitter import ShiftConfig, first_principal_projection, split
from fairshift.training import TrainConfig, train

ADULT_CSV = os.path.join(os.path.dirname(__file__), "..", "data", "adult.csv")


def _verdict(number, passed, label):
    print(f"\nACCEPTANCE {number} [{'PASS' if passed else 'FAIL'}] {label}")
    return passed


# -- 1. exact optimal transport vs independent oracles ----------------------


def _brute_force_permutations(a, b):
    best = math.inf
    for perm in itertools.permutations(range(len(a))):
        cost = sum(float(np.sum((a[i] - b[j]) ** 2)) for i, j in enumerate(perm))
        best = min(best, cost)
    return math.sqrt(best / len(a))


def _replication_oracle(a, b):
    # replicate each point to lcm(len(a), len(b)) unit-mass slots; the
    # resulting balanced assignment problem is solved by brute force
    lcm = math.lcm(len(a), len(b))
    big_a = np.repeat(a, lcm // len(a), axis=0)
    big_b = np.repeat(b, lcm // len(b), axis=0)
    if lcm <= 6:
        return _brute_force_permutations(big_a, big_b)
    from scipy.optimize import linear_sum_assignment

    cost = ((big_a[:, None, :] - big_b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(cost[rows, cols].sum() / lcm)


def test_criterion_1_transport_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_equal = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        a = rng.normal(size=(n, dim))
        b = rng.normal(size=(n, dim))
        worst_equal = max(
            worst_equal, abs(float(wasserstein2(a, b)) - _brute_force_permutations(a, b))
        )
    worst_unequal = 0.0
    for _ in range(50):
        na, nb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        if na == nb:
            nb = na % 5 + 1 if na % 5 + 1 != na else na + 1 if na < 5 else na - 1
        a = rng.normal(size=(na, 2))
        b = rng.normal(size=(nb, 2))
        worst_unequal = max(
            worst_unequal, abs(float(wasserstein2(a, b)) - _replication_oracle(a, b))
        )
    ok = worst_equal < 1e-9 and worst_unequal < 1e-7
    assert _verdict(
        1,
        ok,
        f"transport matches brute force (worst {worst_equal:.2e}) "
        f"and replication oracle (worst {worst_unequal:.2e})",
    )


# -- 2. gradient suite against central finite differences -------------------


def _flatten(params):
    return np.concatenate([p.value.ravel() for p in params])


def _assign(params, vector):
    start = 0
    for p in params:
        size = p.value.size
        p.value = vector[start : start + size].reshape(p.value.shape)
        start += size


def _directional_check(loss_fn, params, rng, n_directions=100, h=1e-5):
    worst = 0.0
    for p in params:
        p.grad = None
    loss_fn().backward()
    grad = np.concatenate(
        [
            (p.grad if p.grad is not None else np.zeros_like(p.value)).ravel()
            for p in params
        ]
    )
    theta = _flatten(params)
    for _ in range(n_directions):
        v = rng.normal(size=theta.shape)
        v /= np.linalg.norm(v)
        _assign(params, theta + h * v)
        hi = float(loss_fn())
        _assign(params, theta - h * v)
        lo = float(loss_fn())
        _assign(params, theta)
        fd = (hi - lo) / (2 * h)
        analytic = float(grad @ v)
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
    return worst


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(7)
    cfg = NetConfig(input_dim=4, hidden_dim=10, rep_dim=6, clf_hidden_dim=6)
    model = PredictorModel(cfg, seed=1)
    wnet = WeightNetwork(cfg.rep_dim, seed=2, hidden_dim=8)
    snet = WeightNetwork(cfg.input_dim, seed=3, hidden_dim=8)
    xs = rng.normal(size=(12, 4))
    xt = rng.normal(size=(9, 4)) + 0.5
    ys = rng.integers(0, 2, 12).astype(float)
    both = model.parameters + wnet.parameters

    losses = {
        "cross_entropy": (
            lambda: cross_entropy_risk(model.forward(xs)[1], ys),
            model.parameters,
        ),
        "conditional_entropy": (
            lambda: ref.mean(conditional_entropy(model.forward(xt)[1])),
            model.parameters,
        ),
        "weighted_entropy": (
            lambda: weighted_entropy_term(
                wnet.forward(model.forward(xt)[0]),
                conditional_entropy(model.forward(xt)[1]),
            ),
            both,
        ),
        "constraint_penalty": (
            lambda: constraint_penalty(
                wnet.forward(model.forward(xt)[0]),
                wnet.forward(model.forward(xs)[0]),
                1.3,
                0.7,
            ),
            both,
        ),
        "wasserstein2": (
            lambda: wasserstein2(model.forward(xs)[0], model.forward(xt)[0]),
            model.parameters,
        ),
        "kliep": (
            lambda: kliep_loss(snet.forward(xt), snet.forward(xs)),
            snet.parameters,
        ),
        "lsif": (
            lambda: lsif_loss(snet.forward(xt), snet.forward(xs)),
            snet.parameters,
        ),
    }
    worst = {
        name: _directional_check(fn, params, rng) for name, (fn, params) in losses.items()
    }
    ok = max(worst.values()) < 1e-4
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    assert _verdict(2, ok, f"finite-difference agreement: {detail}")


# -- 3. degenerate-config equivalence ---------------------------------------


def test_criterion_3_zero_lambda_bitwise_erm():
    source, test = make_synthetic_asymmetric_labeled(3, 120)
    cfg = TrainConfig(
        pretrain_epochs=4, adapt_epochs=5, lambda1=0.0, lambda2=0.0, m_cap=60, seed=3
    )
    ours = train(source, test.without_labels(), replace(cfg, method="ours"))
    erm = train(source, None, replace(cfg, method="erm"))
    ok = ours.param_digests == erm.param_digests and len(ours.param_digests) == 9
    assert _verdict(3, ok, "per-epoch parameter checksums identical to the risk-only run")


# -- 4. empirical upper-bound check on analytic-density shift ---------------


def test_criterion_4_weighted_entropy_bound_nonnegative_slack():
    task = GaussianShiftTask(gamma=1.0)
    gaps = []
    for seed in range(50):
        source = task.sample_source(400, np.random.SeedSequence((seed, 77)).spawn(1)[0])
        cfg = TrainConfig(method="erm", pretrain_epochs=10, adapt_epochs=0, seed=seed)
        model = train(source, None, cfg)
        gaps.append(bound_gap_estimate(model, task, n_mc=5000, seed=seed + 999, epsilon=5.0))
    gaps = np.array(gaps)
    ok = bool(np.all(gaps >= -0.01))
    assert _verdict(
        4, ok, f"bound slack over 50 models: min={gaps.min():.4f}, median={np.median(gaps):.4f}"
    )


# -- 5. shift-splitter statistics -------------------------------------------


def test_criterion_5_splitter_statistics():
    rng = np.random.default_rng(0)
    from fairshift.data import CONTINUOUS, LabeledDataset

    pool = LabeledDataset(
        rng.normal(size=(1000, 3)),
        rng.integers(0, 2, 1000),
        rng.integers(0, 2, 1000),
        (CONTINUOUS,) * 3,
    )
    projection = first_principal_projection(pool.features)
    pool_mean = projection.mean()

    counts_ok = split(pool, ShiftConfig(gamma=10.0, seed=0)).counts() == {
        "train": 500,
        "val": 100,
        "test": 400,
    }

    test_means, above_uniform, above_tilted = [], [], []
    for seed in range(200):
        uniform = split(pool, ShiftConfig(gamma=0.0, seed=seed))
        tilted = split(pool, ShiftConfig(gamma=20.0, seed=seed))
        test_means.append(projection[uniform.test_idx].mean())
        anchor = tilted.anchor
        above_uniform.append((projection[uniform.test_idx] > anchor).mean())
        above_tilted.append((projection[tilted.test_idx] > anchor).mean())
    test_means = np.array(test_means)
    stderr = test_means.std() / math.sqrt(len(test_means))
    unbiased_ok = abs(test_means.mean() - pool_mean) < 3 * stderr
    tilt_wins = sum(t > u for t, u in zip(above_tilted, above_uniform))
    tilt_ok = tilt_wins >= 0.95 * 200
    ok = counts_ok and unbiased_ok and tilt_ok
    assert _verdict(
        5,
        ok,
        f"5:1:4 counts={counts_ok}, gamma=0 unbiased ({abs(test_means.mean() - pool_mean):.4f}"
        f" vs 3se={3 * stderr:.4f}), gamma=20 concentrates above anchor in {tilt_wins}/200 seeds",
    )


# -- 6. fairness gain over the risk-only baseline ----------------------------


def test_criterion_6_fairness_gain_on_asymmetric_shift(asymmetric_sweep):
    # erm resumes from the pretraining epochs ours stored
    rows = asymmetric_sweep(("ours", "erm"), ms=(50,))
    ours_eo, erm_eo = ([row["eodds"] for row in rows[m]] for m in ("ours", "erm"))
    ours_err, erm_err = ([row["error_pct"] for row in rows[m]] for m in ("ours", "erm"))
    eo_ok = np.median(ours_eo) < np.median(erm_eo)
    err_ok = np.median(ours_err) <= np.median(erm_err) + 5.0
    ok = bool(eo_ok and err_ok)
    assert _verdict(
        6,
        ok,
        f"median equalized-odds {np.median(ours_eo):.3f} < {np.median(erm_eo):.3f} "
        f"with error {np.median(ours_err):.1f} vs {np.median(erm_err):.1f} (+5 allowed)",
    )


# -- 7. variance contrast -----------------------------------------------------


def test_criterion_7_variance_contrast(asymmetric_sweep):
    rows = run_variance_study(
        VarianceStudySpec(gammas=(2.0, 2.5, 3.0), ms=(10, 20, 50), repetitions=20, n=200)
    )
    wins = sum(row["is_std"] > row["we_std"] for row in rows)
    study_ok = wins >= 0.9 * len(rows)

    runs = asymmetric_sweep(("kliep_iw", "ours"), ms=(20,))
    err_iw, err_ours = ([row["error_pct"] for row in runs[m]] for m in ("kliep_iw", "ours"))
    trainer_ok = np.std(err_iw) > np.std(err_ours)
    ok = bool(study_ok and trainer_ok)
    assert _verdict(
        7,
        ok,
        f"estimator std: importance-weighted larger at {wins}/{len(rows)} grid points; "
        f"final-error std {np.std(err_iw):.2f} (ratio-weighted) vs {np.std(err_ours):.2f} (ours)",
    )


# -- 8. conditional reproduction on externally preprocessed data -------------


@pytest.mark.skipif(
    not os.path.exists(ADULT_CSV),
    reason="preprocessed adult data (2213x97) not bundled; place it at data/adult.csv",
)
@pytest.mark.xfail(
    strict=False, reason="soft target: depends on external preprocessing details"
)
def test_criterion_8_adult_reference_numbers():
    spec = ExperimentSpec(
        dataset=ADULT_CSV,
        methods=("ours",),
        gammas=(10.0,),
        lambda1s=(1.0,),
        lambda2s=(0.01,),
        ms=(50,),
        repetitions=50,
        train=TrainConfig(weight_decay=5e-4),
    )
    _, aggregates = run_experiment(spec)
    row = aggregates[0]
    error, eodds = row.means["error_pct"], row.means["eodds"]
    ok = abs(error - 14.8) <= 3.0 and abs(eodds - 0.075) <= 0.05
    assert _verdict(8, ok, f"adult reference: error={error:.1f}%, eodds={eodds:.3f}")


def test_criterion_8_reported_when_data_absent():
    if not os.path.exists(ADULT_CSV):
        print(
            "\nACCEPTANCE 8 [SKIP] external preprocessed adult data not present; "
            "criterion runs only when data/adult.csv (2213x97) is supplied"
        )


# -- 9. weighted term never exceeds the unweighted entropy -------------------


def test_criterion_9_weighted_entropy_ordering():
    rng = np.random.default_rng(123)
    cfg = NetConfig(input_dim=3, hidden_dim=8, rep_dim=5, clf_hidden_dim=5)
    violations = 0
    for case in range(200):
        model = PredictorModel(cfg, seed=case)
        x = rng.normal(size=(rng.integers(1, 40), 3)) * rng.uniform(0.5, 3.0)
        _, probs = model.forward(x)
        entropies = conditional_entropy(probs).value
        fw = rng.exponential(rng.uniform(0.2, 5.0), size=len(x))
        if float(weighted_entropy_term(fw, entropies)) > entropies.mean():
            violations += 1
    assert _verdict(9, violations == 0, f"exact ordering held in {200 - violations}/200 states")
