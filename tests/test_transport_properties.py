"""Property tests for exact transport: W2 identities, plan marginals, certificate."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from fairshift.losses import (
    PlanCache,
    _pairwise_sq_dists,
    plan_is_optimal,
    solve_coupling,
    wasserstein2,
)

COORDS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# derandomized so that the suite is reproducible; raise max_examples to explore
SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
# HiGHS stops at a dual feasibility tolerance of 1e-7, so LP costs agree to
# about that much of the cost scale
LP_TOL = 1e-7


def clouds(n_max=7, dim=2):
    return st.integers(1, n_max).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=COORDS)
    )


def _oracle_plan(cost):
    """Optimal plan from an assignment over lcm(na, nb) equal-mass copies."""
    na, nb = cost.shape
    lattice = math.lcm(na, nb)
    copies_a, copies_b = lattice // na, lattice // nb
    big = np.repeat(np.repeat(cost, copies_a, axis=0), copies_b, axis=1)
    rows, cols = linear_sum_assignment(big)
    plan = np.zeros_like(cost)
    np.add.at(plan, (rows // copies_a, cols // copies_b), 1.0 / lattice)
    return plan


@SETTINGS
@given(clouds(), clouds())
def test_w2_is_symmetric(a, b):
    scale = max(1.0, float(_pairwise_sq_dists(a, b).max()))
    ab, ba = float(wasserstein2(a, b)), float(wasserstein2(b, a))
    assert math.isclose(ab * ab, ba * ba, rel_tol=1e-9, abs_tol=LP_TOL * scale)


@SETTINGS
@given(clouds(), arrays(np.float64, (2,), elements=COORDS))
def test_translation_costs_its_length(a, shift):
    length = float(np.linalg.norm(shift))
    assert math.isclose(float(wasserstein2(a, a + shift)), length, rel_tol=1e-9, abs_tol=1e-9)


@SETTINGS
@given(clouds(), clouds())
def test_plan_has_uniform_marginals(a, b):
    plan = solve_coupling(a, b).plan
    assert (plan >= 0).all()
    np.testing.assert_allclose(plan.sum(axis=1), 1.0 / len(a), rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), 1.0 / len(b), rtol=0, atol=1e-12)


@SETTINGS
@given(clouds(), clouds())
def test_certificate_accepts_every_optimal_plan(a, b):
    cost = _pairwise_sq_dists(a, b)
    assert plan_is_optimal(_oracle_plan(cost), cost)


@SETTINGS
@given(clouds(), clouds(), st.data())
def test_reuse_after_a_move_costs_the_optimum(a, b, data):
    cache = PlanCache()
    wasserstein2(a, b, cache)
    moved = a + data.draw(arrays(np.float64, a.shape, elements=st.floats(-0.5, 0.5)))
    cost = _pairwise_sq_dists(moved, b)
    w2 = float(wasserstein2(moved, b, cache))
    best = float((_oracle_plan(cost) * cost).sum())
    assert cache.solves + cache.reuses == 2
    assert math.isclose(w2 * w2, best, rel_tol=1e-9, abs_tol=LP_TOL * max(1.0, cost.max()))
