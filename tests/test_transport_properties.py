"""Property tests for exact transport: W2 identities, plan marginals, simplex optimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from fairshift.losses import (
    PlanCache,
    _pairwise_sq_dists,
    solve_coupling,
    wasserstein2,
)

COORDS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# derandomized so that the suite is reproducible; raise max_examples to explore
SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def clouds(n_max=7, dim=2):
    return st.integers(1, n_max).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=COORDS)
    )


def _same_cost(x, y, cost):
    # the simplex stops at reduced costs of -1e-12 x max(1, max cost)
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12 * max(1.0, float(cost.max())))


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
    ab, ba = float(wasserstein2(a, b)), float(wasserstein2(b, a))
    assert _same_cost(ab * ab, ba * ba, _pairwise_sq_dists(a, b))


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
def test_simplex_cost_equals_the_oracle(a, b):
    cost = _pairwise_sq_dists(a, b)
    plan = solve_coupling(a, b, cost).plan
    assert _same_cost((plan * cost).sum(), (_oracle_plan(cost) * cost).sum(), cost)


@SETTINGS
@given(clouds(), clouds(), st.data())
def test_warm_start_costs_what_a_cold_solve_costs(a, b, data):
    other = data.draw(arrays(np.float64, a.shape, elements=COORDS))
    cost = _pairwise_sq_dists(a, b)
    warm = solve_coupling(a, b, cost, solve_coupling(other, b).basis).plan
    cold = solve_coupling(a, b, cost).plan
    assert _same_cost((warm * cost).sum(), (cold * cost).sum(), cost)


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
    assert _same_cost(w2 * w2, best, cost)


@pytest.mark.parametrize("n", [6, 25])
def test_equal_clouds_with_coincident_rows_match_the_oracle(n):
    # ReLU features: all-dead rows and repeated rows coincide, so many costs tie
    rng = np.random.default_rng(n)
    a = np.maximum(rng.normal(size=(n, 8)), 0.0)
    b = np.maximum(rng.normal(size=(n, 8)) + 0.3, 0.0)
    a[: n // 3] = 0.0
    b[1::3] = b[0]
    cost = _pairwise_sq_dists(a, b)
    plan = solve_coupling(a, b, cost).plan
    assert _same_cost((plan * cost).sum(), (_oracle_plan(cost) * cost).sum(), cost)
    np.testing.assert_array_equal(plan.sum(axis=1), np.full(n, 1.0 / n))
    np.testing.assert_array_equal(plan.sum(axis=0), np.full(n, 1.0 / n))
