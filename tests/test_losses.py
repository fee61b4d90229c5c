import itertools
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from fairshift.autodiff import Tensor
from fairshift.losses import (
    PlanCache,
    _pairwise_sq_dists,
    _transport_simplex,
    conditional_entropy,
    constraint_penalty,
    cross_entropy_risk,
    kliep_loss,
    lsif_loss,
    risk_bound_gap,
    solve_coupling,
    wasserstein2,
    weighted_entropy_term,
)


class TestCrossEntropyRisk:
    def test_perfect_predictions(self):
        probs = np.array([1 - 1e-12, 1e-12])
        labels = np.array([1, 0])
        assert float(cross_entropy_risk(probs, labels)) == pytest.approx(0.0, abs=1e-9)

    def test_coin_flip(self):
        value = float(cross_entropy_risk(np.full(4, 0.5), np.array([0, 1, 0, 1])))
        assert value == pytest.approx(math.log(2))

    def test_hand_computed(self):
        value = float(cross_entropy_risk(np.array([0.9, 0.2]), np.array([1, 1])))
        assert value == pytest.approx((-math.log(0.9) - math.log(0.2)) / 2)

    def test_row_weights_scale_each_term(self):
        value = float(cross_entropy_risk(np.array([0.9, 0.2]), np.array([1, 1]), [2.0, 0.5]))
        assert value == pytest.approx((-2.0 * math.log(0.9) - 0.5 * math.log(0.2)) / 2)


class TestConditionalEntropy:
    def test_maximum_at_half(self):
        assert conditional_entropy(np.array([0.5])).value[0] == pytest.approx(math.log(2))

    def test_near_deterministic(self):
        assert conditional_entropy(np.array([1 - 1e-7])).value[0] < 2e-6

    def test_closed_form(self):
        expected = -0.9 * math.log(0.9) - 0.1 * math.log(0.1)
        assert conditional_entropy(np.array([0.9])).value[0] == pytest.approx(expected)


class TestWeightedEntropyTerm:
    def test_zero_weights_reduce_to_plain_mean(self):
        h = np.array([0.1, 0.5, 0.3])
        value = float(weighted_entropy_term(np.zeros(3), h))
        assert value == pytest.approx(h.mean())

    def test_constant_weight_one(self):
        value = float(weighted_entropy_term(np.ones(2), np.full(2, math.log(2))))
        assert value == pytest.approx(math.exp(-1) * math.log(2))

    def test_large_weights_vanish(self):
        value = float(weighted_entropy_term(np.full(5, 50.0), np.full(5, math.log(2))))
        assert value < 1e-20

    def test_weighted_never_exceeds_unweighted(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(1, 30)
            fw = rng.exponential(2.0, size=n)
            h = conditional_entropy(rng.uniform(1e-6, 1 - 1e-6, size=n)).value
            assert float(weighted_entropy_term(fw, h)) <= h.mean()

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            weighted_entropy_term(np.array([np.inf]), np.array([0.5]))


class TestConstraintPenalty:
    def test_satisfied_constraints(self):
        assert float(constraint_penalty(np.ones(4), np.ones(6))) == 0.0

    def test_symmetric_violation(self):
        value = float(constraint_penalty(np.full(3, 2.0), np.full(5, 2.0), 1.0, 1.0))
        assert value == pytest.approx((2 - 1) ** 2 + (0.5 - 1) ** 2)

    def test_single_active_term_scaled(self):
        value = float(constraint_penalty(np.ones(3), np.full(4, 0.5), c1=1.0, c2=10.0))
        assert value == pytest.approx(10.0)

    def test_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            constraint_penalty(np.array([0.0]), np.array([1.0]))


class TestRatioLosses:
    def test_kliep_values(self):
        assert float(kliep_loss(np.ones(3), np.ones(5))) == pytest.approx(0.0)
        assert float(kliep_loss(np.full(3, 2.0), np.full(5, 2.0))) == pytest.approx(
            -math.log(2) + 1
        )
        assert float(kliep_loss(np.full(2, math.e), np.ones(4))) == pytest.approx(-1.0)

    def test_lsif_values(self):
        assert float(lsif_loss(np.ones(3), np.ones(5))) == pytest.approx(-0.5)
        assert float(lsif_loss(np.full(3, 2.0), np.full(5, 2.0))) == pytest.approx(0.0)
        assert float(lsif_loss(np.full(3, 0.5), np.full(5, 0.5))) == pytest.approx(-0.375)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            kliep_loss(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            lsif_loss(np.array([1.0]), np.array([0.0]))

    # discrete toy: source mass (0.8, 0.2) on two points, target (0.4, 0.6),
    # samples replicating the exact proportions; true ratio = (0.5, 3.0)
    _SOURCE = np.repeat([0, 1], [8, 2])
    _TARGET = np.repeat([0, 1], [4, 6])
    _TRUE_RATIO = np.array([0.5, 3.0])

    def test_kliep_minimized_at_true_ratio_along_constraint_line(self):
        # the unit-mean constraint 0.8*s0 + 0.2*s1 = 1 leaves one free
        # parameter; the penalty vanishes on the line, so a 1-D grid
        # search there locates the constrained optimum
        best, best_value = None, np.inf
        for s0 in np.linspace(0.05, 1.2, 400):
            s1 = (1.0 - 0.8 * s0) / 0.2
            if s1 <= 0:
                continue
            s = np.array([s0, s1])
            value = float(kliep_loss(s[self._TARGET], s[self._SOURCE]))
            if value < best_value:
                best, best_value = s, value
        np.testing.assert_allclose(best, self._TRUE_RATIO, atol=0.03)

    def test_lsif_minimized_at_true_ratio_pointwise(self):
        # the least-squares loss separates per point: two 1-D grids
        grid = np.linspace(0.05, 4.0, 800)
        best = []
        for point in (0, 1):
            values = [
                float(
                    lsif_loss(
                        np.where(self._TARGET == point, s, self._TRUE_RATIO[self._TARGET]),
                        np.where(self._SOURCE == point, s, self._TRUE_RATIO[self._SOURCE]),
                    )
                )
                for s in grid
            ]
            best.append(grid[int(np.argmin(values))])
        np.testing.assert_allclose(best, self._TRUE_RATIO, atol=0.01)


def _brute_force_equal(a, b):
    n = len(a)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.sum((a[i] - b[perm[i]]) ** 2) for i in range(n))
        best = min(best, cost / n)
    return math.sqrt(best)


def _expanded_cost(cost):
    # replicate each point to lcm(na, nb) slots and solve the assignment
    na, nb = cost.shape
    lcm = math.lcm(na, nb)
    big = np.repeat(np.repeat(cost, lcm // na, axis=0), lcm // nb, axis=1)
    rows, cols = linear_sum_assignment(big)
    return big[rows, cols].sum() / lcm


def _expanded_assignment(a, b):
    return math.sqrt(_expanded_cost(_pairwise_sq_dists(a, b)))


class TestWasserstein2:
    def test_identical_clouds(self):
        a = np.random.default_rng(0).normal(size=(6, 3))
        assert float(wasserstein2(a, a.copy())) == 0.0

    def test_point_masses(self):
        assert float(wasserstein2(np.array([[0.0]]), np.array([[3.0]]))) == pytest.approx(3.0)

    def test_hand_worked_examples(self):
        assert float(
            wasserstein2(np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]]))
        ) == pytest.approx(1.0)
        assert float(
            wasserstein2(np.array([[0.0]]), np.array([[0.0], [2.0]]))
        ) == pytest.approx(math.sqrt(2.0))

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            wasserstein2(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(rng.integers(1, 8), 2))
            b = rng.normal(size=(rng.integers(1, 8), 2))
            ab = float(wasserstein2(a, b))
            ba = float(wasserstein2(b, a))
            assert ab >= 0
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            a = rng.normal(size=(5, 2))
            b = rng.normal(size=(6, 2))
            c = rng.normal(size=(4, 2))
            assert float(wasserstein2(a, c)) <= (
                float(wasserstein2(a, b)) + float(wasserstein2(b, c)) + 1e-8
            )

    def test_matches_permutation_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = rng.integers(2, 7)
            a = rng.normal(size=(n, 2))
            b = rng.normal(size=(n, 2))
            assert float(wasserstein2(a, b)) == pytest.approx(
                _brute_force_equal(a, b), abs=1e-9
            )

    def test_matches_expansion_oracle_on_unequal_sizes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            na, nb = rng.integers(1, 6), rng.integers(1, 6)
            if na == nb:
                nb += 1
            a = rng.normal(size=(na, 3))
            b = rng.normal(size=(nb, 3))
            assert float(wasserstein2(a, b)) == pytest.approx(
                _expanded_assignment(a, b), rel=1e-12
            )

    def test_coupling_marginals(self):
        rng = np.random.default_rng(5)
        plan = solve_coupling(rng.normal(size=(4, 2)), rng.normal(size=(7, 2)))
        np.testing.assert_allclose(plan.plan.sum(axis=1), 1 / 4, atol=1e-9)
        np.testing.assert_allclose(plan.plan.sum(axis=0), 1 / 7, atol=1e-9)
        assert np.all(plan.plan >= 0)


def _w2_grads(a, b):
    ta, tb = Tensor(a), Tensor(b)
    wasserstein2(ta, tb).backward()
    return ta.grad, tb.grad


def _central_diff(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        hi = f()
        x[i] = orig - h
        lo = f()
        x[i] = orig
        grad[i] = (hi - lo) / (2 * h)
    return grad


SIZES = st.integers(1, 6)


class TestTransportCost:
    """The one W2 node: its value ``sqrt(<P, C>)`` and its VJP."""

    @pytest.mark.parametrize("na,nb", [(5, 5), (6, 4)])
    def test_value_is_exact_plan_cost(self, na, nb):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(na, 3)), rng.normal(size=(nb, 3))
        plan = solve_coupling(a, b).plan
        expected = (plan * _pairwise_sq_dists(a, b)).sum()
        assert wasserstein2(a, b).value == np.sqrt(expected)

    # a permutation plan and a plan that splits mass
    @pytest.mark.parametrize("na,nb", [(6, 6), (7, 4)])
    def test_w2_gradient_matches_finite_differences(self, na, nb):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(na, 2)), rng.normal(size=(nb, 2)) + 0.5
        grad_a, grad_b = _w2_grads(a, b)
        num_a = _central_diff(lambda: float(wasserstein2(a, b)), a)
        num_b = _central_diff(lambda: float(wasserstein2(a, b)), b)
        np.testing.assert_allclose(grad_a, num_a, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(grad_b, num_b, rtol=1e-5, atol=1e-8)

    def test_coincident_clouds_give_zero_gradient(self):
        a = np.random.default_rng(8).normal(size=(5, 3))
        grad_a, grad_b = _w2_grads(a, a.copy())
        for grad in (grad_a, grad_b):
            assert np.all(np.isfinite(grad))
            np.testing.assert_array_equal(grad, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(SIZES, SIZES, st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_w2_vjp_matches_central_differences(self, na, nb, dim, identical, seed):
        # identical measures: b repeats each point of a 1 or 2 times, shuffled,
        # so W2 sits on the sqrt's kink and takes its zero subgradient
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(na, dim))
        if identical:
            b = rng.permutation(np.tile(a, (1 + nb % 2, 1)))
        else:
            b = rng.normal(size=(nb, dim)) + 0.5
        grad_a, grad_b = _w2_grads(a, b)
        assert grad_a.shape == a.shape and grad_b.shape == b.shape
        if identical:
            assert float(wasserstein2(a, b)) == 0.0
            np.testing.assert_array_equal(grad_a, 0.0)
            np.testing.assert_array_equal(grad_b, 0.0)
            return
        num_a = _central_diff(lambda: float(wasserstein2(a, b)), a)
        num_b = _central_diff(lambda: float(wasserstein2(a, b)), b)
        np.testing.assert_allclose(grad_a, num_a, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(grad_b, num_b, rtol=1e-5, atol=1e-7)


def _support_components(plan):
    # a forest with na + nb nodes and e edges has na + nb - e components
    return sum(plan.shape) - int((plan > 0).sum())


def _grid_cloud(rng, n):
    # integer grid points: many equal pairwise costs, so many optimal plans
    return rng.integers(-1, 2, size=(n, 2)).astype(np.float64)


class TestPlanCertificate:
    """The simplex's optimality test: a basis stays while no reduced cost is negative."""

    def test_degenerate_lp_plan_accepted(self):
        # two clusters, half of each cloud in each: the plan splits in two,
        # so its basis carries a zero flow; restarting there takes no pivot
        a = np.array([[0.0], [0.1], [5.0], [5.2]])
        b = np.array([[0.05], [5.1]])
        cost = _pairwise_sq_dists(a, b)
        coupling = solve_coupling(a, b, cost)
        assert _support_components(coupling.plan) == 2
        assert (coupling.plan * cost).sum() == pytest.approx(_expanded_cost(cost), rel=1e-12)
        assert solve_coupling(a, b, cost, coupling.basis).pivots == 0

    def test_permutation_plan_accepted_then_rejected_after_swap(self):
        # every basis of an n x n problem carries n - 1 zero flows, so most
        # pivots there move no mass: the simplex still ends at the assignment
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        cost = _pairwise_sq_dists(a, b)
        plan = np.zeros_like(cost)
        plan[linear_sum_assignment(cost)] = 1 / 6
        simplex = _transport_simplex(cost)
        assert simplex.pivots > 0
        np.testing.assert_array_equal(simplex.plan, plan)
        a[[0, 1]] = a[[1, 0]]
        swapped = _pairwise_sq_dists(a, b)
        assert _transport_simplex(swapped, simplex.basis).pivots > 0
        assert (plan * swapped).sum() > _expanded_cost(swapped)

    def test_perturbation_that_moves_the_optimum_rejected(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(7, 2)), rng.normal(size=(4, 2))
        first = solve_coupling(a, b)
        moved = a + rng.normal(size=a.shape)
        warm = solve_coupling(moved, b, basis=first.basis)
        assert warm.pivots > 0
        assert not np.array_equal(warm.plan, first.plan)
        np.testing.assert_array_equal(warm.plan, solve_coupling(moved, b).plan)

    def test_near_tied_costs_solved_to_the_optimum(self):
        # found by hypothesis: at HiGHS's default dual tolerance (1e-7) an LP
        # sent b's far point to a[0], which is 2e-8 dearer than a[1]
        a = np.array([[0.0, 0.0], [0.0, 1e-8]])
        b = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        cost = _pairwise_sq_dists(a, b)
        coupling = solve_coupling(a, b, cost)
        assert solve_coupling(a, b, cost, coupling.basis).pivots == 0
        optimum = (1 - 1e-8) ** 2 / 3 + 1e-16 / 6
        assert (coupling.plan * cost).sum() == pytest.approx(optimum, rel=1e-12)

    @pytest.mark.parametrize("na,nb", [(7, 4), (26, 24), (9, 6)])
    def test_lp_plan_snapped_to_its_lattice(self, na, nb):
        # integer flows: entries are multiples of 1/lcm, marginals exact
        rng = np.random.default_rng(11)
        plan = solve_coupling(rng.normal(size=(na, 3)), rng.normal(size=(nb, 3))).plan
        lattice = math.lcm(na, nb)
        np.testing.assert_array_equal(plan, np.rint(plan * lattice) / lattice)
        np.testing.assert_allclose(plan.sum(axis=1), 1 / na, rtol=0, atol=1e-15)
        np.testing.assert_allclose(plan.sum(axis=0), 1 / nb, rtol=0, atol=1e-15)
        flow = np.rint(plan * lattice).astype(np.int64)
        np.testing.assert_array_equal(flow.sum(axis=1), lattice // na)
        np.testing.assert_array_equal(flow.sum(axis=0), lattice // nb)

    @pytest.mark.parametrize("na,nb", [(6, 4), (9, 6), (26, 24)])
    def test_tied_grid_clouds_solved_cold_and_warm(self, na, nb):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a, b = _grid_cloud(rng, na), _grid_cloud(rng, nb)
            cost = _pairwise_sq_dists(a, b)
            other = solve_coupling(_grid_cloud(rng, na), b)
            for basis in (None, other.basis):
                plan = solve_coupling(a, b, cost, basis).plan
                assert (plan * cost).sum() == pytest.approx(
                    _expanded_cost(cost), rel=1e-12, abs=1e-12
                )

    def test_cache_reuses_a_certified_plan(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(7, 2)), rng.normal(size=(4, 2)) + 3.0
        cache = PlanCache()
        first = float(wasserstein2(a, b, cache))
        nudged = a + 1e-6 * rng.normal(size=a.shape)
        second = wasserstein2(nudged, b, cache)
        assert (cache.solves, cache.reuses) == (1, 1)
        assert float(second) == float(wasserstein2(nudged, b))
        assert first > 0
        # a move that changes the optimal basis needs pivots: a solve
        wasserstein2(nudged[::-1], b, cache)
        assert (cache.solves, cache.reuses) == (2, 1)

    def test_equal_clouds_reuse_the_basis(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        cache = PlanCache()
        for _ in range(3):
            wasserstein2(a, b, cache)
        assert (cache.solves, cache.reuses) == (1, 2)


def _cloud_with(value, n):
    cloud = np.random.default_rng(15).normal(size=(n, 2))
    cloud[1, 0] = value
    return cloud


@pytest.mark.parametrize(
    "a,b,message",
    [
        (np.zeros((3, 2)), np.zeros(4), "shapes"),
        (np.zeros(3), np.zeros((3, 2)), "shapes"),
        (np.zeros((3, 2)), np.zeros((4, 3)), "shapes"),
        (np.zeros((3, 2)), np.zeros((3, 3)), "shapes"),
        (_cloud_with(np.nan, 3), np.zeros((3, 2)), "finite"),
        (_cloud_with(np.nan, 3), np.zeros((4, 2)), "finite"),
        (np.zeros((3, 2)), _cloud_with(np.inf, 3), "finite"),
        (np.zeros((3, 2)), _cloud_with(-np.inf, 4), "finite"),
        # finite points whose squared distances overflow
        (_cloud_with(1e200, 3), np.zeros((3, 2)), "finite"),
        (_cloud_with(1e200, 3), np.zeros((4, 2)), "finite"),
    ],
)
def test_bad_clouds_raise_one_value_error(a, b, message):
    # a NaN cost would send the simplex round forever: bound the wait
    def give_up(signum, frame):
        raise TimeoutError("wasserstein2 did not return")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                wasserstein2(a, b, PlanCache())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRiskBoundGap:
    def test_entropy_term_vanishes(self):
        assert risk_bound_gap(0.4, 0.0, 5.0, 0.3) == pytest.approx(0.1)

    def test_matching_distributions_leave_slack(self):
        # identical train/test risk: the slack is the damped entropy term
        gap = risk_bound_gap(0.5, math.exp(-1) * math.log(2), 1.0, 0.5)
        assert gap == pytest.approx(math.exp(-1) * math.log(2))

    def test_linear_in_epsilon(self):
        g1 = risk_bound_gap(0.2, 0.1, 1.0, 0.4)
        g5 = risk_bound_gap(0.2, 0.1, 5.0, 0.4)
        assert g5 - g1 == pytest.approx(0.4)
