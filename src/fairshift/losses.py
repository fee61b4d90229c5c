"""Scalar objectives: risks, entropy terms, constraints, transport, ratio losses.

Every loss accepts plain arrays or autodiff tensors and returns an
autodiff tensor, so the same formula serves both evaluation
(``float(loss)``) and gradient-based training.  All logarithms are
natural.  The Wasserstein-2 distance is computed from an exact optimal
coupling: a linear assignment when the point clouds have equal size, a
transport linear program otherwise, whose vertex plan is snapped to its
lattice of multiples of ``1 / lcm(na, nb)`` so that a plan depends on its
support alone.  Gradients flow through the pairwise costs with the
optimal plan held fixed.

Across the steps of a training run the optimal support rarely changes,
so :class:`PlanCache` keeps the last plan and :func:`wasserstein2` reuses
it whenever :func:`plan_is_optimal` proves it optimal for the new costs
(the optimality test of the transportation simplex).  Reuse keeps W2
exact: a reused plan is certified optimal for the new costs, and as LP
plans are snapped it is bit for bit what a fresh solve returns whenever
the optimum is unique.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from . import autodiff as ad
from .autodiff import Tensor, as_tensor

MARGINAL_TOL = 1e-9
# largest distance of an LP plan entry (in lattice units) from the lattice
LATTICE_TOL = 1e-6
# reduced costs down to -this x max(1, max cost) certify a plan optimal
PLAN_OPTIMALITY_TOL = 1e-12


@dataclass(frozen=True)
class LossBreakdown:
    """Per-epoch record of the composite objective's pieces."""

    erm: float = 0.0
    weighted_entropy: float = 0.0
    wasserstein: float = 0.0
    c1_penalty: float = 0.0
    c2_penalty: float = 0.0
    total: float = 0.0
    # matching steps: plans solved, plans reused, steps skipped (a group missing)
    coupling_solves: int = 0
    coupling_reuses: int = 0
    wasserstein_skipped: int = 0

    def to_dict(self):
        return asdict(self)


def cross_entropy_risk(probs, labels, row_weights=None) -> Tensor:
    """Mean negative log-likelihood of binary labels under ``probs``.

    ``row_weights`` (one per row) scale each row's term before the mean.
    """
    p = as_tensor(probs)
    y = np.asarray(labels, dtype=np.float64)
    per_row = -(Tensor(y) * ad.log(p) + Tensor(1.0 - y) * ad.log(1.0 - p))
    if row_weights is not None:
        per_row = Tensor(row_weights) * per_row
    return per_row.mean()


def conditional_entropy(probs) -> Tensor:
    """Binary prediction entropy -p log p - (1-p) log(1-p), elementwise."""
    p = as_tensor(probs)
    q = 1.0 - p
    return -(p * ad.log(p)) - (q * ad.log(q))


def weighted_entropy_term(weights_fw, entropies) -> Tensor:
    """Mean of exp(-weight) * entropy over a batch of target points.

    Points the weight network scores as training-typical (large output)
    contribute exponentially little.
    """
    fw = as_tensor(weights_fw)
    if not np.all(np.isfinite(fw.value)):
        raise ValueError("weight network produced non-finite values")
    return (ad.exp(-fw) * as_tensor(entropies)).mean()


def constraint_penalty(fw_test, fw_train, c1=1.0, c2=1.0) -> Tensor:
    """Squared-error penalties pushing the test-side mean weight and the
    train-side mean reciprocal weight toward 1."""
    ft = as_tensor(fw_test)
    fs = as_tensor(fw_train)
    if (ft.value <= 0).any() or (fs.value <= 0).any():
        raise ValueError("weight values must be strictly positive")
    d1 = ft.mean() - 1.0
    d2 = (1.0 / fs).mean() - 1.0
    return c1 * (d1 * d1) + c2 * (d2 * d2)


def kliep_loss(s_test, s_train) -> Tensor:
    """Log-likelihood ratio-fitting loss with a unit-mean penalty on train."""
    st = as_tensor(s_test)
    ss = as_tensor(s_train)
    if (st.value <= 0).any() or (ss.value <= 0).any():
        raise ValueError("ratio estimates must be strictly positive")
    d = ss.mean() - 1.0
    return (-ad.log(st)).mean() + d * d


def lsif_loss(s_test, s_train) -> Tensor:
    """Least-squares ratio-fitting loss."""
    st = as_tensor(s_test)
    ss = as_tensor(s_train)
    if (st.value <= 0).any() or (ss.value <= 0).any():
        raise ValueError("ratio estimates must be strictly positive")
    return (-st).mean() + 0.5 * (ss * ss).mean()


# -- optimal transport ------------------------------------------------------


@dataclass(frozen=True)
class CouplingPlan:
    """Optimal transport plan between two uniform empirical measures."""

    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        if (self.plan < -MARGINAL_TOL).any():
            raise ValueError("coupling entries must be nonnegative")
        if not np.allclose(self.plan.sum(axis=1), self.row_marginal, atol=MARGINAL_TOL):
            raise ValueError("row sums do not match the row marginal")
        if not np.allclose(self.plan.sum(axis=0), self.col_marginal, atol=MARGINAL_TOL):
            raise ValueError("column sums do not match the column marginal")


def _pairwise_sq_dists(a, b):
    # direct differences: exactly zero for coincident points, unlike the
    # a^2 + b^2 - 2ab expansion
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=2)


def solve_coupling(points_a, points_b, cost=None) -> CouplingPlan:
    """Exact optimal coupling for squared-Euclidean cost, uniform weights.

    Equal sizes use the assignment fast path (an optimal plan is a
    permutation by Birkhoff's theorem); unequal sizes solve the transport
    linear program with the HiGHS solver.  The LP's vertex plan has
    entries that are multiples of ``1 / lcm(na, nb)`` (the marginals are
    integral on that lattice), and it is snapped there exactly.
    ``cost`` is the pairwise squared-distance matrix, if already known.
    """
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot transport to or from an empty point set")
    na, nb = len(a), len(b)
    if cost is None:
        cost = _pairwise_sq_dists(a, b)
    row = np.full(na, 1.0 / na)
    col = np.full(nb, 1.0 / nb)
    if na == nb:
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros_like(cost)
        plan[rows, cols] = 1.0 / na
        return CouplingPlan(plan, row, col)
    # transport LP: min <cost, x>, row sums = 1/na, col sums = 1/nb, x >= 0
    var = np.arange(na * nb)
    constraint_rows = np.concatenate([var // nb, na + (var % nb)])
    constraint_cols = np.concatenate([var, var])
    a_eq = coo_matrix(
        (np.ones(2 * na * nb), (constraint_rows, constraint_cols)),
        shape=(na + nb, na * nb),
    )
    b_eq = np.concatenate([row, col])
    # HiGHS's default dual tolerance (1e-7) accepts suboptimal plans on near-tied costs
    result = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        method="highs",
        options={"dual_feasibility_tolerance": 1e-10},
    )
    if not result.success:
        raise RuntimeError(f"transport LP failed: {result.message}")
    lattice = math.lcm(na, nb)
    units = result.x.reshape(na, nb) * lattice
    snapped = np.rint(units)
    if np.abs(units - snapped).max() > LATTICE_TOL:
        raise RuntimeError("transport LP returned a plan off the vertex lattice")
    return CouplingPlan(snapped / lattice, row, col)


def plan_is_optimal(plan, cost) -> bool:
    """Dual certificate: is ``plan`` an optimal coupling for ``cost``?

    Solves ``u_i + v_j = cost_ij`` on the plan's support, one connected
    component of the support forest at a time, and accepts when per-
    component offsets exist that leave every reduced cost
    ``cost_ij - u_i - v_j`` at or above ``-tol``.  Those offsets are
    difference constraints between components, feasible exactly when
    the k x k constraint graph has no negative cycle (Floyd-Warshall).
    By complementary slackness the test is necessary and sufficient.
    Degenerate plans (a support with several components) are the common
    case: permutation plans and LP plans whose marginals share a factor.
    """
    cost = np.asarray(cost, dtype=np.float64)
    na, nb = cost.shape
    tol = PLAN_OPTIMALITY_TOL * max(1.0, float(cost.max()))
    rows, cols = np.nonzero(plan > 0)
    row_nbrs = [[] for _ in range(na)]
    col_nbrs = [[] for _ in range(nb)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        row_nbrs[i].append(j)
        col_nbrs[j].append(i)
    c = cost.tolist()
    u, v = [None] * na, [None] * nb
    row_comp, col_comp = [0] * na, [0] * nb
    k = 0
    for root in range(na):
        if u[root] is not None:
            continue
        u[root] = 0.0
        row_comp[root] = k
        stack = [root]
        while stack:
            i = stack.pop()
            for j in row_nbrs[i]:
                if v[j] is None:
                    v[j] = c[i][j] - u[i]
                    col_comp[j] = k
                    for i2 in col_nbrs[j]:
                        if u[i2] is None:
                            u[i2] = c[i2][j] - v[j]
                            row_comp[i2] = k
                            stack.append(i2)
        k += 1
    if None in v:
        return False  # a column without mass is no coupling
    reduced = cost - np.array(u)[:, None] - np.array(v)[None, :]
    if np.abs(reduced[rows, cols]).max() > tol:
        return False  # the support holds a cycle the potentials cannot fit
    if reduced.min() >= -tol:
        return True  # zero offsets already work
    # gap[p, q]: least reduced cost from a row of component p to a column of q
    gap = np.full((k, k), np.inf)
    np.minimum.at(gap, (np.array(row_comp)[:, None], np.array(col_comp)[None, :]), reduced)
    # offsets t with t_p - t_q <= gap[p, q] + tol; t_p - t_p <= gap[p, p] + tol
    if (np.diag(gap) < -tol).any():
        return False
    dist = gap + tol
    np.fill_diagonal(dist, 0.0)
    for m in range(k):
        dist = np.minimum(dist, dist[:, m : m + 1] + dist[m : m + 1, :])
    return not (np.diag(dist) < 0).any()


class PlanCache:
    """The last optimal plan of a sequence of matching steps.

    Pass one cache to successive :func:`wasserstein2` calls on clouds of
    the same sizes; ``solves`` and ``reuses`` count how each plan came.
    """

    def __init__(self):
        self.plan = None
        self.solves = 0
        self.reuses = 0


def transport_cost(points_a, points_b, plan, cost=None) -> Tensor:
    """Cost ``sum_ij P_ij |a_i - b_j|^2`` of a fixed plan, as one tape node.

    The value is computed from direct differences (or the given pairwise
    ``cost`` matrix), so it is exactly zero for coincident clouds.  The
    vector-Jacobian product is the closed form ``2g (diag(P 1) a - P b)``
    for ``a`` and ``2g (diag(P^T 1) b - P^T a)`` for ``b``.
    """
    a = as_tensor(points_a)
    b = as_tensor(points_b)
    plan = np.asarray(plan, dtype=np.float64)
    if cost is None:
        cost = _pairwise_sq_dists(a.value, b.value)
    out = Tensor((plan * cost).sum(), (a, b))

    def backward_fn(g):
        a._accumulate(2.0 * g * (plan.sum(axis=1)[:, None] * a.value - plan @ b.value))
        b._accumulate(2.0 * g * (plan.sum(axis=0)[:, None] * b.value - plan.T @ a.value))

    out._backward_fn = backward_fn
    return out


def wasserstein2(points_a, points_b, cache: PlanCache | None = None) -> Tensor:
    """Exact W2 between uniform empirical measures on two point clouds.

    Differentiable in the points: the optimal plan is constant almost
    everywhere, so the gradient flows through the pairwise costs only.
    With a ``cache``, the last plan between unequal clouds is reused
    while :func:`plan_is_optimal` certifies it for the new costs, and
    :func:`solve_coupling` runs only when the certificate fails.
    """
    a = as_tensor(points_a)
    b = as_tensor(points_b)
    if a.value.ndim == 1:
        raise ValueError("points must be 2-D [count, dim]")
    cost = _pairwise_sq_dists(a.value, b.value)
    cached = None if cache is None else cache.plan
    if cached is not None and cached.shape == cost.shape and plan_is_optimal(cached, cost):
        plan = cached
        cache.reuses += 1
    else:
        plan = solve_coupling(a.value, b.value, cost).plan
        if cache is not None:
            # equal clouds are not cached: their assignment solve is
            # cheaper than the certificate
            cache.plan = plan if cost.shape[0] != cost.shape[1] else None
            cache.solves += 1
    return ad.sqrt(transport_cost(a, b, plan, cost))


def risk_bound_gap(source_risk, weighted_entropy, epsilon, test_risk) -> float:
    """Slack of the weighted-entropy upper bound on target risk.

    Returns ``(source_risk + epsilon * weighted_entropy) - test_risk``;
    nonnegative whenever the model's class probabilities are within a
    factor ``epsilon`` of the true conditionals on the target.
    """
    return float(source_risk) + float(epsilon) * float(weighted_entropy) - float(test_risk)
