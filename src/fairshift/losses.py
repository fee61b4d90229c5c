"""Scalar objectives: risks, entropy terms, constraints, transport, ratio losses.

Every loss accepts plain arrays or autodiff tensors and returns an
autodiff tensor, so the same formula serves both evaluation
(``float(loss)``) and gradient-based training.  Every loss is one tape
node, whose vector-Jacobian product repeats the operations of the
unfused operator graph (``tests/reference_tape.py``) in its order, so
fusing changes no bit.  All logarithms are natural.

The Wasserstein-2 distance is ``sqrt(<P, C>)`` for an exact optimal
coupling ``P``, found by a network simplex on integer flows for clouds
of any sizes, so plan entries are exact multiples of ``1 / lcm(na, nb)``.
Gradients flow through the pairwise costs ``C`` with the plan held fixed.

Across the steps of a training run the optimal basis rarely changes, so
:class:`PlanCache` keeps the last simplex basis and :func:`wasserstein2`
starts the next solve from it.  Most steps then take no pivot: the
simplex's own optimality test proves the old basis optimal for the new
costs, and the plan is bit for bit what a cold solve returns whenever
the optimum is unique.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Tensor, as_tensor

# reduced costs down to -this x max(1, max cost) prove a simplex basis optimal
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
    # matching steps: plans solved, plans reused
    coupling_solves: int = 0
    coupling_reuses: int = 0
    # largest pre-clip gradient norm and steps whose norm was clipped, for the
    # classifier (theta) and the weight network (w; 0 without one)
    theta_grad_norm_max: float = 0.0
    theta_clip_hits: int = 0
    w_grad_norm_max: float = 0.0
    w_clip_hits: int = 0
    # weight-network outputs at the ascent steps (0 without one): step means
    # of F_w on the target and of 1 / F_w on the source batch, averaged over
    # the epoch, and the smallest and largest F_w of either side
    fw_target_mean: float = 0.0
    fw_source_recip_mean: float = 0.0
    fw_min: float = 0.0
    fw_max: float = 0.0
    # wall time of the epoch; two runs of one seed differ here only
    epoch_s: float = field(default=0.0, compare=False)

    def to_dict(self):
        return asdict(self)


def cross_entropy_risk(probs, labels, row_weights=None) -> Tensor:
    """Mean negative log-likelihood of binary labels under ``probs``.

    ``row_weights`` (one per row) scale each row's term before the mean.
    One tape node: the gradient is ``r y / p - r (1 - y) / (1 - p)`` with
    ``r = -g / n`` (times the row weights).
    """
    p = as_tensor(probs)
    y = np.asarray(labels, dtype=np.float64)
    not_y = 1.0 - y
    q = 1.0 - p.value
    per_row = -(y * np.log(p.value) + not_y * np.log(q))
    if row_weights is not None:
        row_weights = np.asarray(row_weights, dtype=np.float64)
        per_row = row_weights * per_row
    n = per_row.size
    out = Tensor(per_row.sum() * (1.0 / n), (p,))

    def backward_fn(g):
        r = g * (1.0 / n)
        r = -r if row_weights is None else -(r * row_weights)
        p._accumulate((r * y) / p.value - (r * not_y) / q)

    out._backward_fn = backward_fn
    return out


def conditional_entropy(probs) -> Tensor:
    """Binary prediction entropy -p log p - (1-p) log(1-p), elementwise.

    One tape node; its gradient ``log(1-p) - log(p)`` is summed from the
    same four terms, in the same order, as the unfused graph's.
    """
    p = as_tensor(probs)
    q = 1.0 - p.value
    log_p, log_q = np.log(p.value), np.log(q)
    out = Tensor(-(p.value * log_p) - (q * log_q), (p,))

    def backward_fn(g):
        ng = -g
        p._accumulate(ng * log_p + (ng * p.value) / p.value - (ng * log_q + (ng * q) / q))

    out._backward_fn = backward_fn
    return out


def weighted_entropy_term(weights_fw, entropies) -> Tensor:
    """Mean of exp(-weight) * entropy over a batch of target points.

    Points the weight network scores as training-typical (large output)
    contribute exponentially little; weight 0 gives the plain mean, since
    ``exp(-0) = 1`` exactly.  One tape node, with gradients
    ``-(r h) e`` to the weights and ``r e`` to the entropies, where
    ``e = exp(-weight)`` and ``r = g / n``.
    """
    fw = as_tensor(weights_fw)
    h = as_tensor(entropies)
    if not np.all(np.isfinite(fw.value)):
        raise ValueError("weight network produced non-finite values")
    damp = np.exp(-fw.value)
    weighted = damp * h.value
    n = weighted.size
    out = Tensor(weighted.sum() * (1.0 / n), (fw, h))

    def backward_fn(g):
        r = g * (1.0 / n)
        fw._accumulate(-((r * h.value) * damp))
        h._accumulate(r * damp)

    out._backward_fn = backward_fn
    return out


def constraint_penalty(fw_test, fw_train, c1=1.0, c2=1.0) -> Tensor:
    """Squared-error penalties pushing the test-side mean weight and the
    train-side mean reciprocal weight toward 1.

    One tape node: ``c1 d1^2 + c2 d2^2`` with ``d1 = mean(fw_test) - 1``
    and ``d2 = mean(1 / fw_train) - 1``; each mean is ``sum * (1 / n)``,
    and the gradients repeat the unfused graph's operations in its order.
    """
    ft = as_tensor(fw_test)
    fs = as_tensor(fw_train)
    if (ft.value <= 0).any() or (fs.value <= 0).any():
        raise ValueError("weight values must be strictly positive")
    d1 = ft.value.sum() * (1.0 / ft.value.size) - 1.0
    d2 = (1.0 / fs.value).sum() * (1.0 / fs.value.size) - 1.0
    out = Tensor(c1 * (d1 * d1) + c2 * (d2 * d2), (ft, fs))

    def backward_fn(g):
        # d(d^2) = g d + g d, as the product node summed its two operands
        g1, g2 = g * c1, g * c2
        r2 = (g2 * d2 + g2 * d2) * (1.0 / fs.value.size)
        fs._accumulate(-r2 / fs.value**2)
        r1 = (g1 * d1 + g1 * d1) * (1.0 / ft.value.size)
        ft._accumulate(np.broadcast_to(r1, ft.value.shape))

    out._backward_fn = backward_fn
    return out


def _ratio_pair(s_test, s_train):
    st, ss = as_tensor(s_test), as_tensor(s_train)
    if (st.value <= 0).any() or (ss.value <= 0).any():
        raise ValueError("ratio estimates must be strictly positive")
    return st, ss


def kliep_loss(s_test, s_train) -> Tensor:
    """Log-likelihood ratio-fitting loss with a unit-mean penalty on train.

    One tape node: ``mean(-log s_test) + d^2`` with ``d = mean(s_train) - 1``;
    each mean is ``sum * (1 / n)``, and the gradients repeat the unfused
    graph's operations in its order.
    """
    st, ss = _ratio_pair(s_test, s_train)
    d = ss.value.sum() * (1.0 / ss.value.size) - 1.0
    out = Tensor((-np.log(st.value)).sum() * (1.0 / st.value.size) + d * d, (st, ss))

    def backward_fn(g):
        # d(d^2) = g d + g d, as the product node summed its two operands
        r = (g * d + g * d) * (1.0 / ss.value.size)
        ss._accumulate(np.broadcast_to(r, ss.value.shape))
        st._accumulate(-(g * (1.0 / st.value.size)) / st.value)

    out._backward_fn = backward_fn
    return out


def lsif_loss(s_test, s_train) -> Tensor:
    """Least-squares ratio-fitting loss ``mean(-s_test) + 0.5 mean(s_train^2)``.

    One tape node; each mean is ``sum * (1 / n)``, the ``0.5`` scales the
    second mean, and ``s^2`` hands ``g s + g s`` back, as the unfused graph.
    """
    st, ss = _ratio_pair(s_test, s_train)
    half_sq = (ss.value * ss.value).sum() * (1.0 / ss.value.size) * 0.5
    out = Tensor((-st.value).sum() * (1.0 / st.value.size) + half_sq, (st, ss))

    def backward_fn(g):
        r = (g * 0.5) * (1.0 / ss.value.size)
        ss._accumulate(r * ss.value + r * ss.value)
        st._accumulate(np.broadcast_to(-(g * (1.0 / st.value.size)), st.value.shape))

    out._backward_fn = backward_fn
    return out


# -- optimal transport ------------------------------------------------------


@dataclass(frozen=True)
class CouplingPlan:
    """Optimal transport plan between two uniform empirical measures.

    ``basis`` is the simplex's final tree, a warm start for the next
    solve at the same sizes, reached after ``pivots``.
    """

    plan: np.ndarray
    basis: tuple
    pivots: int


def _clouds(points_a, points_b):
    """Two point clouds as float64 ``[count, dim]`` arrays of one ``dim``."""
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            "point clouds must be 2-D [count, dim] with one dim, "
            f"got shapes {a.shape} and {b.shape}"
        )
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot transport to or from an empty point set")
    return a, b


def _pairwise_sq_dists(a, b):
    # direct differences: exactly zero for coincident points, unlike the
    # a^2 + b^2 - 2ab expansion; a non-finite result is left for
    # solve_coupling to reject
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a[:, None, :] - b[None, :, :]
        return np.multiply(diff, diff, out=diff).sum(axis=2)


def _transport_simplex(cost, basis=None):
    """Network simplex on the transport problem, in integer flow units.

    Row ``i`` ships ``L / na`` units and column ``j`` receives ``L / nb``,
    ``L = lcm(na, nb)``, so the plan is ``flow / L`` exactly.  Flows are
    kept under Orden's perturbation, on a ``k = 2 na + 1`` times finer
    scale: each row ships one unit more and the last column ``na`` more.
    Then no partial sum of supplies equals one of demands, no basis is
    degenerate, every pivot lowers the cost and the simplex cannot cycle.
    A tree's perturbed flow ``k x + d`` has ``-na < d <= na``, so
    ``(flow + na) // k`` recovers the flow ``x``.

    Starts from ``basis``, ``((na, nb), rows, cols, flows)`` of the tree's
    ``na + nb - 1`` cells, or from the north-west corner if it has other
    sizes or is None.  The most negative reduced cost enters until none
    is below ``-PLAN_OPTIMALITY_TOL * max(1, max cost)``.
    """
    na, nb = cost.shape
    lattice = math.lcm(na, nb)
    k = 2 * na + 1
    if basis is None or basis[0] != cost.shape:
        supply = [k * (lattice // na) + 1] * na
        demand = [k * (lattice // nb)] * (nb - 1) + [k * (lattice // nb) + na]
        cells, i, j = [], 0, 0
        while i < na:
            q = min(supply[i], demand[j])
            cells.append((i, j, q))
            supply[i] -= q
            demand[j] -= q
            i, j = (i + 1, j) if supply[i] == 0 else (i, j + 1)
        basis = (cost.shape, *zip(*cells))
    rows, cols, flow = (list(part) for part in basis[1:])
    tol = PLAN_OPTIMALITY_TOL * max(1.0, float(cost.max()))
    n = na + nb  # node i < na is row i, node na + j is column j
    pivots = 0
    while True:
        # potentials u_i + v_j = cost_ij on the tree, rooted at row 0
        adjacent = [[] for _ in range(n)]
        for e in range(n - 1):
            adjacent[rows[e]].append(e)
            adjacent[na + cols[e]].append(e)
        basic = cost[rows, cols].tolist()
        pot, up, parent, depth = [0.0] * n, [-1] * n, [0] * n, [0] * n
        order = [0]
        for node in order:
            for e in adjacent[node]:
                if e != up[node]:
                    child = na + cols[e] if node < na else rows[e]
                    pot[child] = basic[e] - pot[node]
                    up[child], parent[child], depth[child] = e, node, depth[node] + 1
                    order.append(child)
        reduced = cost - np.array(pot[:na])[:, None] - np.array(pot[na:])
        enter = int(reduced.argmin())
        if reduced.flat[enter] >= -tol:
            break
        # the entering cell closes a cycle with the tree paths from row i and
        # column j up to their meeting node; flow falls on the path cells
        # climbed from a row on i's side and from a column on j's side
        i, j = divmod(enter, nb)
        a, b, path = i, na + j, []
        while a != b:
            if depth[a] > depth[b]:
                path.append((up[a], -1 if a < na else 1))
                a = parent[a]
            else:
                path.append((up[b], -1 if b >= na else 1))
                b = parent[b]
        leave = min((e for e, sign in path if sign < 0), key=flow.__getitem__)
        theta = flow[leave]
        for e, sign in path:
            flow[e] += sign * theta
        rows[leave], cols[leave], flow[leave] = i, j, theta
        pivots += 1
    plan = np.zeros_like(cost)
    plan[rows, cols] = np.array([(f + na) // k for f in flow]) / lattice
    return CouplingPlan(plan, (cost.shape, tuple(rows), tuple(cols), tuple(flow)), pivots)


def solve_coupling(points_a, points_b, cost=None, basis=None) -> CouplingPlan:
    """Exact optimal coupling for squared-Euclidean cost, uniform weights.

    Runs the network simplex in integer units, so plan entries are exact
    multiples of ``1 / lcm(na, nb)``; between equal clouds the plan is a
    permutation.  ``cost`` is the pairwise squared-distance matrix, if
    already known.  An earlier plan's ``basis`` at the same sizes starts
    the simplex; while it stays optimal, no pivot is taken.  A non-finite
    cost raises ``ValueError``: the simplex cannot price a NaN or an inf.
    """
    a, b = _clouds(points_a, points_b)
    if cost is None:
        cost = _pairwise_sq_dists(a, b)
    if not np.isfinite(cost).all():
        raise ValueError(
            "transport costs must be finite: a point is NaN or inf, "
            "or a squared distance overflows"
        )
    return _transport_simplex(cost, basis)


@dataclass
class PlanCache:
    """The last simplex basis of a sequence of :func:`wasserstein2` calls.

    A step whose cached basis is still optimal counts as a reuse; a cold
    start, including one after the cloud sizes change, or a step that
    pivots counts as a solve.
    """

    basis: tuple | None = None
    solves: int = 0
    reuses: int = 0


def wasserstein2(points_a, points_b, cache: PlanCache | None = None) -> Tensor:
    """Exact W2 between uniform empirical measures on two point clouds.

    One tape node with value ``sqrt(<P, C>)``, ``P`` the optimal plan and
    ``C`` the pairwise squared distances from direct differences, so W2 is
    exactly zero between coincident clouds.  The plan is constant almost
    everywhere, so the gradient flows through the costs only: the VJP
    scales ``g`` by the sqrt's derivative ``0.5 / W2`` (subgradient 0 at
    0), then applies ``2r (diag(P 1) a - P b)`` to ``a`` and
    ``2r (diag(P^T 1) b - P^T a)`` to ``b``.  With a ``cache``, the
    simplex starts from the last optimal basis, which most steps of a
    training run keep.  Both clouds must be 2-D ``[count, dim]`` with one
    ``dim`` and finite, or ``ValueError`` is raised.
    """
    a = as_tensor(points_a)
    b = as_tensor(points_b)
    _clouds(a.value, b.value)
    cost = _pairwise_sq_dists(a.value, b.value)
    warm = None if cache is None else cache.basis
    coupling = solve_coupling(a.value, b.value, cost, warm)
    if cache is not None:
        if coupling.pivots == 0 and coupling.basis == warm:
            cache.reuses += 1
        else:
            cache.solves += 1
        cache.basis = coupling.basis
    plan = coupling.plan
    value = np.sqrt((plan * cost).sum())
    out = Tensor(value, (a, b))

    def backward_fn(g):
        # the sqrt's derivative, with subgradient 0 at the origin, which W2
        # between coincident clouds hits
        safe = np.where(value > 0.0, value, 1.0)
        r = np.where(value > 0.0, 0.5 * g / safe, 0.0)
        a._accumulate(2.0 * r * (plan.sum(axis=1)[:, None] * a.value - plan @ b.value))
        b._accumulate(2.0 * r * (plan.sum(axis=0)[:, None] * b.value - plan.T @ a.value))

    out._backward_fn = backward_fn
    return out


def risk_bound_gap(source_risk, weighted_entropy, epsilon, test_risk) -> float:
    """Slack of the weighted-entropy upper bound on target risk.

    Returns ``(source_risk + epsilon * weighted_entropy) - test_risk``;
    nonnegative whenever the model's class probabilities are within a
    factor ``epsilon`` of the true conditionals on the target.
    """
    return float(source_risk) + float(epsilon) * float(weighted_entropy) - float(test_risk)
