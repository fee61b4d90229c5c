import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_tape as ref
from fairshift import autodiff as ad
from fairshift.autodiff import Tensor
from fairshift.data import make_synthetic_asymmetric_labeled
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
from fairshift.training import TrainConfig, train


def _numeric_grad(f, x, h=1e-6):
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * h)
    return grad


def test_add_mul_chain_matches_finite_differences():
    rng = np.random.default_rng(0)
    xv = rng.normal(size=(4, 3))

    def f(x):
        return float(((x * x + 2.0 * x) * 0.5).sum())

    t = Tensor(xv.copy())
    loss = ref.sum(ref.mul(ref.add(ref.mul(t, t), ref.mul(2.0, t)), 0.5))
    loss.backward()
    np.testing.assert_allclose(t.grad, _numeric_grad(f, xv.copy()), atol=1e-6)


def test_matmul_log_sigmoid_composite():
    rng = np.random.default_rng(1)
    wv = rng.normal(size=(3, 2))
    xv = rng.normal(size=(5, 3))

    def f(w):
        return float(-np.log(1.0 / (1.0 + np.exp(-(xv @ w)))).mean())

    w = Tensor(wv.copy())
    logits = ad.dense(xv, w, Tensor(np.zeros(2)))
    loss = ref.neg(ref.mean(ref.log(ad.clamped_sigmoid(logits, 1e-7, 1.0 - 1e-7))))
    loss.backward()
    np.testing.assert_allclose(w.grad, _numeric_grad(f, wv.copy()), atol=1e-6)


def test_broadcast_add_gradient_sums_over_expanded_axes():
    b = Tensor(np.zeros(3))
    x = Tensor(np.ones((4, 3)))
    ref.sum(ref.add(x, b)).backward()
    np.testing.assert_array_equal(b.grad, np.full(3, 4.0))


def test_division_gradients():
    a = Tensor(np.array([2.0, 4.0]))
    b = Tensor(np.array([1.0, 2.0]))
    ref.sum(ref.div(a, b)).backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.5])
    np.testing.assert_allclose(b.grad, [-2.0, -1.0])


def test_relu_blocks_negative_side():
    t = Tensor(np.array([[-1.0, 2.0]]))
    ref.sum(ad.dense(t, Tensor(np.eye(2)), Tensor(np.zeros(2)), relu=True)).backward()
    np.testing.assert_array_equal(t.grad, [[0.0, 1.0]])


def test_clip_gradient_only_inside():
    t = Tensor(np.array([-2.0, 0.5, 2.0]))
    ref.sum(ad.clamped_exp(t, 0.0, 1.0)).backward()
    np.testing.assert_array_equal(t.grad, [0.0, np.exp(0.5), 0.0])
    t = Tensor(np.array([-30.0, 0.0, 30.0]))
    ref.sum(ad.clamped_sigmoid(t, 1e-7, 1.0 - 1e-7)).backward()
    np.testing.assert_array_equal(t.grad, [0.0, 0.25, 0.0])


def test_dense_gives_no_gradient_to_an_array_batch():
    w, b = Tensor(np.ones((2, 3))), Tensor(np.zeros(3))
    out = ad.dense(np.array([[1.0, 2.0]]), w, b)
    assert out._parents == (w, b)
    ref.sum(out).backward()
    np.testing.assert_array_equal(w.grad, [[1.0] * 3, [2.0] * 3])
    np.testing.assert_array_equal(b.grad, [1.0] * 3)


def test_take_rows_accumulates_repeats():
    t = Tensor(np.arange(6.0).reshape(3, 2))
    sel = ad.take_rows(t, np.array([1, 1, 2]))
    ref.sum(sel).backward()
    np.testing.assert_array_equal(t.grad, [[0, 0], [2, 2], [1, 1]])


def test_backward_requires_scalar():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        t.backward()


def test_gradient_linearity_doubling_loss_doubles_grads():
    rng = np.random.default_rng(2)
    xv = rng.normal(size=(3, 3))
    t1 = Tensor(xv.copy())
    ref.sum(ref.mul(ref.exp(t1), 0.5)).backward()
    t2 = Tensor(xv.copy())
    ref.sum(ref.mul(ref.exp(t2), 1.0)).backward()
    np.testing.assert_allclose(2.0 * t1.grad, t2.grad)


def test_unused_parameter_gets_no_gradient():
    used = Tensor(np.ones(2))
    unused = Tensor(np.ones(2))
    ref.sum(ref.mul(used, 3.0)).backward()
    assert unused.grad is None


def test_grad_accumulates_across_shared_subexpressions():
    x = Tensor(np.array(2.0))
    y = ref.add(ref.mul(x, x), ref.mul(x, 3.0))
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * 2.0 + 3.0)


# -- fused nodes: vector-Jacobian products against central differences ------

SHAPES = st.integers(1, 5)
SEEDS = st.integers(0, 2**32 - 1)


def _check_vjp(build, inputs, seed, h=1e-6):
    """``build(*tensors)`` vs central differences of ``sum(out * c)``, random ``c``."""
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]  # 0-d draws are scalars
    tensors = [Tensor(x.copy()) for x in inputs]
    out = build(*tensors)
    cot = np.random.default_rng(seed).normal(size=out.value.shape)
    ref.sum(ref.mul(out, cot)).backward()
    for k, x in enumerate(inputs):

        def f(xk, k=k):
            args = [Tensor(v) for v in inputs[:k] + [xk] + inputs[k + 1 :]]
            return float((build(*args).value * cot).sum())

        expected = _numeric_grad(f, x.copy(), h)
        assert np.shape(tensors[k].grad) == x.shape
        np.testing.assert_allclose(tensors[k].grad, expected, rtol=1e-5, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SHAPES, SHAPES, st.booleans(), st.booleans(), SEEDS)
def test_dense_vjp(rows, fan_in, fan_out, relu, masked, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, fan_in))
    w, b = rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out)
    mask = (rng.random((rows, fan_in)) >= 0.25) / 0.75 if masked else None
    pre = (x if mask is None else x * mask) @ w + b
    assume(not relu or np.abs(pre).min() > 1e-3)  # central differences across the kink
    _check_vjp(lambda x, w, b: ad.dense(x, w, b, relu=relu, mask=mask), [x, w, b], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SHAPES, st.sampled_from([(1e-7, 1.0 - 1e-7), (0.2, 0.8)]), SEEDS)
def test_clamped_sigmoid_vjp(rows, cols, bounds, seed):
    lo, hi = bounds
    x = np.random.default_rng(seed).normal(scale=6.0, size=(rows, cols))
    s = 1.0 / (1.0 + np.exp(-x))
    assume(np.abs(s - lo).min() > 1e-4 and np.abs(s - hi).min() > 1e-4)
    _check_vjp(lambda t: ad.clamped_sigmoid(t, lo, hi), [x], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SEEDS)
def test_clamped_exp_vjp(rows, seed):
    x = np.random.default_rng(seed).normal(scale=2.0, size=rows)
    assume(np.abs(np.abs(x) - 1.0).min() > 1e-4)
    _check_vjp(lambda t: ad.clamped_exp(t, -1.0, 1.0), [x], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.booleans(), SEEDS)
def test_cross_entropy_vjp(rows, weighted, seed):
    rng = np.random.default_rng(seed)
    p, y = rng.uniform(0.05, 0.95, rows), (rng.random(rows) < 0.5).astype(np.float64)
    weights = rng.uniform(0.1, 3.0, rows) if weighted else None
    _check_vjp(lambda t: cross_entropy_risk(t, y, weights), [p], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SEEDS)
def test_conditional_entropy_vjp(rows, seed):
    p = np.random.default_rng(seed).uniform(0.05, 0.95, rows)
    _check_vjp(conditional_entropy, [p], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SEEDS)
def test_weighted_entropy_vjp(rows, seed):
    rng = np.random.default_rng(seed)
    fw, h = rng.normal(scale=2.0, size=rows), rng.uniform(0.0, 0.7, rows)
    _check_vjp(weighted_entropy_term, [fw, h], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SHAPES, st.floats(0.1, 5.0), st.floats(0.1, 5.0), SEEDS)
def test_constraint_penalty_vjp(rows_t, rows_s, c1, c2, seed):
    assume(c1 != c2)
    rng = np.random.default_rng(seed)
    ft, fs = rng.uniform(0.2, 3.0, rows_t), rng.uniform(0.2, 3.0, rows_s)
    _check_vjp(lambda t, s: constraint_penalty(t, s, c1, c2), [ft, fs], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SHAPES, st.sampled_from(["sigmoid", "exp"]), st.booleans(), SEEDS)
def test_column_head_vjp(rows, fan_in, head, past_clamp, seed):
    # past_clamp scales the weights so that some outputs sit on the clamp
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, fan_in))
    w = rng.normal(scale=8.0 if past_clamp else 0.3, size=(fan_in, 1))
    b = rng.normal(size=1)
    lo, hi = (0.2, 0.8) if head == "sigmoid" else (-1.0, 1.0)
    squash = ad.clamped_sigmoid if head == "sigmoid" else ad.clamped_exp
    pre = (x @ w + b)[:, 0]
    edges = 1.0 / (1.0 + np.exp(-pre)) if head == "sigmoid" else pre
    assume(np.abs(edges - lo).min() > 1e-4 and np.abs(edges - hi).min() > 1e-4)
    _check_vjp(lambda x, w, b: squash(ad.dense(x, w, b, column=True), lo, hi), [x, w, b], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, SHAPES, st.sampled_from(["kliep", "lsif"]), SEEDS)
def test_ratio_loss_vjp(rows_t, rows_s, name, seed):
    rng = np.random.default_rng(seed)
    s_test, s_train = rng.uniform(0.2, 3.0, rows_t), rng.uniform(0.2, 3.0, rows_s)
    _check_vjp(kliep_loss if name == "kliep" else lsif_loss, [s_test, s_train], seed)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4), SEEDS)
def test_weighted_sum_vjp(coefs, seed):
    terms = list(np.random.default_rng(seed).normal(size=len(coefs)))
    _check_vjp(lambda *ts: ad.weighted_sum(zip(coefs, ts)), terms, seed)


# -- the reference operators and take_rows, against central differences ---

OPERATORS = {"+": ref.add, "-": ref.sub, "*": ref.mul, "/": ref.div}
UNARY = {
    "neg": ref.neg,
    "rsub": lambda t: ref.sub(1.5, t),
    "rtruediv": lambda t: ref.div(1.5, t),
    "exp": ref.exp,
    "log": ref.log,
}


def _away_from_zero(rng, shape):
    return rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


@settings(max_examples=80, deadline=None)
@given(
    hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
    st.sampled_from(sorted(OPERATORS)),
    SEEDS,
)
def test_binary_operator_vjp(shapes, op, seed):
    rng = np.random.default_rng(seed)
    x, y = (_away_from_zero(rng, shape) for shape in shapes.input_shapes)
    _check_vjp(OPERATORS[op], [x, y], seed)


@settings(max_examples=60, deadline=None)
@given(hnp.array_shapes(min_dims=0, max_dims=3, max_side=3), st.sampled_from(sorted(UNARY)), SEEDS)
def test_unary_node_vjp(shape, op, seed):
    x = _away_from_zero(np.random.default_rng(seed), shape)
    _check_vjp(UNARY[op], [np.abs(x) if op == "log" else x], seed)


@settings(max_examples=60, deadline=None)
@given(hnp.array_shapes(min_dims=0, max_dims=3, max_side=3), st.data(), st.booleans(), SEEDS)
def test_sum_and_mean_vjp(shape, data, keepdims, seed):
    axis = data.draw(st.sampled_from([None, *range(-len(shape), len(shape))]))
    x = np.random.default_rng(seed).normal(size=shape)
    _check_vjp(lambda t: ref.sum(t, axis=axis, keepdims=keepdims), [x], seed)
    _check_vjp(lambda t: ref.mean(t, axis=axis), [x], seed)


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.integers(0, 3), st.lists(st.integers(0, 100), min_size=1, max_size=8), SEEDS)
def test_take_rows_vjp(rows, cols, picks, seed):
    # cols 0 selects entries of a vector; the first pick repeats at the end
    x = np.random.default_rng(seed).normal(size=(rows, cols) if cols else (rows,))
    index = np.array(picks + picks[:1]) % rows
    _check_vjp(lambda t: ad.take_rows(t, index), [x], seed)


def _unfused_cross_entropy(p, y, row_weights):
    per_row = ref.neg(
        ref.add(ref.mul(y, ref.log(p)), ref.mul(1.0 - y, ref.log(ref.sub(1.0, p))))
    )
    return ref.mean(per_row if row_weights is None else ref.mul(row_weights, per_row))


def _unfused_entropy(p):
    q = ref.sub(1.0, p)
    return ref.sub(ref.neg(ref.mul(p, ref.log(p))), ref.mul(q, ref.log(q)))


@pytest.mark.parametrize("weighted", [False, True])
def test_fused_losses_equal_the_unfused_graph_bit_for_bit(weighted):
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        pv, y = rng.uniform(1e-7, 1.0 - 1e-7, n), (rng.random(n) < 0.5).astype(np.float64)
        weights = rng.uniform(0.01, 5.0, n) if weighted else None
        cot = Tensor(rng.normal(size=n))
        for fused, unfused in (
            (
                lambda p: cross_entropy_risk(p, y, weights),
                lambda p: _unfused_cross_entropy(p, y, weights),
            ),
            (
                lambda p: ref.sum(ref.mul(conditional_entropy(p), cot)),
                lambda p: ref.sum(ref.mul(_unfused_entropy(p), cot)),
            ),
        ):
            a, b = Tensor(pv.copy()), Tensor(pv.copy())
            la, lb = fused(a), unfused(b)
            la.backward()
            lb.backward()
            assert float(la) == float(lb)
            np.testing.assert_array_equal(a.grad, b.grad)


def _unfused_weighted_entropy(fw, h):
    return ref.mean(ref.mul(ref.exp(ref.neg(fw)), h))


def _unfused_penalty(ft, fs, c1, c2):
    d1 = ref.sub(ref.mean(ft), 1.0)
    d2 = ref.sub(ref.mean(ref.div(1.0, fs)), 1.0)
    return ref.add(ref.mul(c1, ref.mul(d1, d1)), ref.mul(c2, ref.mul(d2, d2)))


@pytest.mark.parametrize("n_t,n_s", [(1, 1), (7, 3), (50, 256)])
def test_ascent_nodes_equal_the_unfused_graph_bit_for_bit(n_t, n_s):
    # the weight-net ascent loss: both nodes accumulate into one shared F_w
    # on the target, the penalty first, as the unfused graph's order did
    rng = np.random.default_rng(n_t + n_s)
    for _ in range(20):
        ftv, fsv = rng.uniform(0.05, 20.0, n_t), rng.uniform(0.05, 20.0, n_s)
        hv = rng.uniform(0.0, 0.7, n_t)
        c1, c2, lam = rng.uniform(0.1, 3.0, 3)
        grads = []
        for we_fn, penalty_fn in (
            (weighted_entropy_term, constraint_penalty),
            (_unfused_weighted_entropy, _unfused_penalty),
        ):
            leaf_t, fs, h = Tensor(ftv.copy()), Tensor(fsv.copy()), Tensor(hv.copy())
            ft = ref.mul(leaf_t, 1.0)  # a non-leaf, like the weight net's output
            loss = ref.sub(penalty_fn(ft, fs, c1, c2), ref.mul(lam, we_fn(ft, h)))
            loss.backward()
            grads.append([float(loss), leaf_t.grad, fs.grad, h.grad])
        (va, *ga), (vb, *gb) = grads
        assert va == vb
        for a, b in zip(ga, gb):
            np.testing.assert_array_equal(a, b)


def test_weight_zero_entropy_term_equals_the_plain_mean_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 5, 50):
        hv = rng.uniform(0.0, 0.7, n)
        a, b = Tensor(hv.copy()), Tensor(hv.copy())
        la, lb = ref.mul(weighted_entropy_term(0.0, a), 0.3), ref.mul(ref.mean(b), 0.3)
        la.backward()
        lb.backward()
        assert float(la) == float(lb)
        np.testing.assert_array_equal(a.grad, b.grad)


def _unfused_kliep(s_test, s_train):
    d = ref.sub(ref.mean(s_train), 1.0)
    return ref.add(ref.mean(ref.neg(ref.log(s_test))), ref.mul(d, d))


def _unfused_lsif(s_test, s_train):
    return ref.add(ref.mean(ref.neg(s_test)), ref.mul(0.5, ref.mean(ref.mul(s_train, s_train))))


@pytest.mark.parametrize("n_t,n_s", [(1, 1), (7, 3), (50, 256)])
def test_ratio_losses_equal_the_unfused_graph_bit_for_bit(n_t, n_s):
    # one ratio-fit step: both sides come from one network, as in the fit
    rng = np.random.default_rng(n_t * n_s)
    for fused, unfused in ((kliep_loss, _unfused_kliep), (lsif_loss, _unfused_lsif)):
        for _ in range(10):
            xt, xs = rng.normal(size=(n_t, 3)), rng.normal(size=(n_s, 3))
            scale, seed = rng.normal(), int(rng.integers(2**32))
            results = []
            for loss_fn in (fused, unfused):
                net = WeightNetwork(3, seed, hidden_dim=5)
                loss = ref.mul(loss_fn(net.forward(xt), net.forward(xs)), scale)
                loss.backward()
                results.append([loss.value] + [p.grad for p in net.parameters])
            for a, b in zip(*results):
                np.testing.assert_array_equal(a, b)


def _objective_step(lambda1, lambda2, rows, fused):
    """One ascent and one descent of the epoch loop: values and parameter grads.

    ``fused`` sums the terms by ``weighted_sum``, as the loop does; otherwise
    by the operator chains ``penalty - l1 we`` and ``risk + l1 ent + l2 w2``.
    """
    rng = np.random.default_rng(rows)
    cfg = NetConfig(input_dim=3, hidden_dim=8, rep_dim=4, clf_hidden_dim=4)
    model, wnet = PredictorModel(cfg, seed=0), WeightNetwork(4, seed=1, hidden_dim=4)
    xs, ys = rng.normal(size=(rows, 3)), (rng.random(rows) < 0.5).astype(np.float64)
    xt, groups = rng.normal(size=(6, 3)), np.array([0, 1, 0, 1, 1, 0])
    rep_t, probs_t = model.forward(xt)
    entropies = conditional_entropy(probs_t)
    fw_t, fw_s = wnet.forward(rep_t.value), wnet.forward(model.representations(xs))
    we = weighted_entropy_term(fw_t, entropies.value)
    penalty = constraint_penalty(fw_t, fw_s, 1.0, 2.0)
    if fused:
        ascent = ad.weighted_sum([(1.0, penalty), (-lambda1, we)])
    else:
        ascent = ref.sub(penalty, ref.mul(lambda1, we))
    ascent.backward()
    _, probs = model.forward(xs, dropout_rng=np.random.default_rng(2))
    # the chain's nodes are built either way, in the loop's order; the
    # fused sum does not reach them
    terms = [(1.0, cross_entropy_risk(probs, ys))]
    descent = terms[0][1]
    if lambda1 > 0:
        terms.append((lambda1, weighted_entropy_term(wnet.ratios(rep_t.value), entropies)))
        descent = ref.add(descent, ref.mul(*terms[-1]))
    if lambda2 > 0:
        rep0, rep1 = (ad.take_rows(rep_t, np.flatnonzero(groups == g)) for g in (0, 1))
        terms.append((lambda2, wasserstein2(rep0, rep1)))
        descent = ref.add(descent, ref.mul(*terms[-1]))
    if fused:
        descent = ad.weighted_sum(terms)
    descent.backward()
    return [ascent.value, descent.value] + [p.grad for p in model.parameters + wnet.parameters]


@pytest.mark.parametrize("rows", [1, 9])
@pytest.mark.parametrize("lambda2", [0.0, 1.3])
@pytest.mark.parametrize("lambda1", [0.0, 0.4])
def test_objective_sums_equal_the_operator_chains_bit_for_bit(lambda1, lambda2, rows):
    fused = _objective_step(lambda1, lambda2, rows, fused=True)
    unfused = _objective_step(lambda1, lambda2, rows, fused=False)
    for a, b in zip(fused, unfused, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("masked", [False, True])
def test_column_heads_equal_the_unfused_graph_bit_for_bit(masked):
    rng = np.random.default_rng(11)
    for rows, fan_in in ((1, 1), (9, 4), (256, 32)):
        xv = rng.normal(size=(rows, fan_in))
        wv, bv = rng.normal(scale=3.0, size=(fan_in, 1)), rng.normal(size=1)
        mask = (rng.random((rows, fan_in)) >= 0.25) / 0.75 if masked else None
        cot = rng.normal(size=rows)
        for squash, lo, hi in ((ad.clamped_sigmoid, 1e-7, 1 - 1e-7), (ad.clamped_exp, -2, 2)):
            results = []
            for column in (True, False):
                x, w, b = Tensor(xv.copy()), Tensor(wv.copy()), Tensor(bv.copy())
                pre = ad.dense(x, w, b, mask=mask, column=column)
                out = squash(pre if column else ref.sum(pre, axis=1), lo, hi)
                ref.sum(ref.mul(out, cot)).backward()
                results.append([out.value, x.grad, w.grad, b.grad])
            for a, b in zip(*results):
                np.testing.assert_array_equal(a, b)


def test_training_never_writes_a_stored_gradient(monkeypatch):
    # every gradient an accumulation stores is made read-only: an in-place
    # write to one (by a later accumulation, a VJP or Adam) would raise
    source, test = make_synthetic_asymmetric_labeled(seed=4, n_per_group=40)
    target = test.without_labels()
    cfg = TrainConfig(method="ours", pretrain_epochs=0, adapt_epochs=1, m_cap=30, seed=2)
    expected = train(source, target, cfg).param_digests
    real = Tensor._accumulate
    stored = []

    def frozen(self, grad):
        real(self, grad)
        if isinstance(self.grad, np.ndarray):
            self.grad.flags.writeable = False
            stored.append(self.grad)

    monkeypatch.setattr(Tensor, "_accumulate", frozen)
    model = train(source, target, cfg)
    assert len(stored) > 20
    assert model.param_digests == expected


def _tape_sizes(monkeypatch, cfg):
    """Nodes each backward pass of a run reaches, by perfbench's ``_tape_size`` walk."""
    sizes = []
    real = Tensor.backward

    def counted(self):
        sizes.append(ref.tape_size(self))
        real(self)

    monkeypatch.setattr(Tensor, "backward", counted)
    source, test = make_synthetic_asymmetric_labeled(seed=4, n_per_group=40)
    target = test.without_labels()
    train(source, target, cfg)
    return sizes


def test_tape_size_of_ratio_fit_and_weighted_training_steps(monkeypatch):
    # 80 rows in batches of 32: three ratio-fit steps, then three training steps.
    # A fit step: the loss node, two weight-net forwards of three nodes, four
    # parameters.  A training step: the weighted sum, the risk, W2 and its two
    # gathers, a source forward of five nodes, a target encoder of two, and
    # eight parameters.
    cfg = TrainConfig(pretrain_epochs=1, adapt_epochs=0, m_cap=30, seed=2, method="kliep_iw")
    assert _tape_sizes(monkeypatch, cfg) == [11] * 3 + [20] * 3


def test_tape_size_of_an_ours_adaptation_step(monkeypatch):
    # the ascent: the weighted sum, the penalty, the damped entropy and its
    # constant entropies, two weight-net forwards of three nodes, four
    # parameters; the descent: the weighted sum, the risk, a source forward
    # of five nodes, the damped entropy and its constant weights, the
    # entropy, a target forward of five nodes, W2 and its two gathers, and
    # eight parameters
    cfg = TrainConfig(pretrain_epochs=0, adapt_epochs=1, m_cap=30, seed=2)
    assert _tape_sizes(monkeypatch, cfg) == [14, 26]


# -- no reference cycles: a dropped graph is freed without the cyclic GC -----


def _node_values(root):
    """Weak references to the value of every non-leaf node ``root`` reaches."""
    refs, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            refs.append(weakref.ref(node.value))
        stack.extend(node._parents)
    return refs


def _leaf():
    return Tensor(np.random.default_rng(0).uniform(0.1, 0.9, size=(4, 3)))


def _scaled(scale):
    return ref.mul(_leaf(), scale)  # a non-leaf input


NODES = {
    "add_mul_div_neg": lambda: ref.sum(ref.div(ref.neg(ref.add(_scaled(2.0), 1.0)), 3.0)),
    "exp": lambda: ref.sum(ref.exp(_leaf())),
    "log": lambda: ref.sum(ref.log(_leaf())),
    "take_rows": lambda: ref.sum(ad.take_rows(_leaf(), np.array([0, 2]))),
    "dense": lambda: ref.sum(
        ad.dense(_leaf(), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), True)
    ),
    "clamped_sigmoid": lambda: ref.sum(ad.clamped_sigmoid(_leaf(), 0.2, 0.8)),
    "clamped_exp": lambda: ref.sum(ad.clamped_exp(_leaf(), -1.0, 1.0)),
    "cross_entropy": lambda: cross_entropy_risk(
        ref.mul(ref.sum(_leaf(), axis=1), 1.0 / 3.0), [0, 1, 1, 0]
    ),
    "entropy": lambda: ref.sum(conditional_entropy(_leaf())),
    "weighted_entropy": lambda: weighted_entropy_term(_scaled(1.0), _leaf()),
    "constraint_penalty": lambda: constraint_penalty(_scaled(1.0), _leaf(), 2.0, 0.5),
    "dense_column": lambda: ref.sum(
        ad.dense(_leaf(), Tensor(np.ones((3, 1))), Tensor(np.zeros(1)), column=True)
    ),
    "wasserstein2": lambda: wasserstein2(_leaf(), _scaled(2.0)),
    # the W2 node's sqrt at its zero subgradient, between coincident clouds
    "sqrt": lambda: wasserstein2(_leaf(), _scaled(1.0)),
    # the W2 node's plan cost under a fractional plan, 4 points against 2
    "transport_cost": lambda: wasserstein2(
        _leaf(), ref.mul(ad.take_rows(_leaf(), np.array([0, 2])), 2.0)
    ),
    "kliep": lambda: kliep_loss(_scaled(1.0), _scaled(2.0)),
    "lsif": lambda: lsif_loss(_scaled(1.0), _scaled(2.0)),
    "weighted_sum": lambda: ad.weighted_sum(
        [(1.0, ref.sum(_leaf())), (-0.5, ref.sum(_scaled(2.0)))]
    ),
}


@pytest.mark.parametrize("name", sorted(NODES))
def test_dropped_graph_is_freed_without_the_cyclic_gc(name):
    gc.collect()
    gc.disable()
    try:
        loss = NODES[name]()
        loss.backward()
        refs = _node_values(loss)
        del loss
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_training_step_graph_is_freed_without_the_cyclic_gc():
    source, test = make_synthetic_asymmetric_labeled(seed=3, n_per_group=20)
    target = test.without_labels()
    model = PredictorModel(NetConfig(input_dim=2), seed=0)
    weight_net = WeightNetwork(64, seed=1)
    rng = np.random.default_rng(2)
    gc.collect()
    gc.disable()
    try:
        rep_t, probs_t = model.forward(target.features)
        probs = model.forward(source.features, dropout_rng=rng)[1]
        fw = weight_net.forward(rep_t.value)
        groups = target.groups
        loss = ad.weighted_sum(
            [
                (1.0, cross_entropy_risk(probs, source.labels)),
                (0.1, weighted_entropy_term(fw, conditional_entropy(probs_t))),
                (
                    1.0,
                    wasserstein2(
                        ad.take_rows(rep_t, np.flatnonzero(groups == 0)),
                        ad.take_rows(rep_t, np.flatnonzero(groups == 1)),
                    ),
                ),
            ]
        )
        loss.backward()
        refs = _node_values(loss)
        del loss, rep_t, probs_t, probs, fw
        assert len(refs) > 10 and all(ref() is None for ref in refs)
    finally:
        gc.enable()
