import numpy as np
import pytest

from fairshift import autodiff as ad
from fairshift.autodiff import Tensor


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
    loss = ((t * t + 2.0 * t) * 0.5).sum()
    loss.backward()
    np.testing.assert_allclose(t.grad, _numeric_grad(f, xv.copy()), atol=1e-6)


def test_matmul_log_sigmoid_composite():
    rng = np.random.default_rng(1)
    wv = rng.normal(size=(3, 2))
    xv = rng.normal(size=(5, 3))

    def f(w):
        return float(-np.log(1.0 / (1.0 + np.exp(-(xv @ w)))).mean())

    w = Tensor(wv.copy())
    loss = -(ad.log(ad.sigmoid(ad.matmul(Tensor(xv), w)))).mean()
    loss.backward()
    np.testing.assert_allclose(w.grad, _numeric_grad(f, wv.copy()), atol=1e-6)


def test_broadcast_add_gradient_sums_over_expanded_axes():
    b = Tensor(np.zeros(3))
    x = Tensor(np.ones((4, 3)))
    (x + b).sum().backward()
    np.testing.assert_array_equal(b.grad, np.full(3, 4.0))


def test_division_gradients():
    a = Tensor(np.array([2.0, 4.0]))
    b = Tensor(np.array([1.0, 2.0]))
    (a / b).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.5])
    np.testing.assert_allclose(b.grad, [-2.0, -1.0])


def test_relu_blocks_negative_side():
    t = Tensor(np.array([-1.0, 2.0]))
    ad.relu(t).sum().backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0])


def test_clip_gradient_only_inside():
    t = Tensor(np.array([-2.0, 0.5, 2.0]))
    ad.clip(t, 0.0, 1.0).sum().backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


def test_take_rows_accumulates_repeats():
    t = Tensor(np.arange(6.0).reshape(3, 2))
    sel = ad.take_rows(t, np.array([1, 1, 2]))
    sel.sum().backward()
    np.testing.assert_array_equal(t.grad, [[0, 0], [2, 2], [1, 1]])


def test_sqrt_at_zero_uses_zero_subgradient():
    t = Tensor(np.array(0.0))
    ad.sqrt(t).backward()
    np.testing.assert_array_equal(t.grad, 0.0)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        t.backward()


def test_gradient_linearity_doubling_loss_doubles_grads():
    rng = np.random.default_rng(2)
    xv = rng.normal(size=(3, 3))
    t1 = Tensor(xv.copy())
    (ad.exp(t1) * 0.5).sum().backward()
    t2 = Tensor(xv.copy())
    (ad.exp(t2) * 1.0).sum().backward()
    np.testing.assert_allclose(2.0 * t1.grad, t2.grad)


def test_unused_parameter_gets_no_gradient():
    used = Tensor(np.ones(2))
    unused = Tensor(np.ones(2))
    (used * 3.0).sum().backward()
    assert unused.grad is None


def test_grad_accumulates_across_shared_subexpressions():
    x = Tensor(np.array(2.0))
    y = x * x + x * 3.0
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * 2.0 + 3.0)
