"""The unfused operator graph over ``fairshift.autodiff.Tensor``: the tests' oracle.

Every node of the package is fused, and ``Tensor`` has no operators.  These
plain functions are the broadcasting operators it had, one tape node per
numpy operation, unchanged: ``add``, ``sub``, ``mul``, ``div``, ``neg``,
``sum``, ``mean``, ``exp`` and ``log``.  Each takes tensors or constants.
The bit-for-bit tests build the unfused graphs of the fused nodes from
them, and the VJP tests reduce a node's output to a scalar with them.
"""

from __future__ import annotations

import numpy as np

from fairshift.autodiff import Tensor, as_tensor


def _unbroadcast(grad, shape):
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value + b.value, (a, b))

    def backward_fn(g):
        a._accumulate(_unbroadcast(g, a.value.shape))
        b._accumulate(_unbroadcast(g, b.value.shape))

    out._backward_fn = backward_fn
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value * b.value, (a, b))

    def backward_fn(g):
        a._accumulate(_unbroadcast(g * b.value, a.value.shape))
        b._accumulate(_unbroadcast(g * a.value, b.value.shape))

    out._backward_fn = backward_fn
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value / b.value, (a, b))

    def backward_fn(g):
        a._accumulate(_unbroadcast(g / b.value, a.value.shape))
        b._accumulate(_unbroadcast(-g * a.value / b.value**2, b.value.shape))

    out._backward_fn = backward_fn
    return out


def neg(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(-t.value, (t,))
    out._backward_fn = lambda g: t._accumulate(-g)
    return out


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def sum(t, axis=None, keepdims=False) -> Tensor:  # noqa: A001 - mirrors np.sum
    t = as_tensor(t)
    out = Tensor(t.value.sum(axis=axis, keepdims=keepdims), (t,))

    def backward_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        t._accumulate(np.broadcast_to(g, t.value.shape))

    out._backward_fn = backward_fn
    return out


def mean(t, axis=None) -> Tensor:
    t = as_tensor(t)
    n = t.value.size if axis is None else t.value.shape[axis]
    return mul(sum(t, axis=axis), 1.0 / n)


def exp(t) -> Tensor:
    t = as_tensor(t)
    value = np.exp(t.value)
    out = Tensor(value, (t,))
    out._backward_fn = lambda g: t._accumulate(g * value)
    return out


def log(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.log(t.value), (t,))
    out._backward_fn = lambda g: t._accumulate(g / t.value)
    return out


def tape_size(root) -> int:
    """Nodes a backward pass from ``root`` reaches, leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
