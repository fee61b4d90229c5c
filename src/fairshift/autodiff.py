"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and remembers how it was produced.
Calling :meth:`Tensor.backward` on a scalar walks the graph in reverse
topological order and accumulates gradients into every upstream tensor,
including model parameters that persist across training steps.  Graphs
are built per step and discarded; no global state is involved, so
independent models can train concurrently in separate threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "exp",
    "log",
    "relu",
    "sigmoid",
    "sqrt",
    "clip",
    "matmul",
    "take_rows",
]


def _unbroadcast(grad, shape):
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("value", "grad", "_parents", "_backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.value.shape

    def __float__(self):
        return float(self.value)

    def backward(self):
        """Accumulate d(self)/d(node) into ``grad`` for every ancestor.

        Only scalar roots are differentiable; gradients add onto any
        pre-existing ``grad`` arrays, so callers zero parameter grads
        between steps.
        """
        if self.value.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.value.shape}"
            )
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad = self.grad + np.ones_like(self.value)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.value + other.value, (self, other))

        def backward_fn(g):
            self._accumulate(_unbroadcast(g, self.value.shape))
            other._accumulate(_unbroadcast(g, other.value.shape))

        out._backward_fn = backward_fn
        return out

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.value * other.value, (self, other))

        def backward_fn(g):
            self._accumulate(_unbroadcast(g * other.value, self.value.shape))
            other._accumulate(_unbroadcast(g * self.value, other.value.shape))

        out._backward_fn = backward_fn
        return out

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.value / other.value, (self, other))

        def backward_fn(g):
            self._accumulate(_unbroadcast(g / other.value, self.value.shape))
            other._accumulate(
                _unbroadcast(-g * self.value / other.value**2, other.value.shape)
            )

        out._backward_fn = backward_fn
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __neg__(self):
        out = Tensor(-self.value, (self,))
        out._backward_fn = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    __radd__ = __add__
    __rmul__ = __mul__

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.value.sum(axis=axis, keepdims=keepdims), (self,))

        def backward_fn(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.value.shape))

        out._backward_fn = backward_fn
        return out

    def mean(self, axis=None):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)


def as_tensor(x) -> Tensor:
    """Wrap ``x`` as a constant Tensor unless it already is one."""
    return x if isinstance(x, Tensor) else Tensor(x)


def exp(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.exp(t.value), (t,))
    out._backward_fn = lambda g: t._accumulate(g * out.value)
    return out


def log(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.log(t.value), (t,))
    out._backward_fn = lambda g: t._accumulate(g / t.value)
    return out


def sqrt(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.sqrt(t.value), (t,))

    def backward_fn(g):
        # subgradient 0 at the origin; W2 between identical clouds hits this
        safe = np.where(out.value > 0.0, out.value, 1.0)
        t._accumulate(np.where(out.value > 0.0, 0.5 * g / safe, 0.0))

    out._backward_fn = backward_fn
    return out


def relu(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.maximum(t.value, 0.0), (t,))
    out._backward_fn = lambda g: t._accumulate(g * (t.value > 0.0))
    return out


def sigmoid(t) -> Tensor:
    t = as_tensor(t)
    # exp(-|x|) formulation avoids overflow for large negative inputs
    val = np.where(
        t.value >= 0,
        1.0 / (1.0 + np.exp(-np.abs(t.value))),
        np.exp(-np.abs(t.value)) / (1.0 + np.exp(-np.abs(t.value))),
    )
    out = Tensor(val, (t,))
    out._backward_fn = lambda g: t._accumulate(g * out.value * (1.0 - out.value))
    return out


def clip(t, lo=None, hi=None) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only strictly inside."""
    t = as_tensor(t)
    out = Tensor(np.clip(t.value, lo, hi), (t,))
    inside = np.ones_like(t.value, dtype=bool)
    if lo is not None:
        inside &= t.value > lo
    if hi is not None:
        inside &= t.value < hi

    out._backward_fn = lambda g: t._accumulate(g * inside)
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value @ b.value, (a, b))

    def backward_fn(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    out._backward_fn = backward_fn
    return out


def take_rows(t, index) -> Tensor:
    """Select rows of a matrix (or entries of a vector) by index array."""
    t = as_tensor(t)
    index = np.asarray(index)
    out = Tensor(t.value[index], (t,))

    def backward_fn(g):
        full = np.zeros_like(t.value)
        np.add.at(full, index, g)
        t._accumulate(full)

    out._backward_fn = backward_fn
    return out
