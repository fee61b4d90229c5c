"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and remembers how it was produced.
Calling :meth:`Tensor.backward` on a scalar runs the nodes it reaches in
reverse creation order and accumulates gradients into every upstream
tensor, including model parameters that persist across training steps.
Graphs are built per step and discarded; the only global state is the
creation counter, so independent models can train concurrently in
separate threads.

The layers of a network are fused nodes: :func:`dense` is one node for a
product, bias, ReLU and dropout mask (a one-output last layer returns its
column), and :func:`clamped_sigmoid` and :func:`clamped_exp` squash and
clamp in one node, each with a closed-form vector-Jacobian product that
repeats the unfused graph's operations in the same order, so fusing
changes no bit of a gradient.  The losses, W2 included, fuse the same
way (see :mod:`fairshift.losses`); the ``Tensor`` operators, :func:`exp`,
:func:`log` and :func:`take_rows` remain for the terms that combine
them.  No backward closure holds its own output ``Tensor``: it captures
the value array instead, so a dropped graph is freed at once, without
the cyclic GC.  No gradient is ever written in place, so a node
stores the first gradient it receives as is, without a copy; it may be a
read-only broadcast view.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "clamped_exp",
    "clamped_sigmoid",
    "dense",
    "exp",
    "log",
    "take_rows",
]


# creation stamps: a node's stamp is larger than each of its parents'
_creation = itertools.count()


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

    __slots__ = ("value", "grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward_fn = backward_fn
        self._seq = next(_creation)

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
        # a node is created after its parents, so reverse creation order
        # is a topological order of the nodes the root reaches
        reached = {id(self): self}
        stack = [self]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in reached:
                    reached[id(parent)] = parent
                    stack.append(parent)
        one = np.ones_like(self.value)
        self.grad = one if self.grad is None else self.grad + one
        for node in sorted(reached.values(), key=lambda node: node._seq, reverse=True):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _accumulate(self, grad):
        # no gradient is ever written in place, so the first one is stored as is
        self.grad = grad if self.grad is None else self.grad + grad

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
    value = np.exp(t.value)
    out = Tensor(value, (t,))
    out._backward_fn = lambda g: t._accumulate(g * value)
    return out


def log(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.log(t.value), (t,))
    out._backward_fn = lambda g: t._accumulate(g / t.value)
    return out


def dense(x, w, b, relu=False, mask=None, column=False) -> Tensor:
    """One layer ``(x * mask) @ w + b``, then ReLU if ``relu``, as one node.

    ``mask`` is a constant array (a dropout mask) scaling the input.  An
    ``x`` that is a plain array is a constant batch: it gets no gradient,
    and the backward pass skips ``g @ w.T`` for it.  With ``column``, a
    one-output layer returns its ``(n,)`` column instead of ``(n, 1)``.
    """
    xv = x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if mask is not None:
        xv = xv * mask
    wv = w.value
    value = xv @ wv
    value += b.value
    if relu:
        np.maximum(value, 0.0, out=value)
    wants_input_grad = isinstance(x, Tensor)
    parents = (x, w, b) if wants_input_grad else (w, b)
    out = Tensor(value.reshape(-1) if column else value, parents)

    def backward_fn(g):
        if column:
            g = g[:, None]
        if relu:
            g = g * (value > 0.0)
        b._accumulate(g.sum(axis=0))
        if wants_input_grad:
            gx = g @ wv.T
            x._accumulate(gx if mask is None else gx * mask)
        w._accumulate(xv.T @ g)

    out._backward_fn = backward_fn
    return out


def clamped_sigmoid(t, lo, hi) -> Tensor:
    """``clip(sigmoid(t), lo, hi)``; the gradient passes only strictly inside."""
    t = as_tensor(t)
    # exp(-|x|) formulation avoids overflow for large negative inputs
    e = np.exp(-np.abs(t.value))
    d = 1.0 + e
    s = np.where(t.value >= 0, 1.0 / d, e / d)
    inside = (s > lo) & (s < hi)
    out = Tensor(np.clip(s, lo, hi), (t,))
    out._backward_fn = lambda g: t._accumulate(g * inside * s * (1.0 - s))
    return out


def clamped_exp(t, lo, hi) -> Tensor:
    """``exp(clip(t, lo, hi))``; the gradient passes only strictly inside."""
    t = as_tensor(t)
    inside = (t.value > lo) & (t.value < hi)
    value = np.exp(np.clip(t.value, lo, hi))
    out = Tensor(value, (t,))
    out._backward_fn = lambda g: t._accumulate(g * value * inside)
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
