"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and remembers how it was produced.
Calling :meth:`Tensor.backward` on a scalar runs the nodes it reaches in
reverse creation order and accumulates gradients into every upstream
tensor, including model parameters that persist across training steps.
Graphs are built per step and discarded; the only global state is the
creation counter, so independent models can train concurrently in
separate threads.

Every node is fused: :func:`dense` is one node for a product, bias,
ReLU and dropout mask (a one-output last layer returns its column),
:func:`clamped_sigmoid` and :func:`clamped_exp` squash and clamp,
:func:`take_rows` gathers rows and :func:`weighted_sum` adds the scaled
terms of an objective.  Each has a closed-form vector-Jacobian product
that repeats the unfused operator graph's operations in the same order,
so fusing changes no bit of a gradient; every loss is one node the same
way (see :mod:`fairshift.losses`).  ``Tensor`` has no operators: the
broadcasting operator graph is the tests' oracle, in
``tests/reference_tape.py``.

No backward closure holds its own output ``Tensor``: it captures the
value array instead, so a dropped graph is freed at once, without the
cyclic GC.  No gradient is ever written in place, so a node stores the
first gradient it receives as is, without a copy; it may be a read-only
broadcast view.
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
    "take_rows",
    "weighted_sum",
]


# creation stamps: a node's stamp is larger than each of its parents'
_creation = itertools.count()


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


def as_tensor(x) -> Tensor:
    """Wrap ``x`` as a constant Tensor unless it already is one."""
    return x if isinstance(x, Tensor) else Tensor(x)


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


def weighted_sum(terms) -> Tensor:
    """``c0 t0 + c1 t1 + ...`` over ``(coef, tensor)`` pairs, as one node.

    Adds left to right and hands each term ``g * coef``, so it equals the
    operator chain ``t0 + c1 * t1 + ...`` bit for bit when ``c0`` is 1
    (``1.0 * x == x``), and ``t0 - c1 * t1`` when ``c1`` is negated.  A
    lone term of coefficient 1 is returned as is.
    """
    terms = [(coef, as_tensor(t)) for coef, t in terms]
    if len(terms) == 1 and terms[0][0] == 1.0:
        return terms[0][1]
    value = terms[0][0] * terms[0][1].value
    for coef, t in terms[1:]:
        value = value + coef * t.value
    out = Tensor(value, tuple(t for _, t in terms))

    def backward_fn(g):
        for coef, t in terms:
            t._accumulate(g * coef)

    out._backward_fn = backward_fn
    return out
