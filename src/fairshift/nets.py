"""Dense networks and their optimizer.

The predictor is a 4-layer fully connected net split into an encoder
(first two layers, producing the representation; :meth:`PredictorModel.encode`
runs them alone) and a classifier head (last two layers, producing a
clamped sigmoid probability).  A separate two-layer positive-output
network estimates instance weights over the representation space (or,
for the IW baselines, over raw features).  Each net takes its widths as
arguments and keeps no config: its widths are its parameters' shapes, and
a run's ``TrainConfig`` is the one record of them.  Adam with Kingma &
Ba's fixed moment constants, global-norm gradient clipping and a cosine
learning-rate schedule drives both.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PROB_CLAMP = 1e-7
WEIGHT_NET_PREACT_LIMIT = 10.0
GRAD_CLIP_NORM = 5.0
# Adam's moment decays and denominator offset, Kingma & Ba's defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _glorot(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _dense_params(rng, fan_in, fan_out):
    return Tensor(_glorot(rng, fan_in, fan_out)), Tensor(np.zeros(fan_out))


class PredictorModel:
    """Soft binary classifier ``h(g(x))`` with an explicit encoder split.

    ``g`` is layers 1-2 (the representation), ``h`` is layers 3-4.
    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] so entropy
    and cross-entropy never see log(0).  Dropout at ``dropout_rate``
    follows each hidden layer and is active only when a mask rng is
    passed to :meth:`forward`.  The layer widths are the parameters'
    shapes; :func:`fairshift.training.build_predictor` reads them from a
    ``TrainConfig``.
    """

    def __init__(self, input_dim, seed, hidden_dim, rep_dim, clf_hidden_dim, dropout_rate):
        self.dropout_rate = dropout_rate
        rng = np.random.default_rng(seed)
        self.w1, self.b1 = _dense_params(rng, input_dim, hidden_dim)
        self.w2, self.b2 = _dense_params(rng, hidden_dim, rep_dim)
        self.w3, self.b3 = _dense_params(rng, rep_dim, clf_hidden_dim)
        self.w4, self.b4 = _dense_params(rng, clf_hidden_dim, 1)

    @property
    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.w4, self.b4]

    @property
    def input_dim(self):
        return self.w1.value.shape[0]

    def encode(self, batch, mask=None) -> Tensor:
        """Layers 1-2 as a tape node, ``g(x)``; ``mask`` drops layer 1's output."""
        h1 = ad.dense(self._batch(batch), self.w1, self.b1, relu=True)
        return ad.dense(h1, self.w2, self.b2, relu=True, mask=mask)

    def _batch(self, batch):
        x = batch if isinstance(batch, Tensor) else np.asarray(batch, dtype=np.float64)
        if len(x.shape) != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected batch of width {self.input_dim}, got shape {x.shape}")
        return x

    def forward(self, batch, dropout_rng=None):
        """Return ``(representations [b, rep_dim], probabilities [b])``.

        ``dropout_rng`` enables training-mode dropout; omit it for
        deterministic inference.
        """
        x = self._batch(batch)
        rate = self.dropout_rate
        # dropout after each hidden layer scales the next layer's input; each
        # layer's mask is its own draw from the stream, in layer order
        masks = [None] * 3
        if dropout_rng is not None and rate > 0.0:
            masks = [
                (dropout_rng.random((x.shape[0], w.value.shape[1])) >= rate) / (1.0 - rate)
                for w in (self.w1, self.w2, self.w3)
            ]
        rep = self.encode(x, masks[0])
        h3 = ad.dense(rep, self.w3, self.b3, relu=True, mask=masks[1])
        logits = ad.dense(h3, self.w4, self.b4, mask=masks[2], column=True)
        probs = ad.clamped_sigmoid(logits, PROB_CLAMP, 1.0 - PROB_CLAMP)
        return rep, probs

    def predict_proba(self, features) -> np.ndarray:
        _, probs = self.forward(np.asarray(features, dtype=np.float64))
        return probs.value

    def representations(self, features) -> np.ndarray:
        """Encoder output ``g(x)`` in inference mode, as an array."""
        return self.encode(features).value


class WeightNetwork:
    """Strictly positive two-layer ratio estimator over representations.

    The output is ``exp`` of a pre-activation clamped to
    [-WEIGHT_NET_PREACT_LIMIT, +WEIGHT_NET_PREACT_LIMIT], so values stay
    within [e^-10, e^10]: positive for the reciprocal constraint and
    bounded for the exponential weighting.
    """

    OUTPUT_BIAS_INIT = 1.0

    def __init__(self, input_dim: int, seed: int, hidden_dim: int = 32):
        rng = np.random.default_rng(seed)
        self.w1, self.b1 = _dense_params(rng, input_dim, hidden_dim)
        self.w2, self.b2 = _dense_params(rng, hidden_dim, 1)
        # level-shifted init: an uninformed ratio estimate should not
        # start at the constraint-satisfying point
        self.b2.value = self.b2.value + self.OUTPUT_BIAS_INIT

    @property
    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, inputs):
        x = inputs if isinstance(inputs, Tensor) else np.asarray(inputs, dtype=np.float64)
        width = self.w1.value.shape[0]
        if len(x.shape) != 2 or x.shape[1] != width:
            raise ValueError(f"expected input of width {width}, got shape {x.shape}")
        h = ad.dense(x, self.w1, self.b1, relu=True)
        pre = ad.dense(h, self.w2, self.b2, column=True)
        return ad.clamped_exp(pre, -WEIGHT_NET_PREACT_LIMIT, WEIGHT_NET_PREACT_LIMIT)

    def ratios(self, inputs) -> np.ndarray:
        return self.forward(np.asarray(inputs, dtype=np.float64)).value


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from ``base_lr`` at step 0 to exactly 0 at ``total_steps``."""
    if total_steps <= 0 or step >= total_steps:
        return 0.0
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


class AdamOptimizer:
    """Adam with decoupled weight decay, global-norm clipping, cosine decay.

    ``step(params, step_index)`` reads gradients from each parameter's
    ``grad`` slot, clips their joint norm to GRAD_CLIP_NORM, applies the
    moment update at the scheduled learning rate, clears the grads and
    returns the pre-clip norm.  The moments and the work arrays are
    flat buffers, allocated once; each step updates all parameters at
    once, concatenated, into a fresh array and rebinds each parameter's
    ``value`` to its view of it.  No value is written in place, so
    assigning a new array to a ``value`` between steps is safe.  The
    optimizer keeps plain offsets, not views, so ``copy.deepcopy`` of it
    together with its parameters gives an independent optimizer that
    steps bit for bit like the original.
    """

    def __init__(
        self,
        params,
        total_steps: int,
        base_lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        self.total_steps = total_steps
        self.base_lr = base_lr
        self.weight_decay = weight_decay
        size = sum(p.value.size for p in self.params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        # work buffers: the gradient and two temporaries
        self._g, self._a, self._b = (np.zeros(size) for _ in range(3))
        # each parameter's (lo, hi, shape) in the flat vectors
        ends = np.cumsum([p.value.size for p in self.params]).tolist()
        self._layout = [
            (hi - p.value.size, hi, p.value.shape) for p, hi in zip(self.params, ends)
        ]
        # the last step's result, whose views the parameters hold
        self._flat = None
        self.t = 0

    def step(self, step_index: int) -> float:
        g, a, b = self._g, self._a, self._b
        for p, (lo, hi, _) in zip(self.params, self._layout):
            g[lo:hi] = 0.0 if p.grad is None else p.grad.ravel()
        # squares summed per parameter, then over parameters: this order
        # fixes the last bits of the norm, and so of every trajectory.  A
        # finite gradient whose squares overflow has an infinite norm, and
        # clipping by it would zero the step.  np.add.reduceat sums a segment
        # in another order than a[lo:hi].sum() and differs in the last bits
        # on segment lengths from 10 to 9000, so the per-parameter sums stay
        with np.errstate(over="ignore"):
            np.multiply(g, g, out=a)
            norm = math.sqrt(sum(float(a[lo:hi].sum()) for lo, hi, _ in self._layout))
        if not math.isfinite(norm):
            raise FloatingPointError("non-finite gradient norm")
        if norm > GRAD_CLIP_NORM:
            np.multiply(g, GRAD_CLIP_NORM / norm, out=g)
        lr = cosine_lr(step_index, self.total_steps, self.base_lr)
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        np.multiply(self.m, ADAM_BETA1, out=self.m)
        np.add(self.m, a, out=self.m)
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        np.multiply(a, g, out=a)
        np.multiply(self.v, ADAM_BETA2, out=self.v)
        np.add(self.v, a, out=self.v)
        # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(self.m, bc1, out=a)
        np.divide(self.v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        # new = (flat - lr update) - (lr wd) flat; while every value is still
        # a view of the last result, that result is the flat vector
        flat = self._flat
        if flat is None or any(p.value.base is not flat for p in self.params):
            flat = np.concatenate([p.value.ravel() for p in self.params])
        np.multiply(a, lr, out=a)
        np.multiply(flat, lr * self.weight_decay, out=b)
        new = flat - a
        np.subtract(new, b, out=new)
        self._flat = new
        for p, (lo, hi, shape) in zip(self.params, self._layout):
            p.value = new[lo:hi].reshape(shape)
            p.grad = None
        return norm


def parameter_digest(params) -> str:
    """SHA-256 over the concatenated parameter bytes (bit-level identity)."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.value).tobytes())
    return h.hexdigest()
