"""Training loops: the weighted-entropy min-max method and its baselines.

Every trainer is a pure function of ``(data, config.seed)``.  Randomness
is split into independent streams (model init, weight-net init, batch
shuffling, dropout, target subsampling, ratio fitting), so trainers that
share a seed consume identical randomness on the classifier path.  In
particular ``train_ours`` with both regularizers at zero reproduces the
``train_erm`` parameter trajectory bit for bit.

Every trainer is the paper's one objective with some terms switched
off, and runs the one epoch loop of :func:`_train`: source risk, plus the
``exp(-F_w)``-damped target entropy, plus exact W2 between the target
representation's two group clouds.  It runs ``pretrain_epochs +
adapt_epochs`` epochs over the source data, using ``batch_size`` during
the first stage and the larger ``adapt_train_batch_size`` during the
second (the larger batches keep the Monte-Carlo estimate of the
reciprocal-mean constraint low-variance).  ``ours`` and
``unweighted_entropy`` minimize the source risk alone during the first
stage; the importance-weighting baselines apply the matching term from
epoch 0; ``erm`` and ``zsa`` never adapt.  Epochs that do not adapt run
no target pass, no ascent and no matching.  Each step sums its switched-on
terms in one :func:`fairshift.autodiff.weighted_sum` node, so every
backward pass runs over fused nodes only.  A source that holds one label
only raises ``ValueError`` before any epoch.

``erm``, ``ours`` and ``unweighted_entropy`` train their first
``pretrain_epochs`` epochs alike: source risk on the source's own
features, no row weights, no target.  A :class:`PretrainCache` passed to
:func:`train` lets the runs of a sweep train those epochs once: the first
run stores its state at the end of them, and a later run with the same
source and the same config (but for the fields only adaptation reads)
resumes from a copy of it, bit for bit where its own epochs would have
left it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .data import (
    LabeledDataset,
    NormalizationStats,
    UnlabeledDataset,
    fit_zscore,
)
from .losses import (
    LossBreakdown,
    PlanCache,
    conditional_entropy,
    constraint_penalty,
    cross_entropy_risk,
    kliep_loss,
    lsif_loss,
    wasserstein2,
    weighted_entropy_term,
)
from .nets import (
    GRAD_CLIP_NORM,
    AdamOptimizer,
    NetConfig,
    PredictorModel,
    WeightNetwork,
    parameter_digest,
    zero_grads,
)

METHODS = ("ours", "erm", "kliep_iw", "lsif_iw", "zsa", "unweighted_entropy")
# the methods whose runs share their first ``pretrain_epochs`` epochs
SHARES_PRETRAINING = ("erm", "ours", "unweighted_entropy")
# the TrainConfig fields that only the adaptation stage reads; every other
# field, including any added later, keys the pretraining cache
_ADAPT_ONLY_FIELDS = frozenset(
    ("method", "lambda1", "lambda2", "c1", "c2", "m_cap")
    + ("weight_lr_multiplier", "weight_hidden_dim")
)
RATIO_FLOOR = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    pretrain_epochs: int = 15
    adapt_epochs: int = 35
    batch_size: int = 32
    adapt_train_batch_size: int = 256
    lambda1: float = 0.1
    lambda2: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    seed: int = 0
    weight_decay: float = 1e-5
    learning_rate: float = 1e-3
    # the inner maximizer runs on a faster timescale than the classifier
    weight_lr_multiplier: float = 10.0
    m_cap: int = 50
    method: str = "ours"
    hidden_dim: int = 64
    rep_dim: int = 64
    clf_hidden_dim: int = 32
    weight_hidden_dim: int = 32
    dropout_rate: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.batch_size < 1 or self.adapt_train_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.pretrain_epochs < 0 or self.adapt_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda coefficients must be >= 0")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("penalty coefficients must be > 0")
        if self.m_cap < 1:
            raise ValueError("m_cap must be >= 1")
        for name, bad, rule in (
            ("hidden_dim", self.hidden_dim < 1, ">= 1"),
            ("rep_dim", self.rep_dim < 1, ">= 1"),
            ("clf_hidden_dim", self.clf_hidden_dim < 1, ">= 1"),
            ("weight_hidden_dim", self.weight_hidden_dim < 1, ">= 1"),
            ("learning_rate", self.learning_rate <= 0, "> 0"),
            ("weight_lr_multiplier", self.weight_lr_multiplier <= 0, "> 0"),
            ("weight_decay", self.weight_decay < 0, ">= 0"),
        ):
            if bad:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @property
    def total_epochs(self):
        return self.pretrain_epochs + self.adapt_epochs

    def net_config(self, input_dim) -> NetConfig:
        return NetConfig(
            input_dim=input_dim,
            hidden_dim=self.hidden_dim,
            rep_dim=self.rep_dim,
            clf_hidden_dim=self.clf_hidden_dim,
            weight_hidden_dim=self.weight_hidden_dim,
            dropout_rate=self.dropout_rate,
        )


@dataclass
class TrainedModel:
    method: str
    predictor: PredictorModel
    config: TrainConfig
    history: list = field(default_factory=list)
    param_digests: list = field(default_factory=list)
    weight_net: WeightNetwork | None = None
    input_stats: NormalizationStats | None = None
    # epochs taken from a PretrainCache instead of trained by this run
    resumed_epochs: int = 0

    def predict_proba(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if self.input_stats is not None:
            features = (features - self.input_stats.means) / self.input_stats.stds
        return self.predictor.predict_proba(features)

    def predict(self, features) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(np.int64)


def _streams(seed):
    kids = np.random.SeedSequence(seed).spawn(6)
    return {
        "predictor": kids[0],
        "weight_net": kids[1],
        "batches": np.random.default_rng(kids[2]),
        "dropout": np.random.default_rng(kids[3]),
        "subsample": np.random.default_rng(kids[4]),
        "ratio": kids[5],
    }


def _pretrain_key(cfg):
    return tuple(
        (f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name not in _ADAPT_ONLY_FIELDS
    )


@dataclass(frozen=True)
class _Pretrained:
    """Copies of one run's state at the end of its pretraining epochs, and its key."""

    features: np.ndarray
    labels: np.ndarray
    config_key: tuple
    values: list
    adam_m: np.ndarray
    adam_v: np.ndarray
    adam_t: int
    batches: dict
    dropout: dict
    step: int
    history: list
    digests: list


@dataclass
class PretrainCache:
    """The pretraining epochs of the last run that trained them, to resume from.

    A run of a ``SHARES_PRETRAINING`` method given the cache resumes from
    copies of the stored state when its source features and labels equal
    the stored ones by value and its config equals the stored one in every
    field but those only adaptation reads.  Otherwise it trains those
    epochs itself and, at their end, stores copies of its predictor
    values, Adam's moments and step count, its batch and dropout generator
    states, its step count, history and digests.  The other methods
    neither read nor write the cache.
    """

    state: _Pretrained | None = None

    def store(self, source, cfg, model, opt, streams, step, history, digests):
        self.state = _Pretrained(
            features=source.features.copy(),
            labels=source.labels.copy(),
            config_key=_pretrain_key(cfg),
            values=[p.value.copy() for p in model.parameters],
            adam_m=opt.m.copy(),
            adam_v=opt.v.copy(),
            adam_t=opt.t,
            batches=streams["batches"].bit_generator.state,
            dropout=streams["dropout"].bit_generator.state,
            step=step,
            history=list(history),
            digests=list(digests),
        )

    def resume(self, source, cfg, model, opt, streams):
        """Load copies of a matching state; its ``(step, history, digests)``, or None."""
        state = self.state
        if not (
            state is not None
            and state.config_key == _pretrain_key(cfg)
            and np.array_equal(state.features, source.features)
            and np.array_equal(state.labels, source.labels)
        ):
            return None
        for p, value in zip(model.parameters, state.values):
            p.value = value.copy()
        # field by field, never a deep copy of the optimizer: that would cut
        # its _g_parts/_a_parts views off _g/_a, and the norm would read stale arrays
        np.copyto(opt.m, state.adam_m)
        np.copyto(opt.v, state.adam_v)
        opt.t = state.adam_t
        streams["batches"].bit_generator.state = state.batches
        streams["dropout"].bit_generator.state = state.dropout
        return state.step, list(state.history), list(state.digests)


def _epoch_batch_sizes(cfg):
    return [cfg.batch_size] * cfg.pretrain_epochs + [
        cfg.adapt_train_batch_size
    ] * cfg.adapt_epochs


def _total_steps(cfg, n):
    return sum(-(-n // bs) for bs in _epoch_batch_sizes(cfg))


def _batches(perm, batch_size):
    for start in range(0, len(perm), batch_size):
        yield perm[start : start + batch_size]


def _clip_stats(norms):
    """An epoch's largest pre-clip gradient norm and its count of clipped steps."""
    return max(norms, default=0.0), sum(norm > GRAD_CLIP_NORM for norm in norms)


def _check_finite(value, epoch, what):
    if not np.isfinite(value):
        raise RuntimeError(f"non-finite {what} at epoch {epoch}: {value!r}")


def _subsample_target(target: UnlabeledDataset, cfg, rng, matching=True) -> UnlabeledDataset:
    """The run's ``m_cap`` target points, drawn once.

    With ``matching`` the group clouds are matched, so the target and the
    subsample must both hold points of each group.
    """
    if matching and not (target.has_group(0) and target.has_group(1)):
        raise ValueError("target must contain both groups for representation matching")
    if cfg.m_cap > target.m:
        raise ValueError(f"m_cap={cfg.m_cap} exceeds available target points ({target.m})")
    idx = rng.choice(target.m, size=cfg.m_cap, replace=False)
    sample = target.subset(np.sort(idx))
    if matching:
        for group in (0, 1):
            if not sample.has_group(group):
                raise ValueError(
                    f"the m_cap={cfg.m_cap} target subsample has no group-{group} point "
                    "to match; raise m_cap"
                )
    return sample


def _train(
    method,
    source: LabeledDataset,
    cfg: TrainConfig,
    streams,
    features=None,
    target_sample=None,
    adapt_from=0,
    entropy=None,
    row_weights=None,
    cache: PretrainCache | None = None,
) -> TrainedModel:
    """The one epoch loop: source risk, then target entropy and matching.

    Every epoch descends the source risk, weighted per row by
    ``row_weights`` if given, on ``features`` (the source features by
    default).  With a ``target_sample``, epochs from ``adapt_from`` on
    adapt too.  ``entropy`` picks the target-entropy term: ``"learned"``
    trains a weight network by ascent and damps each target point by
    ``exp(-F_w)``, ``"uniform"`` weights every point 1, ``None`` drops the
    term.  ``lambda2 > 0`` adds W2 between the target's group clouds.
    Each adapting step runs one target forward pass; the ascent reads its
    values as constants, so its backward pass never reaches the
    classifier graph.  The matching steps share one plan cache, so each
    coupling solve starts from the last optimal simplex basis.

    Each epoch logs the row-weighted mean risk, the step means of the
    other terms and the epoch's wall time.  With a ``cache`` (only for
    runs whose first ``pretrain_epochs`` epochs use the source features,
    no row weights and no target), the run resumes from a matching stored
    state or stores its own at the end of those epochs.
    """
    present = np.unique(source.labels)
    if len(present) < 2:
        raise ValueError(
            f"the source holds only label {present[0]}; training needs both labels 0 and 1"
        )
    features = source.features if features is None else features
    labels = source.labels.astype(np.float64)
    model = PredictorModel(cfg.net_config(source.d), streams["predictor"])
    total_steps = _total_steps(cfg, source.n)
    opt = AdamOptimizer(
        model.parameters, total_steps, base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay
    )
    weight_net = None
    if entropy == "learned":
        weight_net = WeightNetwork(
            cfg.rep_dim, streams["weight_net"], hidden_dim=cfg.weight_hidden_dim
        )
        w_opt = AdamOptimizer(
            weight_net.parameters,
            total_steps,
            base_lr=cfg.learning_rate * cfg.weight_lr_multiplier,
            weight_decay=cfg.weight_decay,
        )
    use_entropy = entropy is not None and cfg.lambda1 > 0
    if target_sample is not None:
        target_x = target_sample.features
        idx0 = np.flatnonzero(target_sample.groups == 0)
        idx1 = np.flatnonzero(target_sample.groups == 1)
    plans = PlanCache()
    history, digests = [], []
    step = start = 0
    if cache is not None:
        resumed = cache.resume(source, cfg, model, opt, streams)
        if resumed is not None:
            step, history, digests = resumed
            start = cfg.pretrain_epochs

    for epoch, batch_size in enumerate(_epoch_batch_sizes(cfg)[start:], start):
        started = time.perf_counter()
        adapting = target_sample is not None and epoch >= adapt_from
        entropy_on = adapting and use_entropy
        matching = adapting and cfg.lambda2 > 0
        # row-weighted erm, then step sums of: entropy, w2, c1 penalty,
        # c2 penalty, mean F_w on the target, mean 1 / F_w on the source batch
        sums = np.zeros(7)
        fw_lo, fw_hi = np.inf, -np.inf
        plans.solves = plans.reuses = 0
        theta_norms, w_norms = [], []
        for batch_idx in _batches(streams["batches"].permutation(source.n), batch_size):
            if entropy_on or matching:
                rep_t, probs_t = model.forward(target_x)
            if entropy_on:
                entropies = conditional_entropy(probs_t)
            # -- weight-network ascent (classifier frozen, inference mode) --
            if entropy_on and weight_net is not None:
                rep_s = model.representations(features[batch_idx])
                zero_grads(weight_net.parameters)
                fw_t = weight_net.forward(rep_t.value)
                fw_s = weight_net.forward(rep_s)
                we = weighted_entropy_term(fw_t, entropies.value)
                penalty = constraint_penalty(fw_t, fw_s, cfg.c1, cfg.c2)
                ad.weighted_sum([(1.0, penalty), (-cfg.lambda1, we)]).backward()
                w_norms.append(w_opt.step(step))
                # the penalty's inputs, as it saw them before the step
                t_mean = fw_t.value.mean()
                recip_mean = (1.0 / fw_s.value).mean()
                d1 = float(t_mean - 1.0)
                d2 = float(recip_mean - 1.0)
                sums[3:] += (cfg.c1 * d1 * d1, cfg.c2 * d2 * d2, t_mean, recip_mean)
                fw_lo = min(fw_lo, fw_t.value.min(), fw_s.value.min())
                fw_hi = max(fw_hi, fw_t.value.max(), fw_s.value.max())

            # -- classifier descent ------------------------------------
            zero_grads(model.parameters)
            _, probs = model.forward(features[batch_idx], dropout_rng=streams["dropout"])
            weights = None if row_weights is None else row_weights[batch_idx]
            risk = cross_entropy_risk(probs, labels[batch_idx], weights)
            sums[0] += float(risk) * len(batch_idx)
            terms = [(1.0, risk)]
            if entropy_on:
                fw_now = 0.0 if weight_net is None else weight_net.ratios(rep_t.value)
                ent_term = weighted_entropy_term(fw_now, entropies)
                sums[1] += float(ent_term)
                terms.append((cfg.lambda1, ent_term))
            if matching:
                w2 = wasserstein2(ad.take_rows(rep_t, idx0), ad.take_rows(rep_t, idx1), plans)
                sums[2] += float(w2)
                terms.append((cfg.lambda2, w2))
            ad.weighted_sum(terms).backward()
            theta_norms.append(opt.step(step))
            step += 1

        erm = sums[0] / source.n
        avg = sums / len(theta_norms)
        if not w_norms:  # no ascent step saw a weight net
            fw_lo = fw_hi = 0.0
        theta_max, theta_hits = _clip_stats(theta_norms)
        w_max, w_hits = _clip_stats(w_norms)
        breakdown = LossBreakdown(
            erm=erm,
            weighted_entropy=avg[1],
            wasserstein=avg[2],
            c1_penalty=avg[3],
            c2_penalty=avg[4],
            total=erm + cfg.lambda1 * avg[1] + cfg.lambda2 * avg[2],
            coupling_solves=plans.solves,
            coupling_reuses=plans.reuses,
            theta_grad_norm_max=theta_max,
            theta_clip_hits=theta_hits,
            w_grad_norm_max=w_max,
            w_clip_hits=w_hits,
            fw_target_mean=avg[5],
            fw_source_recip_mean=avg[6],
            fw_min=float(fw_lo),
            fw_max=float(fw_hi),
            epoch_s=time.perf_counter() - started,
        )
        _check_finite(breakdown.total, epoch, "loss")
        history.append(breakdown)
        digests.append(parameter_digest(model.parameters))
        if cache is not None and epoch + 1 == cfg.pretrain_epochs:
            cache.store(source, cfg, model, opt, streams, step, history, digests)
    return TrainedModel(
        method=method,
        predictor=model,
        config=cfg,
        history=history,
        param_digests=digests,
        weight_net=weight_net,
        resumed_epochs=start,
    )


def train_erm(source: LabeledDataset, cfg: TrainConfig, cache=None) -> TrainedModel:
    """Cross-entropy minimization only; the reference trajectory."""
    return _train("erm", source, cfg, _streams(cfg.seed), cache=cache)


def train_ours(
    source: LabeledDataset, target: UnlabeledDataset, cfg: TrainConfig, cache=None
) -> TrainedModel:
    """Two-stage min-max training of the composite objective.

    Stage 1 minimizes the source risk alone.  Stage 2 alternates per
    batch: the weight network ascends the entropy term minus the
    squared-error constraint penalties, then the predictor descends the
    source risk plus the (gradient-stopped) weighted entropy plus the
    group-level Wasserstein matching term.
    """
    streams = _streams(cfg.seed)
    target_sub = _subsample_target(target, cfg, streams["subsample"])
    return _train(
        "ours",
        source,
        cfg,
        streams,
        target_sample=target_sub,
        adapt_from=cfg.pretrain_epochs,
        entropy="learned",
        cache=cache,
    )


def train_unweighted_entropy(
    source: LabeledDataset, target: UnlabeledDataset, cfg: TrainConfig, cache=None
) -> TrainedModel:
    """Ablation of :func:`train_ours`: every target point gets weight 1.

    No weight network and no constraints; otherwise the two-stage
    schedule is identical.
    """
    streams = _streams(cfg.seed)
    target_sub = _subsample_target(target, cfg, streams["subsample"])
    return _train(
        "unweighted_entropy",
        source,
        cfg,
        streams,
        target_sample=target_sub,
        adapt_from=cfg.pretrain_epochs,
        entropy="uniform",
        cache=cache,
    )


def _fit_ratio_net(source, target_x, cfg, init_seed, batch_seed):
    """Fit s(x) on raw features by the configured density-ratio loss."""
    loss_fn = kliep_loss if cfg.method == "kliep_iw" else lsif_loss
    net = WeightNetwork(source.d, init_seed, hidden_dim=cfg.weight_hidden_dim)
    rng = np.random.default_rng(batch_seed)
    steps_per_epoch = -(-source.n // cfg.batch_size)
    total = cfg.total_epochs * steps_per_epoch
    opt = AdamOptimizer(
        net.parameters, total, base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay
    )
    step = 0
    for _ in range(cfg.total_epochs):
        perm = rng.permutation(source.n)
        for batch_idx in _batches(perm, cfg.batch_size):
            zero_grads(net.parameters)
            s_test = net.forward(target_x)
            s_train = net.forward(source.features[batch_idx])
            loss = loss_fn(s_test, s_train)
            loss.backward()
            opt.step(step)
            step += 1
    return net


def train_importance_weighted(
    source: LabeledDataset,
    target: UnlabeledDataset,
    cfg: TrainConfig,
    ratio_override=None,
) -> TrainedModel:
    """Density-ratio baseline: fit s(x), then minimize s-weighted risk.

    Phase 1 fits the ratio network by the KLIEP or LSIF loss over the
    available target points and source batches.  Phase 2 trains the
    classifier on the s-weighted cross entropy plus the Wasserstein
    matching term, from the first epoch on.  ``ratio_override``
    (length-n array) skips phase 1, which is how exact-ratio studies and
    the unit-weight degenerate case are run.
    """
    if cfg.method not in ("kliep_iw", "lsif_iw"):
        raise ValueError(f"method must be kliep_iw or lsif_iw, got {cfg.method!r}")
    streams = _streams(cfg.seed)
    target_sub = _subsample_target(target, cfg, streams["subsample"])

    ratio_net = None
    if ratio_override is not None:
        weights = np.asarray(ratio_override, dtype=np.float64)
        if weights.shape != (source.n,):
            raise ValueError("ratio_override must have one weight per source row")
    else:
        ratio_net = _fit_ratio_net(
            source, target_sub.features, cfg, streams["weight_net"], streams["ratio"]
        )
        weights = ratio_net.ratios(source.features)
        # the squared-penalty fit overshoots the constrained optimum by a
        # constant factor; rescale so the source mean is exactly one
        weights = weights / weights.mean()
    weights = np.maximum(weights, RATIO_FLOOR)

    model = _train(cfg.method, source, cfg, streams, target_sample=target_sub, row_weights=weights)
    return replace(model, weight_net=ratio_net)


def train_zsa(
    source: LabeledDataset, target: UnlabeledDataset, cfg: TrainConfig
) -> TrainedModel:
    """Z-score adaptation: retrain nothing, re-estimate input statistics.

    The classifier trains on source features standardized by source
    statistics; at adaptation time the standardization layer switches to
    statistics recomputed from the available unlabeled target points.
    """
    streams = _streams(cfg.seed)
    target_sub = _subsample_target(target, cfg, streams["subsample"], matching=False)
    adapted = fit_zscore(target_sub, source.feature_kinds)
    train_stats = fit_zscore(source)
    standardized = (source.features - train_stats.means) / train_stats.stds
    model = _train("zsa", source, cfg, streams, features=standardized)
    return replace(model, input_stats=adapted)


_TRAINERS = {
    "ours": train_ours,
    "unweighted_entropy": train_unweighted_entropy,
    "kliep_iw": train_importance_weighted,
    "lsif_iw": train_importance_weighted,
    "zsa": train_zsa,
}


def train(
    source: LabeledDataset, target, cfg: TrainConfig, cache: PretrainCache | None = None
) -> TrainedModel:
    """Dispatch to the trainer selected by ``cfg.method``.

    ``cache`` reaches the ``SHARES_PRETRAINING`` trainers only.
    """
    if cfg.method == "erm":
        return train_erm(source, cfg, cache)
    if target is None:
        raise ValueError(f"method {cfg.method!r} requires target data")
    if cfg.method in SHARES_PRETRAINING:
        return _TRAINERS[cfg.method](source, target, cfg, cache)
    return _TRAINERS[cfg.method](source, target, cfg)
