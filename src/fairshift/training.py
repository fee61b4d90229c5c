"""Training: the weighted-entropy min-max method and its baselines.

:func:`train` is the one way to train; ``cfg.method`` picks the method.
Every run is a pure function of ``(data, config.seed)``.  Randomness is
split into independent streams (model init, weight-net init, batch
shuffling, dropout, target subsampling, ratio fitting), so methods that
share a seed consume identical randomness on the classifier path.  In
particular ``ours`` with both regularizers at zero reproduces the ``erm``
parameter trajectory bit for bit.

Every method is the paper's one objective with some terms switched off,
one row of switches in :data:`METHOD_TABLE`, and runs the one epoch loop
of :func:`_train`: source risk, plus the ``exp(-F_w)``-damped target
entropy, plus exact W2 between the target representation's two group
clouds.  A run lasts ``pretrain_epochs + adapt_epochs`` epochs over the
source data, using ``batch_size`` during the first stage and the larger
``adapt_train_batch_size`` during the second (the larger batches keep the
Monte-Carlo estimate of the reciprocal-mean constraint low-variance).
Epochs that do not adapt run no target pass, no ascent and no matching.
Each step sums its switched-on terms in one
:func:`fairshift.autodiff.weighted_sum` node, so every backward pass runs
over fused nodes only.  A source that holds one label only, or a target
whose feature count differs from the source's, raises ``ValueError``
before any work; a step that overflows stops the run with one
``RuntimeError`` naming the epoch.  :func:`train` builds the immutable
:class:`TrainedModel` in one call, and :func:`build_predictor` is the one
builder of its predictor from a ``TrainConfig``.  :func:`save_checkpoint`
and :func:`load_checkpoint` write it to versioned JSON and read it back.
The file stores each fact once: the ``TrainConfig`` and the feature count
give every layer shape, and the loader checks every stored array and
refuses any key the config does not call for.

:func:`_read_key` says what a run or its first epochs compute: the method's
row with each term off that a zero lambda or the schedule leaves off, and
every field of the config that the run reads.  Two runs whose keys at
``pretrain_epochs`` are equal, and whose source, row weights and (when
those epochs adapt) target sample are equal by value, train those epochs
alike, so a :class:`PretrainCache` passed to :func:`train` lets the runs
of a sweep train them once, bit for bit, whatever their methods.

Every process that trains is set up once, by its first :func:`train` call
or when a sweep's pool worker starts, so a run trains alike in-process or
pooled.  numpy's OpenBLAS runs on one thread: a step's matrices are small,
and a pool of one thread per core spins on them and, beside any other busy
process, oversubscribes the cores.  glibc's allocator is pinned: the mmap
threshold goes to glibc's own ceiling for its sliding threshold and the
trim threshold to twice that, glibc's own rule.  The sliding threshold
follows the largest mapped chunk freed so far, which lands on the sizes of
a step's dropout masks and temporaries (128-320 KiB at the 256-row
adaptation batch), so each step mapped fresh pages or grew and trimmed the
heap top.  Pinned, those arrays come from the heap and the step takes no
page faults; each epoch logs the process's minor faults.  Both settings
hold for the whole process, and glibc never turns its sliding threshold
back on.  Other C libraries are left as they are.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Annotated

import numpy as np

from . import autodiff as ad
from .config import check_field_types, config_from_dict
from .data import LabeledDataset, NormalizationStats, UnlabeledDataset, apply_zscore, fit_zscore
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
from .nets import GRAD_CLIP_NORM, AdamOptimizer, PredictorModel, WeightNetwork, parameter_digest

RATIO_FLOOR = 1e-3


@dataclass(frozen=True)
class Method:
    """One row of :data:`METHOD_TABLE`: the terms of the one objective a method switches on."""

    entropy: str | None  # the target-entropy term: "learned", "uniform" or None
    matches: bool  # exact W2 between the target sample's group clouds
    pretrains: bool  # adapts from epoch ``pretrain_epochs`` on, else from epoch 0
    ratio_loss: object  # the row-weight fit: kliep_loss, lsif_loss or None
    zscore: bool  # trains on z-scored features, predicts with the target's statistics

    @property
    def needs_target(self):
        return bool(self.entropy or self.matches or self.ratio_loss or self.zscore)


METHOD_TABLE = {  # entropy      matches pretrains ratio_loss  zscore
    "ours":               Method("learned", True,  True,  None,       False),
    "erm":                Method(None,      False, True,  None,       False),
    "kliep_iw":           Method(None,      True,  False, kliep_loss, False),
    "lsif_iw":            Method(None,      True,  False, lsif_loss,  False),
    "zsa":                Method(None,      False, True,  None,       True),
    "unweighted_entropy": Method("uniform", True,  True,  None,       False),
}
METHODS = tuple(METHOD_TABLE)

try:
    import resource
except ImportError:  # no resource module (Windows): epochs log no fault count
    resource = None

# glibc's mallopt parameters and its ceiling for the sliding mmap threshold,
# DEFAULT_MMAP_THRESHOLD_MAX = 4 MiB * sizeof(long)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
# OpenBLAS's thread-count setter under the names numpy's builds export
_BLAS_SET_THREADS = tuple(
    f"{lib}openblas_set_num_threads{abi}" for lib in ("scipy_", "") for abi in ("64_", "")
)
# the process _setup_process last set up; a forked pool worker sets itself up
_set_up_pid = None


def _setup_process():
    """Once per process, one BLAS thread and glibc's pinned thresholds (see the module docstring).

    A BLAS other than OpenBLAS keeps its threads; a ``0`` return from
    ``mallopt`` (refused) leaves that setting as it was.
    """
    global _set_up_pid
    if _set_up_pid == os.getpid():
        return
    _set_up_pid = os.getpid()
    blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in _BLAS_SET_THREADS:
        if hasattr(blas, name):
            set_threads = getattr(blas, name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            break
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _minor_faults():
    """The process's minor page faults so far, or None without ``resource``."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass(frozen=True)
class TrainConfig:
    pretrain_epochs: Annotated[int, "be >= 0"] = 15
    adapt_epochs: Annotated[int, "be >= 0"] = 35
    batch_size: Annotated[int, "be >= 1"] = 32
    adapt_train_batch_size: Annotated[int, "be >= 1"] = 256
    lambda1: Annotated[float, "be >= 0"] = 0.1
    lambda2: Annotated[float, "be >= 0"] = 1.0
    c1: Annotated[float, "be > 0"] = 1.0
    c2: Annotated[float, "be > 0"] = 1.0
    seed: Annotated[int, "be >= 0"] = 0
    weight_decay: Annotated[float, "be >= 0"] = 1e-5
    learning_rate: Annotated[float, "be > 0"] = 1e-3
    # the inner maximizer runs on a faster timescale than the classifier
    weight_lr_multiplier: Annotated[float, "be > 0"] = 10.0
    m_cap: Annotated[int, "be >= 1"] = 50
    method: str = "ours"
    hidden_dim: Annotated[int, "be >= 1"] = 64
    rep_dim: Annotated[int, "be >= 1"] = 64
    clf_hidden_dim: Annotated[int, "be >= 1"] = 32
    weight_hidden_dim: Annotated[int, "be >= 1"] = 32
    dropout_rate: Annotated[float, "lie in [0, 1)"] = 0.25

    def __post_init__(self):
        check_field_types(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.pretrain_epochs + self.adapt_epochs == 0:
            raise ValueError("pretrain_epochs + adapt_epochs must be >= 1, got 0 + 0")
        if self.learning_rate * self.weight_decay >= 1:  # Adam's decay factor is 1 - lr * wd
            raise ValueError(
                f"learning_rate * weight_decay must be < 1, got {self.learning_rate!r} * "
                f"{self.weight_decay!r}: each step would zero or flip every parameter"
            )

    @property
    def total_epochs(self):
        return self.pretrain_epochs + self.adapt_epochs


def build_predictor(cfg: TrainConfig, input_dim, seed=0) -> PredictorModel:
    """The predictor of ``cfg``'s widths and dropout over ``input_dim`` features."""
    return PredictorModel(
        input_dim, seed, cfg.hidden_dim, cfg.rep_dim, cfg.clf_hidden_dim, cfg.dropout_rate
    )


@dataclass(frozen=True)
class WeightSummary:
    """How evenly a run's final weights spread over its rows (see :func:`weight_summary`)."""

    n: int
    ess: float  # Kish effective sample size, (sum w)^2 / sum w^2
    ess_share: float  # ess / n
    smallest: float
    largest: float
    floored: int  # rows at RATIO_FLOOR
    rescale: float | None  # 1 / mean of a fitted ratio, which brought its mean to one


def weight_summary(weights, rescale=None) -> WeightSummary:
    """The Kish effective sample size of ``weights`` and their range.

    Equal weights give ``ess == n``; one nonzero weight gives ``ess == 1``.
    Weights must be finite, non-negative and not all 0, else one
    ``ValueError``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or not (w.size and np.isfinite(w).all() and (w >= 0).all() and w.any()):
        raise ValueError("weights must be a nonempty vector of finite numbers >= 0, not all 0")
    u = w / w.max()  # scale-free, so the square sum neither overflows nor rounds to 0
    with np.errstate(under="ignore"):  # a square too small to count adds nothing
        ess = float(u.sum() ** 2 / (u * u).sum())
    return WeightSummary(
        n=w.size,
        ess=ess,
        ess_share=ess / w.size,
        smallest=float(w.min()),
        largest=float(w.max()),
        floored=int(np.count_nonzero(w == RATIO_FLOOR)),
        rescale=rescale,
    )


@dataclass(frozen=True)
class TrainedModel:
    predictor: PredictorModel
    config: TrainConfig
    history: list = field(default_factory=list)
    param_digests: list = field(default_factory=list)
    weight_net: WeightNetwork | None = None
    input_stats: NormalizationStats | None = None
    # epochs taken from a PretrainCache instead of trained by this run
    resumed_epochs: int = 0
    # the final row weights of an IW run, or ours's target damping exp(-F_w); not checkpointed
    weight_summary: WeightSummary | None = None

    def predict_proba(self, features) -> np.ndarray:
        if self.input_stats is not None:
            features = self.input_stats.apply(features)
        return self.predictor.predict_proba(features)


# -- checkpoints ---------------------------------------------------------

CHECKPOINT_VERSION = 2
# every top-level key of a checkpoint, in the order save_checkpoint writes them
_CHECKPOINT_KEYS = (
    "format_version", "config", "input_dim", "predictor", "weight_net", "input_stats", "extra"
)
# the stored names of a net's parameters, in order; a weight network has the first four
_SLOTS = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")


def _params(net):
    return {name: p.value.tolist() for name, p in zip(_SLOTS, net.parameters)}


def save_checkpoint(path, model: TrainedModel, extra=None):
    """Write ``model`` as versioned JSON; floats round-trip exactly.

    The file stores each fact once: the whole ``TrainConfig`` and the
    feature count, from which every layer shape follows; the predictor's
    parameters; the weight network's if the model has one; zsa's
    ``input_stats``; and the caller's ``extra`` mapping (a digest of the
    training data, say) under a key of its own.  A model that the loader
    would refuse raises its ``ValueError`` before the file is opened.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "input_dim": model.predictor.input_dim,
        "predictor": _params(model.predictor),
    }
    if model.weight_net is not None:
        payload["weight_net"] = _params(model.weight_net)
    if model.input_stats is not None:
        stats = model.input_stats
        payload["input_stats"] = {"means": stats.means.tolist(), "stds": stats.stds.tolist()}
    payload["extra"] = dict(extra or {})
    _model_from_payload(payload)
    text = json.dumps(payload)  # an extra that JSON cannot hold raises here, before the file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _entry(payload, key, where):
    """``payload[key]``, or one ``ValueError`` naming ``where`` and the missing key."""
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"{where} has no {key!r}")
    return payload[key]


def _array(payload, key, shape, where):
    """``payload[key]`` as a float64 array of ``shape``, every value a finite
    number, or one ``ValueError`` naming ``where`` and ``key``.

    A text or a bool is no number, though numpy would convert either.
    """
    try:
        value = np.asarray(payload[key])
    except (KeyError, TypeError, ValueError):  # no such slot, or ragged
        value = None
    if (
        value is None
        or value.dtype.kind not in "iuf"
        or value.shape != shape
        or not np.isfinite(value).all()
    ):
        raise ValueError(f"{where} {key!r} must be a {shape} array of finite numbers")
    return value.astype(np.float64)


def _load_params(net, params, where):
    """``net`` with each parameter read from its slot of ``params`` in the shape it has."""
    for name, tensor in zip(_SLOTS, net.parameters):
        tensor.value = _array(params, name, tensor.value.shape, where)
    return net


def load_checkpoint(path):
    """Return ``(TrainedModel, extra)`` from a file :func:`save_checkpoint` wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        return _model_from_payload(json.load(fh))


def _model_from_payload(payload):
    """``(TrainedModel, extra)`` from a checkpoint's parsed JSON ``payload``.

    Every shape comes from the stored ``config`` and ``input_dim``: a
    weight network reads ``input_dim`` features for a row-weight fit and
    ``rep_dim`` for a learned entropy term.  A file of another version, an
    unknown top-level key, a missing key or slot, a config field of the
    wrong type or range, an array whose shape does not fit the config or
    that holds a non-finite value, a ``weight_net`` that the config trains
    none of, and ``input_stats`` that are missing on a z-scoring method's
    file or present on another's each raise one ``ValueError`` naming what
    is wrong.
    """
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {version}")
    unknown = sorted(set(payload) - set(_CHECKPOINT_KEYS))
    if unknown:
        raise ValueError(f"unknown checkpoint keys: {unknown}")
    config = _entry(payload, "config", "checkpoint")
    config = config_from_dict(TrainConfig, config, "checkpoint config")
    input_dim = _entry(payload, "input_dim", "checkpoint")
    if type(input_dim) is not int or input_dim < 1:
        raise ValueError(f"checkpoint input_dim must be an int >= 1, got {input_dim!r}")
    stored = _entry(payload, "predictor", "checkpoint")
    predictor = _load_params(build_predictor(config, input_dim), stored, "checkpoint predictor")
    row, method = _effective_row(config, config.total_epochs), config.method
    weight_net = stats = None
    if "weight_net" in payload:
        if row.entropy != "learned" and row.ratio_loss is None:
            raise ValueError(f"checkpoint has a weight_net, which its {method!r} run never trains")
        width = input_dim if row.ratio_loss else config.rep_dim
        net = WeightNetwork(width, 0, config.weight_hidden_dim)
        weight_net = _load_params(net, payload["weight_net"], "checkpoint weight_net")
    if row.zscore and "input_stats" not in payload:
        raise ValueError(f"checkpoint has no 'input_stats', which method {method!r} reads")
    if "input_stats" in payload and not row.zscore:
        raise ValueError(f"checkpoint has 'input_stats', which method {method!r} never reads")
    if row.zscore:
        where, stored = "checkpoint input_stats", payload["input_stats"]
        means, stds = (_array(stored, k, (input_dim,), where) for k in ("means", "stds"))
        try:
            stats = NormalizationStats(means, stds)
        except ValueError as exc:  # a std that is not positive
            raise ValueError(f"{where} {exc}") from None
    extra = _entry(payload, "extra", "checkpoint")
    if not isinstance(extra, dict):
        raise ValueError(f"checkpoint extra must be a mapping, got {extra!r}")
    return TrainedModel(predictor, config, weight_net=weight_net, input_stats=stats), extra


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


def _effective_row(cfg, epochs):
    """The method's row with each term off that a zero lambda or the
    schedule has not switched on by epoch ``epochs``."""
    row = METHOD_TABLE[cfg.method]
    adapting = epochs > (cfg.pretrain_epochs if row.pretrains else 0)
    entropy = row.entropy if adapting and cfg.lambda1 > 0 else None
    return replace(row, entropy=entropy, matches=row.matches and adapting and cfg.lambda2 > 0)


def _read_key(cfg, epochs=None):
    """What a run of ``cfg``, or its first ``epochs`` epochs, computes: ``(row, fields)``.

    ``row`` is their :func:`_effective_row`; ``fields`` holds the name and
    value of every ``TrainConfig`` field it reads, in field order (the
    row-weight fit's too, since every epoch reads its weights).  A whole
    run (``epochs`` None) also reads ``m_cap`` if its method draws a target
    sample: the run checks it, and ``zsa`` standardizes by its statistics.
    """
    whole = epochs is None
    row = _effective_row(cfg, cfg.total_epochs if whole else epochs)
    learned = row.entropy == "learned"
    draws = whole and METHOD_TABLE[cfg.method].needs_target
    unread = {
        "method": True,
        "lambda1": row.entropy is None,
        "lambda2": not row.matches,
        **dict.fromkeys(("c1", "c2", "weight_lr_multiplier"), not learned),
        "weight_hidden_dim": not learned and row.ratio_loss is None,
        "m_cap": not (row.entropy or row.matches or row.ratio_loss or draws),
    }
    return row, tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg) if not unread.get(f.name))


@dataclass
class _Progress:
    """What one run carries from epoch to epoch; its epochs so far are ``len(history)``."""

    model: PredictorModel
    opt: AdamOptimizer
    batches: np.random.Generator
    dropout: np.random.Generator
    # built at the first epoch whose entropy term learns
    weight_net: WeightNetwork | None = None
    w_opt: AdamOptimizer | None = None
    plans: PlanCache = field(default_factory=PlanCache)
    step: int = 0
    history: list = field(default_factory=list)
    digests: list = field(default_factory=list)


@dataclass
class PretrainCache:
    """The first ``pretrain_epochs`` epochs of the last run that trained them, to resume from.

    ``state`` is the storing run's :meth:`cut` and its progress at the end
    of those epochs, deep copies both.  A run of any method resumes from a
    fresh deep copy of that progress when its cut has an equal key and
    arrays equal by value; otherwise it trains those epochs itself and
    stores its own.
    """

    state: tuple | None = None

    @staticmethod
    def cut(source, cfg, target_sample, row_weights):
        """:func:`_read_key` of a run's first ``pretrain_epochs`` epochs and the
        arrays they read: source features and labels, row weights, and the
        target sample's features and groups (None unless they adapt)."""
        key = _read_key(cfg, cfg.pretrain_epochs)
        adapts = key[0].entropy or key[0].matches
        target = (target_sample.features, target_sample.groups) if adapts else (None, None)
        return key, (source.features, source.labels, row_weights, *target)

    def store(self, cut, progress):
        self.state = copy.deepcopy((*cut, progress))

    def resume(self, cut):
        """A copy of the stored progress if ``cut`` matches the stored one, else None."""
        if self.state is None:
            return None
        key, arrays, progress = self.state
        # np.array_equal holds for None against None and fails for None against an array
        if key != cut[0] or not all(map(np.array_equal, arrays, cut[1])):
            return None
        return copy.deepcopy(progress)


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


@contextlib.contextmanager
def _finite_steps(epoch, what):
    """Run an epoch's steps with numpy's overflow and invalid values raised;
    those and Adam's non-finite gradient norm become one ``RuntimeError``
    naming ``what`` and the epoch, and numpy prints no warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise RuntimeError(f"{what} diverged at epoch {epoch}: {exc}") from None


def _subsample_target(target: UnlabeledDataset, cfg, rng, matching=True) -> UnlabeledDataset:
    """The run's ``m_cap`` target points, drawn once.

    With ``matching`` the group clouds are matched, so the target and the
    subsample must both hold points of each group.
    """
    if matching and not (target.has_group(0) and target.has_group(1)):
        raise ValueError("target must contain both groups for representation matching")
    if cfg.m_cap < 2:
        raise ValueError(f"m_cap={cfg.m_cap} is too small: the target subsample needs 2 points")
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
    source: LabeledDataset,
    cfg: TrainConfig,
    streams,
    target_sample=None,
    row_weights=None,
    cache: PretrainCache | None = None,
) -> tuple[_Progress, int]:
    """The one epoch loop: source risk, then target entropy and matching.

    Every epoch descends the source risk, weighted per row by
    ``row_weights`` if given.  Each epoch runs the terms that
    :func:`_effective_row` through it switches on, on the ``target_sample``.
    Its ``entropy``: ``"learned"`` trains a weight network by ascent and
    damps each target point by ``exp(-F_w)``, ``"uniform"`` weights every
    point 1; a run whose entropy term never runs builds no weight network.
    ``matches`` adds W2 between the target's group clouds.  Each adapting
    step runs one target pass, without the classifier head unless the
    entropy term is on; the ascent reads its values as constants, so its
    backward pass never reaches the classifier graph.  The matching steps
    share one plan cache, so each coupling solve starts from the last
    optimal simplex basis.

    Each epoch logs the row-weighted mean risk, the step means of the
    other terms and the epoch's wall time.  Everything the loop carries
    from epoch to epoch is one :class:`_Progress`.  With a ``cache``, the
    run resumes from a copy of a stored progress whose cut matches its own,
    and so builds no predictor and no optimizer, or stores a copy of its
    own at the end of those epochs.  Returns the progress and the count of
    epochs it resumed instead of training.
    """
    labels = source.labels.astype(np.float64)
    total_steps = _total_steps(cfg, source.n)
    cut = None if cache is None else cache.cut(source, cfg, target_sample, row_weights)
    run = None if cache is None else cache.resume(cut)
    if run is None:
        model = build_predictor(cfg, source.d, streams["predictor"])
        opt = AdamOptimizer(
            model.parameters, total_steps, base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay
        )
        run = _Progress(model, opt, streams["batches"], streams["dropout"])
    model, opt, plans = run.model, run.opt, run.plans
    if target_sample is not None:
        target_x = target_sample.features
        idx0 = np.flatnonzero(target_sample.groups == 0)
        idx1 = np.flatnonzero(target_sample.groups == 1)
    start = len(run.history)
    for epoch, batch_size in enumerate(_epoch_batch_sizes(cfg)[start:], start):
        started = time.perf_counter()
        faults_at_start = _minor_faults()
        row = _effective_row(cfg, epoch + 1)  # a term on by this epoch is on in it
        entropy_on, matching = row.entropy is not None, row.matches
        if row.entropy == "learned" and run.weight_net is None:
            w_lr, w_seed = cfg.learning_rate * cfg.weight_lr_multiplier, streams["weight_net"]
            run.weight_net = WeightNetwork(cfg.rep_dim, w_seed, cfg.weight_hidden_dim)
            run.w_opt = AdamOptimizer(
                run.weight_net.parameters, total_steps, base_lr=w_lr, weight_decay=cfg.weight_decay
            )
        weight_net, w_opt = run.weight_net, run.w_opt
        # row-weighted erm, then step sums of: entropy, w2, c1 penalty,
        # c2 penalty, mean F_w on the target, mean 1 / F_w on the source batch
        sums = np.zeros(7)
        fw_lo, fw_hi = np.inf, -np.inf
        plans.solves = plans.reuses = 0
        theta_norms, w_norms = [], []
        with _finite_steps(epoch, "training"):
            for batch_idx in _batches(run.batches.permutation(source.n), batch_size):
                if entropy_on:
                    rep_t, probs_t = model.forward(target_x)
                    entropies = conditional_entropy(probs_t)
                elif matching:  # the head's target probabilities would go unread
                    rep_t = model.encode(target_x)
                # -- weight-network ascent (classifier frozen, inference mode) --
                if entropy_on and weight_net is not None:
                    rep_s = model.representations(source.features[batch_idx])
                    fw_t = weight_net.forward(rep_t.value)
                    fw_s = weight_net.forward(rep_s)
                    we = weighted_entropy_term(fw_t, entropies.value)
                    penalty = constraint_penalty(fw_t, fw_s, cfg.c1, cfg.c2)
                    ad.weighted_sum([(1.0, penalty), (-cfg.lambda1, we)]).backward()
                    w_norms.append(w_opt.step(run.step))
                    # the penalty's inputs, as it saw them before the step
                    t_mean = fw_t.value.mean()
                    recip_mean = (1.0 / fw_s.value).mean()
                    d1 = float(t_mean - 1.0)
                    d2 = float(recip_mean - 1.0)
                    sums[3:] += (cfg.c1 * d1 * d1, cfg.c2 * d2 * d2, t_mean, recip_mean)
                    fw_lo = min(fw_lo, fw_t.value.min(), fw_s.value.min())
                    fw_hi = max(fw_hi, fw_t.value.max(), fw_s.value.max())

                # -- classifier descent ------------------------------------
                _, probs = model.forward(source.features[batch_idx], dropout_rng=run.dropout)
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
                theta_norms.append(opt.step(run.step))
                run.step += 1

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
            minor_faults=None if faults_at_start is None else _minor_faults() - faults_at_start,
        )
        _check_finite(breakdown.total, epoch, "loss")
        run.history.append(breakdown)
        run.digests.append(parameter_digest(model.parameters))
        if cache is not None and epoch + 1 == cfg.pretrain_epochs:
            cache.store(cut, run)
    return run, start


def _fit_ratio_net(source, target_x, cfg, loss_fn, streams):
    """Fit s(x) on raw features by the density-ratio loss ``loss_fn``."""
    net = WeightNetwork(source.d, streams["weight_net"], hidden_dim=cfg.weight_hidden_dim)
    rng = np.random.default_rng(streams["ratio"])
    steps_per_epoch = -(-source.n // cfg.batch_size)
    total = cfg.total_epochs * steps_per_epoch
    opt = AdamOptimizer(
        net.parameters, total, base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay
    )
    step = 0
    for epoch in range(cfg.total_epochs):
        perm = rng.permutation(source.n)
        with _finite_steps(epoch, "the ratio fit"):
            for batch_idx in _batches(perm, cfg.batch_size):
                s_test = net.forward(target_x)
                s_train = net.forward(source.features[batch_idx])
                loss = loss_fn(s_test, s_train)
                loss.backward()
                opt.step(step)
                step += 1
    return net


def train(
    source: LabeledDataset,
    target: UnlabeledDataset | None,
    cfg: TrainConfig,
    cache: PretrainCache | None = None,
    ratio_override=None,
) -> TrainedModel:
    """Train ``cfg.method`` on the labeled ``source`` and the unlabeled ``target``.

    The method's row of :data:`METHOD_TABLE` switches the terms of the one
    objective on (see :func:`_train`) and says what the run needs.  A
    method that needs a target draws its ``m_cap`` target points once; a
    matching one needs points of both groups in them.  A row-weight fit
    learns a density ratio s(x) on raw features from the target points and
    source batches; ``ratio_override`` (one weight per source row) replaces
    it, which is how exact-ratio studies and the unit-weight degenerate
    case run.  A z-scoring method trains on source features standardized
    by source statistics and returns a model that standardizes by
    statistics recomputed from the target points.  With a ``cache``
    (see :class:`PretrainCache`) the run resumes its first
    ``pretrain_epochs`` epochs from another run that computed them alike,
    of any method.  The model's ``weight_summary`` covers its floored row
    weights or, for a learned entropy term that ran, the damping
    ``exp(-F_w)`` of its target points under the final nets (one more encoder and weight-net
    pass, drawing from no stream); other runs get None.  The first call in
    a process sets the process up (see the module docstring).
    """
    _setup_process()
    method = METHOD_TABLE[cfg.method]
    present = np.unique(source.labels)
    if len(present) < 2:
        raise ValueError(
            f"the source holds only label {present[0]}; training needs both labels 0 and 1"
        )
    if target is not None and target.features.shape[1] != source.d:
        raise ValueError(
            f"the target has {target.features.shape[1]} feature columns and the source "
            f"{source.d}; both must hold the same features"
        )
    if ratio_override is not None and method.ratio_loss is None:
        fitting = " or ".join(name for name, row in METHOD_TABLE.items() if row.ratio_loss)
        raise ValueError(f"ratio_override needs method {fitting}, got {cfg.method!r}")
    if method.needs_target and target is None:
        raise ValueError(f"method {cfg.method!r} requires target data")
    streams = _streams(cfg.seed)
    target_sub = stats = weights = ratio_net = rescale = summary = None
    if method.needs_target:
        target_sub = _subsample_target(target, cfg, streams["subsample"], method.matches)
    if method.zscore:
        stats = fit_zscore(target_sub, source.feature_kinds)
        source = apply_zscore(source, fit_zscore(source))
    if ratio_override is not None:
        weights = np.asarray(ratio_override, dtype=np.float64)
        if weights.shape != (source.n,):
            raise ValueError("ratio_override must have one weight per source row")
    elif method.ratio_loss is not None:
        ratio_net = _fit_ratio_net(source, target_sub.features, cfg, method.ratio_loss, streams)
        weights = ratio_net.ratios(source.features)
        # the squared-penalty fit overshoots the constrained optimum by a
        # constant factor; rescale so the source mean is exactly one
        mean = weights.mean()
        weights, rescale = weights / mean, 1.0 / mean
    if weights is not None:
        weights = np.maximum(weights, RATIO_FLOOR)
    run, resumed = _train(source, cfg, streams, target_sub, weights, cache)
    if weights is not None:
        summary = weight_summary(weights, rescale)
    elif run.weight_net is not None:  # each target point's damping exp(-F_w) under the final nets
        fw = run.weight_net.ratios(run.model.representations(target_sub.features))
        summary = weight_summary(np.exp(-fw))
    net = ratio_net or run.weight_net
    return TrainedModel(run.model, cfg, run.history, run.digests, net, stats, resumed, summary)
