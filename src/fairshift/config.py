"""Key-value config files for train, shift, and experiment settings.

Format: one ``key = value`` per line, ``#`` comments, blank lines
ignored.  Values are parsed as int, float, bool, or string; commas make a
list.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import fields

from .experiment import ExperimentSpec
from .splitter import ShiftConfig
from .training import TrainConfig


def _coerce(token: str):
    token = token.strip()
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_kv_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if "," in value:
            values[key] = tuple(_coerce(t) for t in value.split(",") if t.strip())
        else:
            values[key] = _coerce(value)
    return values


def parse_kv_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read())


def _check_keys(kind: str, values: dict, known):
    rejected = set(values) - set(known)
    if rejected:
        raise ValueError(f"unknown {kind} keys: {sorted(rejected)}")


def _build(cls, values: dict):
    _check_keys(cls.__name__, values, {f.name for f in fields(cls)})
    return cls(**values)


def _merge(values: dict, overrides: dict) -> dict:
    """File values updated by the overrides that are not None."""
    merged = dict(values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return merged


def _promote_grid(values: dict) -> dict:
    """Scalar grid entries become single-element tuples."""
    for key in ("methods", "gammas", "lambda1s", "lambda2s", "ms"):
        if key in values and not isinstance(values[key], tuple):
            values[key] = (values[key],)
    return values


def train_config_from_dict(values: dict, **overrides) -> TrainConfig:
    return _build(TrainConfig, _merge(values, overrides))


def shift_config_from_dict(values: dict, **overrides) -> ShiftConfig:
    return _build(ShiftConfig, _merge(values, overrides))


_TRAIN_PREFIX = "train."
_SHIFT_PREFIX = "shift."


def experiment_spec_from_dict(values: dict, **overrides) -> ExperimentSpec:
    """Build an ExperimentSpec; ``train.<key>`` and ``shift.<key>`` nest.

    Scalar grid entries are promoted to single-element tuples.
    """
    train_values, shift_values, spec_values = {}, {}, {}
    for key, value in _merge(values, overrides).items():
        if key.startswith(_TRAIN_PREFIX):
            train_values[key[len(_TRAIN_PREFIX) :]] = value
        elif key.startswith(_SHIFT_PREFIX):
            shift_values[key[len(_SHIFT_PREFIX) :]] = value
        else:
            spec_values[key] = value
    spec_values = _promote_grid(spec_values)
    spec_values["train"] = _build(TrainConfig, train_values)
    spec_values["shift"] = _build(ShiftConfig, shift_values)
    return _build(ExperimentSpec, spec_values)


def variance_study_kwargs_from_dict(values: dict, **overrides) -> dict:
    """Keyword arguments for ``run_variance_study``.

    Config files may set ``gammas``, ``ms`` and ``n`` only; the overrides
    (command-line values) may set any of its parameters.
    """
    _check_keys("variance-study", values, ("gammas", "ms", "n"))
    return _promote_grid(_merge(values, overrides))
