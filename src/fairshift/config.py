"""Key-value config files for train, shift, and experiment settings.

Format: one ``key = value`` per line, ``#`` comments, blank lines
ignored.  Values are parsed as int, float, bool, or string; commas make a
list.  Unknown keys are rejected so typos fail loudly, and a missing
required key is named.
"""

from __future__ import annotations

from .data import build_from_dict
from .experiment import ExperimentSpec, VarianceStudySpec
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
    return build_from_dict(TrainConfig, _merge(values, overrides))


def shift_config_from_dict(values: dict, **overrides) -> ShiftConfig:
    return build_from_dict(ShiftConfig, _merge(values, overrides))


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
    spec_values["train"] = build_from_dict(TrainConfig, train_values)
    spec_values["shift"] = build_from_dict(ShiftConfig, shift_values)
    return build_from_dict(ExperimentSpec, spec_values)


def variance_study_spec_from_dict(values: dict, **overrides) -> VarianceStudySpec:
    """Build a VarianceStudySpec; scalar ``gammas`` and ``ms`` become tuples.

    Config files may set ``gammas``, ``ms`` and ``n`` only; the overrides
    (command-line values) may set any of its fields.
    """
    rejected = set(values) - {"gammas", "ms", "n"}
    if rejected:
        raise ValueError(f"unknown variance-study keys: {sorted(rejected)}")
    return build_from_dict(VarianceStudySpec, _promote_grid(_merge(values, overrides)))
