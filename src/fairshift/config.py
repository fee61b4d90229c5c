"""Key-value config files for train, shift, and experiment settings.

Format: one ``key = value`` per line, ``#`` comments, blank lines
ignored.  Values are parsed as int, float, bool, or string; commas make a
list.  :func:`config_from_dict` builds any config class from the parsed
keys.  Unknown keys are rejected so typos fail loudly, and a missing
required key is named.
"""

from __future__ import annotations

import dataclasses
import typing

from .data import build_from_dict
from .experiment import ExperimentSpec


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


def config_from_dict(cls, values: dict, **overrides):
    """Build config class ``cls`` from ``values`` updated by the overrides that
    are not None (command-line values).

    A ``<field>.<key>`` entry sets ``key`` of a field annotated with a config
    class (``train.pretrain_epochs`` of an ``ExperimentSpec``), and a scalar
    given for a ``tuple[...]`` field becomes its one entry.  An unknown or
    missing key raises one ``ValueError`` naming it.
    """
    hints = typing.get_type_hints(cls)
    own, nested = {}, {}
    for key, value in {**values, **{k: v for k, v in overrides.items() if v is not None}}.items():
        head, dot, rest = key.partition(".")
        if dot and dataclasses.is_dataclass(hints.get(head)):
            nested.setdefault(head, {})[rest] = value
        else:
            own[key] = value
    for name, hint in hints.items():
        if name in nested:
            own[name] = config_from_dict(hint, nested[name])
        elif typing.get_origin(hint) is tuple and name in own and not isinstance(own[name], tuple):
            own[name] = (own[name],)
    return build_from_dict(cls, own)


def experiment_spec_from_dict(values: dict, **overrides) -> ExperimentSpec:
    return config_from_dict(ExperimentSpec, values, **overrides)
