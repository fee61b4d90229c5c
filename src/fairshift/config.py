"""Config rules, key-value files, and the one builder of every config class.

:func:`check_field_types` checks a config's fields against their
annotations and the range rules of ``_RULES``.  :func:`config_from_dict`
builds any config class from files, flags, sweep grids and checkpoints;
an unknown key is rejected so typos fail loudly, and a missing required
key is named.  Files hold one ``key = value`` per line, ``#`` comments and
blank lines ignored; values parse as int, float, bool or string, and
commas make a list.  Loading this module imports no other ``fairshift``
module, so every module can import it.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import MISSING, fields, is_dataclass

_NUMBERS = {int: numbers.Integral, float: numbers.Real}
# each range rule a field may carry as ``Annotated[<type>, "<rule>"]``, and its test
_RULES = {
    "be >= 0": lambda v: v >= 0,
    "be >= 1": lambda v: v >= 1,
    "be >= 10": lambda v: v >= 10,
    "be > 0": lambda v: v > 0,
    "be 0 or 1": lambda v: v in (0, 1),
    "lie in [0, 1)": lambda v: 0 <= v < 1,
    "lie in (0, 1)": lambda v: 0 < v < 1,
    "lie in (0, 100)": lambda v: 0 < v < 100,
    "lie in [0, 1]": lambda v: 0 <= v <= 1,
    "lie in [0, 100]": lambda v: 0 <= v <= 100,
}


@functools.cache
def _field_hints(cls):
    """``cls``'s evaluated annotations, rules kept; evaluated once per class."""
    return typing.get_type_hints(cls, include_extras=True)


def check_field_types(obj):
    """Raise one ``ValueError`` naming the first field of dataclass ``obj`` that
    does not fit its annotation.

    An int fits ``float``, a bool fits no field (none holds a bool), a
    ``tuple[X, ...]`` field needs at least one entry and each must fit ``X``,
    and a number must be finite.  A field annotated ``Annotated[X, rule]``
    must also pass ``rule``, one key of ``_RULES`` (a ``None`` passes); a
    ``tuple[Annotated[X, rule], ...]`` field checks each entry.
    """
    for name, hint in _field_hints(type(obj)).items():
        values = [getattr(obj, name)]
        if typing.get_origin(hint) is tuple:
            if not isinstance(values[0], tuple):
                raise ValueError(f"{name} must be a tuple, got {values[0]!r}")
            if not values[0]:
                raise ValueError(f"{name} must be non-empty")
            name, hint, values = f"{name} entries", typing.get_args(hint)[0], values[0]
        rule = None
        if typing.get_origin(hint) is typing.Annotated:
            hint, rule = typing.get_args(hint)
        kinds = tuple(_NUMBERS.get(arm, arm) for arm in typing.get_args(hint) or (hint,))
        for value in values:
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if rule and value is not None and not _RULES[rule](value):
                raise ValueError(f"{name} must {rule}, got {value!r}")


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


def config_from_dict(cls, values, kind=None, **overrides):
    """Build config class ``cls`` from the mapping ``values`` updated by the
    overrides that are not None (command-line values).

    A ``<field>.<key>`` entry sets ``key`` of a field annotated with a config
    class (``train.pretrain_epochs`` of an ``ExperimentSpec``), and a scalar
    given for a ``tuple[...]`` field becomes its one entry.  Values that are
    no mapping, or an unknown or missing key, raise one ``ValueError`` that
    names ``kind`` (the class name by default) and the keys.
    """
    kind = kind or cls.__name__
    if not isinstance(values, dict):
        raise ValueError(f"{kind} must be a mapping, got {values!r}")
    hints = _field_hints(cls)
    own, nested = {}, {}
    for key, value in {**values, **{k: v for k, v in overrides.items() if v is not None}}.items():
        head, dot, rest = key.partition(".")
        if dot and is_dataclass(hints.get(head)):
            nested.setdefault(head, {})[rest] = value
        else:
            own[key] = value
    for name, hint in hints.items():
        if name in nested:
            own[name] = config_from_dict(hint, nested[name])
        elif typing.get_origin(hint) is tuple and name in own and not isinstance(own[name], tuple):
            own[name] = (own[name],)
    rejected = set(own) - set(hints)
    if rejected:
        raise ValueError(f"unknown {kind} keys: {sorted(rejected)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in own and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"missing {kind} keys: {missing}")
    return cls(**own)


def experiment_spec_from_dict(values: dict, **overrides):
    # imported here: experiment imports training, which imports this module
    from .experiment import ExperimentSpec

    return config_from_dict(ExperimentSpec, values, **overrides)
