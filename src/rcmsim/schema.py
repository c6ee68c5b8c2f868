"""Input schema: dataclasses that load, validate and dump themselves.

A schema class is a dataclass deriving from ``Schema``: its type hints say
which JSON values a field takes, its defaults are the defaults, and each
field's range rule sits next to it (``setting(default, rule)``). Rules that
involve more than one field go in the class's ``check`` method. ``read_json``
reads every JSON file the package loads; it and the boundary validation of
library inputs raise a ``ConfigError`` naming the file or the field's path.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import typing
from dataclasses import MISSING, Field, field, fields
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import ConfigError


class Rule(NamedTuple):
    """Range rule of a field: ``ok(value)`` must hold, else ``message``
    (where ``{value}`` stands for the value)."""

    ok: Callable[[Any], bool]
    message: str


POSITIVE = Rule(lambda v: v > 0, "must be positive")
NON_NEGATIVE = Rule(lambda v: v >= 0, "must be non-negative")


def length(n: int) -> Rule:
    return Rule(lambda v: np.shape(v) == (n,), f"expected {n} numbers")


def setting(default=MISSING, rule: Rule | None = None, kind: str | None = None) -> Field:
    """A config field: its default (none: required), its range rule, and the
    noun its type error uses ("expected <kind>") in place of the generic one."""
    return field(default=default, metadata={"rule": rule, "kind": kind})


def join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}" if path else message)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Scalar types: (accepts, noun of the type error).
_SCALARS = {
    bool: (lambda v: isinstance(v, bool), "true/false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


@functools.cache
def _config_fields(cls) -> tuple:
    """(field, resolved type hint) of every field."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def finite(value, path: str) -> float:
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        fail(path, "must be finite")
    return value


@functools.cache
def _shape(hint) -> tuple:
    """(accepts null, type without the null, item type if a list, else None)."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = (a for a in args if a is not type(None))
    item = typing.get_args(hint)[0] if typing.get_origin(hint) is list else None
    return optional, hint, item


def _parse(hint, value, path: str, kind: str | None):
    """``value`` checked against the type ``hint``: bool, int, float, str,
    ``X | None``, ``list[float]``, a schema class, or a list of lists or of
    schema classes (each item checked at ``path[i]``)."""
    optional, hint, item = _shape(hint)
    if optional and value is None:
        return None
    if item is float:
        if not (isinstance(value, list) and all(map(is_number, value))):
            fail(path, f"expected {kind or 'a list of numbers'}")
        return [finite(v, path) for v in value]
    if item is not None:
        if not isinstance(value, list):
            fail(path, f"expected {kind or 'a list'}")
        return [_parse(item, v, f"{path}[{i}]", None) for i, v in enumerate(value)]
    if hint not in _SCALARS:
        return hint.from_dict(value, path)
    accepts, noun = _SCALARS[hint]
    if not accepts(value):
        fail(path, f"expected {kind or noun + (' or null' if optional else '')}")
    return finite(value, path) if hint is float else value


def _dump(value):
    if isinstance(value, Schema):
        return value.to_dict()
    if isinstance(value, list):
        return [_dump(v) for v in value]
    return value


class Schema:
    """Base of the config dataclasses: ``from_dict``, ``validate``,
    ``check`` and ``to_dict``."""

    @classmethod
    def from_dict(cls, data, path: str = ""):
        """Instance from JSON data with every field's type checked and unknown
        or missing required keys rejected; ``validate`` applies the rules."""
        if not isinstance(data, dict):
            fail(path, "expected an object")
        config_fields = _config_fields(cls)
        kwargs = {}
        for f, hint in config_fields:
            if f.name in data:
                kind = f.metadata.get("kind")
                kwargs[f.name] = _parse(hint, data[f.name], join(path, f.name), kind)
            elif f.default is MISSING and f.default_factory is MISSING:
                fail(join(path, f.name), "missing required field")
        unknown = sorted(data.keys() - {f.name for f, _ in config_fields})
        if unknown:
            fail(join(path, unknown[0]), "unknown field")
        return cls(**kwargs)

    def validate(self, path: str = ""):
        """Every field's rule, then nested schemas, then ``check``."""
        for f, _ in _config_fields(type(self)):
            value = getattr(self, f.name)
            rule = f.metadata.get("rule")
            if rule is not None and value is not None and not rule.ok(value):
                fail(join(path, f.name), rule.message.format(value=value))
            if isinstance(value, Schema):
                value.validate(join(path, f.name))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Schema):
                        item.validate(f"{join(path, f.name)}[{i}]")
        self.check(path)

    def check(self, path: str):
        """Rules that involve more than one field (none by default)."""

    def to_dict(self) -> dict:
        return {f.name: _dump(getattr(self, f.name)) for f, _ in _config_fields(type(self))}


@contextlib.contextmanager
def naming_file(path: str, kind: str):
    """Errors of reading the file at ``path`` or parsing it as ``kind`` turned
    into ``ConfigError``s that name the file (in front of a ``ConfigError``'s own text)."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except OSError as exc:  # a directory, no read permission
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, not the format
        raise ConfigError(f"invalid {kind} in {path}: {exc}") from exc


def read_json(path: str) -> dict:
    """The JSON object in the file at ``path``; else a ``ConfigError`` names the file."""
    with naming_file(path, "JSON"), open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: root must be a JSON object")
    return data
