"""Field type checks and dict reading shared by the config dataclasses.

A config dataclass is the one home of its settings: the fields hold the
defaults, the annotations the types (checked by :func:`check_types`) and
``__post_init__`` the ranges.
"""

from __future__ import annotations

import numbers
import types
import typing
from dataclasses import is_dataclass
from functools import cache

_hints = cache(typing.get_type_hints)


def is_int(value) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _conforms(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is tuple:  # configs only use the variadic form tuple[X, ...]
        return isinstance(value, tuple) and all(_conforms(v, args[0]) for v in value)
    if hint is int:
        return is_int(value)
    if hint is float:  # an int is a float, a bool is not
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return isinstance(value, hint)


def check_types(config) -> None:
    """Raise TypeError naming the first field whose value does not match its annotation."""
    for name, hint in _hints(type(config)).items():
        value = getattr(config, name)
        if not _conforms(value, hint):
            raise TypeError(f"{name} must be {hint.__name__ if type(hint) is type else hint}, got {value!r}")


def from_dict(cls: type, obj: dict, **built):
    """``cls(**obj, **built)``, each dict in ``obj`` under a dataclass-typed field built the same way."""
    hints = _hints(cls)
    nested = {key for key, value in obj.items()
              if isinstance(value, dict) and is_dataclass(hints.get(key)) and key not in built}
    fields = {key: from_dict(hints[key], value) if key in nested else value for key, value in obj.items()}
    return cls(**fields, **built)
