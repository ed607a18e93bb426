"""The one loader behind every config class's ``from_dict``.

Config dataclasses inherit :class:`FromDict`.  Loading a JSON-style dict
reads the field types (resolved with :func:`typing.get_type_hints`, once
per class), loads nested config dicts recursively, turns lists into
tuples where the field is a tuple, and rejects unknown keys with a
:class:`ConfigError` naming the class, as it does a scalar of the wrong
type (an int is a float and stays an int; a bool is neither) and a tuple
field given anything but a list.  A class rewrites its own dict first by
overriding ``_normalize`` (discriminators, inherited settings).

Each class's ``__post_init__`` checks its values with :func:`one_of`,
:func:`count_at_least` and :func:`open_interval`, whose messages name
``Class.field`` (or ``function.argument``), so a config built in Python
meets the same rules as a loaded one.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import types
import typing

from .errors import ConfigError

__all__ = ["FromDict", "count_at_least", "one_of", "open_interval"]

_SCALARS = (bool, int, float, str, type(None))  # field types whose values are checked
_type_hints = functools.cache(typing.get_type_hints)  # resolved once per class


class FromDict:
    """Mixin giving a config dataclass the shared ``from_dict`` loader."""

    @classmethod
    def _normalize(cls, d: dict) -> dict:
        return d

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__}: expected an object, got {d!r}")
        d = cls._normalize(dict(d))
        hints = _type_hints(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise ConfigError(
                f"{cls.__name__}: unknown key(s) {unknown}; expected some of {names}"
            )
        kwargs = {
            k: _convert(f"{cls.__name__}.{k}", hints[k], v) for k, v in d.items()
        }
        try:
            return cls(**kwargs)
        except TypeError as e:
            raise ConfigError(f"{cls.__name__}: {e}") from None


def _convert(where: str, tp, value):
    """Load ``value`` as the annotated type ``tp``: a config, a tuple or a scalar."""
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    allowed = typing.get_args(tp) if union else (tp,)  # X | None allows X and None
    config = next(
        (a for a in allowed if isinstance(a, type) and issubclass(a, FromDict)), None
    )
    if config is not None:
        if isinstance(value, dict):
            return config.from_dict(value)
        if not isinstance(value, allowed):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
    elif typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_convert(where, typing.get_args(tp)[0], v) for v in value)
    elif set(allowed) <= set(_SCALARS) and not any(_is_a(value, a) for a in allowed):
        name = getattr(tp, "__name__", tp)  # e.g. int, or float | None
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    return value


def _is_a(value, tp) -> bool:
    """Whether a JSON scalar loads as ``tp``: a bool is no number, an int is a float."""
    if tp in (int, float):
        return _is_integer(value) or (tp is float and isinstance(value, float))
    return isinstance(value, tp)


def _is_integer(value) -> bool:
    """The loader's integer: any ``numbers.Integral`` but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def one_of(where: str, value, choices: tuple) -> None:
    """Refuse a ``value`` that is not one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{where} must be one of {choices}, got {value!r}")


def count_at_least(where: str, value, low: int) -> int:
    """``value`` as an int, refusing a non-integer (a bool too) or one below ``low``."""
    if not _is_integer(value) or value < low:
        raise ConfigError(f"{where} must be an integer >= {low}, got {value!r}")
    return int(value)


def open_interval(where: str, value, low, high) -> None:
    """Refuse a ``value`` that is not a number strictly between ``low`` and ``high``."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and low < value < high):
        raise ConfigError(f"{where} must be in ({low}, {high}), got {value!r}")
