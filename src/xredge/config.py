"""Type-driven JSON conversion of the config and record dataclasses, their
declared ranges, and the one float sum.

Both directions walk `dataclasses.fields` and the type hints, so a new field
needs no serializer edit. Enums travel by value, tuples as lists. The
conversion checks types only, because a metrics file may hold an infinite
lifetime. A config declares each field's range next to the field with
`ranged("[0, inf)", default)`, and its `__post_init__` tests them all with
`check_ranges`; only rules between fields stay as code there.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
import typing
from enum import Enum
from functools import cache, reduce


def to_jsonable(obj):
    """JSON-safe form of a dataclass tree (dicts, lists, scalars)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {to_jsonable(k): to_jsonable(v) for k, v in obj.items()}
    return obj


def field_types(cls) -> dict:
    """Declared type of each constructor field of a dataclass; {} otherwise."""
    if not dataclasses.is_dataclass(cls):
        return {}
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


def ranged(interval: str, default=dataclasses.MISSING, *, default_factory=dataclasses.MISSING):
    """A dataclass field whose value lies within `interval`, such as "[0, 1]"
    or "(0, inf)" (a bracket includes its end): each element of a tuple
    field, each value of a dict field. `check_ranges` tests it."""
    return dataclasses.field(default=default, default_factory=default_factory,
                             metadata={"range": interval})


@cache
def _declared_ranges(cls) -> tuple:
    """(name, interval, low end, high end, type origin) of each `ranged` field of cls."""
    types = field_types(cls)
    return tuple((f.name, r, *map(float, r[1:-1].split(",")), typing.get_origin(types[f.name]))
                 for f in dataclasses.fields(cls) if (r := f.metadata.get("range")))


def check_ranges(obj) -> None:
    """Raise ValueError naming the first `ranged` field of dataclass `obj`
    whose value lies outside its interval; a NaN lies outside every one."""
    for name, interval, lo, hi, origin in _declared_ranges(type(obj)):
        value = getattr(obj, name)
        if origin is tuple:
            values = value if isinstance(value, (tuple, list)) else [None]   # None fails
        elif origin is dict:
            values = value.values() if isinstance(value, dict) else [None]
        else:
            values = [value]
        if not all(isinstance(v, numbers.Real) and (lo <= v if interval[0] == "[" else lo < v)
                   and (v <= hi if interval[-1] == "]" else v < hi) for v in values):
            raise ValueError(f"{type(obj).__name__}.{name} must be within {interval}: {value!r}")


def fold_sum(values) -> float:
    """Left-to-right float sum from 0.0, what `sum` returns before Python
    3.12 (whose `sum` compensates rounding), on every Python version."""
    return reduce(operator.add, values, 0.0)


def from_jsonable(tp, data, path: str = "value"):
    """Rebuild a value of declared type `tp` from its JSON form.

    Missing keys take their defaults and an int may stand for a float; an
    unknown key, a wrong type or a bad enum value raises ValueError naming
    the dotted `path`.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object, got {data!r}")
        types = field_types(tp)
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ValueError(f"{path}: unknown field {', '.join(unknown)}")
        missing = [f.name for f in dataclasses.fields(tp) if f.name not in data
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise ValueError(f"{path}: missing field {', '.join(missing)}")
        return tp(**{k: from_jsonable(types[k], v, f"{path}.{k}") for k, v in data.items()})
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(data)
        except ValueError:
            allowed = ", ".join(repr(m.value) for m in tp)
            raise ValueError(f"{path}: {data!r} is not one of {allowed}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, list):
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"{path}: expected a list, got {data!r}")
        items = [from_jsonable(args[0], x, f"{path}[{i}]") for i, x in enumerate(data)]
        return tuple(items) if origin is tuple else items
    if origin is dict:
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object, got {data!r}")
        key_tp, value_tp = args
        return {from_jsonable(key_tp, k, f"{path}.{k}"): from_jsonable(value_tp, v, f"{path}.{k}")
                for k, v in data.items()}
    if tp is float and type(data) in (int, float):
        return float(data)
    if tp in (int, str, bool) and type(data) is tp:
        return data
    raise ValueError(f"{path}: expected {getattr(tp, '__name__', tp)}, got {data!r}")
