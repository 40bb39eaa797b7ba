"""Immutable value records: the behaviour the package's record classes share.

A record class derives from Record and annotates its two or more fields, in
constructor order, in the class body; trailing fields may give defaults
there.  A class that writes no `__init__` (one that converts or checks its
arguments does) gets one, compiled from its field names when the class is
defined: it stores the fields with `vars(self).update(...)` and carries
their annotations and defaults, which then leave the class.  Record also
supplies `__match_args__`, `==` (same class only), `hash` of the field
tuple, the `Name(field=value, ...)` repr and `to_dict`, and refuses to
assign or delete attributes, as a frozen dataclass does.  `to_json` gives
the bytes every JSON output of the package is written as.
"""

from __future__ import annotations

import json
from operator import attrgetter


def to_json(payload: dict) -> str:
    """Sorted keys, compact separators and a trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _plain(value: object) -> object:
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _storing_init(cls: type, fields: tuple[str, ...]):
    """`__init__(self, <fields>)` that stores each argument as its field."""
    has_default = [name in cls.__dict__ for name in fields]
    usable = all(name.isidentifier() and name not in ("self", "vars") for name in fields)
    if has_default != sorted(has_default) or not usable:
        raise TypeError(f"{cls.__qualname__}: cannot build __init__ for {fields}")
    optional = fields[has_default.count(False) :]
    names = ", ".join(fields)
    stores = ", ".join(f"{name}={name}" for name in fields)
    exec(f"def __init__(self, {names}):\n    vars(self).update({stores})\n", scope := {})
    init = scope["__init__"]
    init.__defaults__ = tuple(cls.__dict__[name] for name in optional) or None
    init.__annotations__ = {**cls.__dict__["__annotations__"], "return": "None"}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    # A default left on the class would make reading the field slower.
    for name in optional:
        delattr(cls, name)
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that declares no fields of its own keeps its parent's.
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls.__match_args__ = fields
            cls._values = property(attrgetter(*fields))
            if "__init__" not in cls.__dict__:
                cls.__init__ = _storing_init(cls, fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values)
        )
        return f"{self.__class__.__qualname__}({fields})"

    def to_dict(self) -> dict:
        """The fields by name; a tuple becomes a list, a record its dict."""
        return dict(zip(self.__match_args__, map(_plain, self._values)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
