"""Immutable value records: the behaviour the package's record classes share.

A record class derives from Record, annotates its fields in the class body
in constructor order, and writes its own `__init__`, which validates and
then stores every field with `vars(self).update(...)`.  Record supplies
`__match_args__`, `==` (only between instances of the same class), `hash`
of the field tuple, the `Name(field=value, ...)` repr, `to_dict`, and
refuses to assign or delete attributes, as a frozen dataclass does, but
without generating code when a class is defined.  A record has at least two
fields.  `to_json` turns a record's dict, or any JSON payload, into the
bytes every JSON output of the package is written as.
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


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that declares no fields of its own keeps its parent's.
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls.__match_args__ = fields
            cls._values = property(attrgetter(*fields))

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
