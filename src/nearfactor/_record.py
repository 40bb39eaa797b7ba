"""Immutable value records: the behaviour the package's record classes share.

A record class derives from Record, annotates its fields in the class body
in constructor order, and writes its own `__init__`, which validates and
then stores every field with `vars(self).update(...)`.  Record supplies
`__match_args__`, `==` (only between instances of the same class), `hash`
of the field tuple, the `Name(field=value, ...)` repr, and refuses to
assign or delete attributes, as a frozen dataclass does, but without
generating code when a class is defined.  A record has at least two fields.
"""

from __future__ import annotations

from operator import attrgetter


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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
