"""Bases of the records that are not NamedTuples.

Immutable value records are `typing.NamedTuple` classes.  A record that is
mutable, or that keeps some fields out of equality, is a plain class with
`__slots__` on one of these bases: `==` compares, and `repr` shows, the
fields named in `_compared`, in order, and only objects of one class
compare.  A FrozenRecord also hashes those fields and refuses assignment.
Written out rather than generated by the standard library's record
decorator, these methods cost start-up no compiling, and importing the
package loads neither that decorator's module nor the `inspect` module it
pulls in.
"""

from __future__ import annotations


class Record:
    """A mutable slotted record, unhashable as it can change.  Its __init__
    passes the field values, in `__slots__` order, to `_init`."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()
    __hash__ = None

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable slotted record."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as assignment is refused
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])
