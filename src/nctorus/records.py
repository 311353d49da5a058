"""Immutable value classes: field-wise equality, hashing and a keyword repr.

A subclass names its fields, in constructor order, in ``_fields`` and
stores them once, through ``Record.__init__(self, *values)``.  ``Record``
compares instances of the same class field by field, hashes the field
tuple (``TypeError`` when a field is unhashable, such as a dict) and
prints them as ``Name(field=value, ...)``.  Assigning or deleting an
attribute raises ``AttributeError``, so every field keeps the value its
constructor validated.  Attributes outside ``_fields`` are caches derived
from the fields; only the module of their class writes them, past the
refusal (``object.__setattr__``, or the instance ``__dict__`` of a class
without slots), and they take no part in equality, hashing or the repr.
``Record`` has empty ``__slots__``, so a slotted subclass
(``HermitianMetric``, ``KForm``) has no ``__dict__``.
"""

from __future__ import annotations

_store = object.__setattr__


class Record:
    """Base of the immutable value classes."""

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                "%s takes %d fields, got %d"
                % (self.__class__.__qualname__, len(fields), len(values))
            )
        for name, value in zip(fields, values):
            _store(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )
