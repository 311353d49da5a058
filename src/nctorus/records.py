"""Plain value classes: field-wise equality and a keyword repr.

A subclass names its fields, in constructor order, in ``_fields`` and
sets them in ``__init__``.  ``Record`` compares instances of the same
class field by field and prints them as ``Name(field=value, ...)``; it is
mutable and unhashable.  ``FrozenRecord`` also hashes the field tuple
and refuses assignment and deletion after construction, so its
``__init__`` stores the fields through ``self.__dict__``.  Attributes
outside ``_fields`` (caches derived from the fields) take no part in
equality, hashing or the repr.  Both bases have empty ``__slots__``, so
a slotted subclass (``HermitianMetric``, ``KForm``) has no ``__dict__``.
"""

from __future__ import annotations


class Record:
    """Base of the mutable value classes."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )


class FrozenRecord(Record):
    """Base of the immutable, hashable value classes."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._values())
