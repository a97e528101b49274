"""Frozen value records: the one base of the package's data and result classes.

A subclass names its fields, in constructor order, in ``_fields`` and stores
them once, from its own ``__init__``, with ``self.__dict__.update(...)``.  The
base compares two records of the same class field by field, hashes the tuple
of field values (so a record holding a dict is unhashable), prints
``Name(field=value, ...)`` and refuses every later assignment or deletion.
Values that ``functools.cached_property`` stores in the instance dict are not
fields and take no part in equality, hashing or the repr.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
