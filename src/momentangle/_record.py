"""The base of the package's immutable value records.

A record lists its fields in ``__slots__`` and sets each one once, in its
own ``__init__``, through ``object.__setattr__``.  Everything else is
derived from ``__slots__`` here: equality with a record of the same class
and equal fields, the hash of the field tuple, the repr
``Name(field=value, ...)``, refusal to assign or delete, and pickling and
copying through the constructor.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # attrgetter of a single name returns the value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1
                                   else lambda record: (get(record),))
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
