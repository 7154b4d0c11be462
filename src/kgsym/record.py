"""Immutable value records, the base of the package's frozen result types.

A subclass names its fields in __slots__, in constructor order, and its
__init__ checks its arguments and sets the fields once through _init.
Setting or deleting an attribute afterwards raises AttributeError. Records
of one class are equal, and hash equally, when their field values are; the
repr is Name(field=value, ...). Copies and pickles are rebuilt through
__init__, so they pass the same checks.
"""


class Record:
    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
