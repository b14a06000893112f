"""Immutable value records: the base class of every result and value type.

A record's fields are the annotations of its class, in MRO order, and a
field's default is the class attribute of the same name.  A record is built
from its fields positionally or by keyword; it equals a record of the same
class with equal fields, hashes like the tuple of its fields, prints as
`Class(field=value, ...)`, and refuses assignment and deletion.  No code is
generated per class, so defining a record costs about what defining a class
costs, and importing one pulls in no module beyond this one.

A class built in a loop declares `__slots__` and writes its own `__init__`,
which sets each field with `object.__setattr__`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields: list[str] = []
        for klass in reversed(cls.__mro__):
            fields += [f for f in vars(klass).get("__annotations__", ()) if f not in fields]
        cls._fields = tuple(fields)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(self._fields):
            raise TypeError(f"{cls.__name__}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for name, value in kwargs.items():
            if name not in self._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in self._fields:
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, values[name] if name in values else getattr(cls, name))
        self._post_init()

    def _post_init(self) -> None:
        """Check or normalize the fields once they are set (nothing by default)."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__; their default restores slots by setattr
        return type(self), self._key()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
