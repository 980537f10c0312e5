"""Immutable records without `dataclasses`, whose import alone pulls in `inspect` and `ast`."""


class Value:
    """Equality, hashing and repr over the fields in `__slots__`, stored once by `_assign`.

    A subclass validates in its own `__init__`; later assignment or deletion
    raises AttributeError, so a value stays a valid cache key.  Fields with a
    leading underscore are derived data and stay out of the repr.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each slot's member descriptor sets it past the blocking __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _assign(self, *values) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"{type(self).__name__} has {len(setters)} fields, got {len(values)} values")
        for set_slot, v in zip(setters, values):
            set_slot(self, v)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if not n.startswith("_"))
        return f"{type(self).__name__}({', '.join(shown)})"
