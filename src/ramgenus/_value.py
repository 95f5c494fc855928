"""The base of the package's immutable value classes."""

from operator import attrgetter


class Value:
    """Value semantics for a class whose ``__slots__`` name its fields in
    constructor order: equality and hashing on the fields, a repr naming
    them, pickling through the constructor, and no assignment once built.

    Values are filled here alone, through the slot setters recorded per
    class. A subclass ``__init__`` validates and normalises its arguments,
    then ends with ``self._set(...)``, one value per slot in ``__slots__``
    order; ``cls._new(...)`` builds a trusted instance from such values
    without running ``__init__``. Assigning or deleting a field afterwards
    raises ``AttributeError``. A slot named with a leading ``_`` is derived:
    it takes no part in equality, hashing, the repr or pickling."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls.__slots__:
            return
        # the descriptors' own setters bypass Value.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # one C-level getter per class, held in a closure rather than looked
        # up on the instance: dict and set keys compare and hash in hot loops
        fields = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return fields(self) == fields(other)
            return NotImplemented

        def __hash__(self):
            return hash(fields(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def _set(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _new(cls, *values):
        self = object.__new__(cls)
        # _set's loop written out: a call to _set costs a fifth more here
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
