"""Base class of ftig's value records."""

from operator import attrgetter


class Record:
    """A value whose fields are the ``__slots__`` of its class and bases.

    Fields run base first, in declaration order.  Two records are equal
    when they are of the same class with equal fields; the hash is that of
    the field tuple.  Records are immutable by convention: nothing assigns
    a field after ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in klass.__dict__.get("__slots__", ()))
        values = attrgetter(*cls._fields)
        cls._values = values if len(cls._fields) > 1 else staticmethod(lambda r: (values(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)
