"""Record base classes: the behaviour of ``dataclasses`` without its import or generated code."""


class Record:
    """A mutable record without a hash.

    Its fields are its annotations, in order, and a class attribute is a
    field's default; ``__init__`` calls ``__post_init__`` if there is one.
    Records of one class are equal when their fields are, apart from those
    in ``_uncompared``, which ``repr`` leaves out too.
    """

    _uncompared = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__annotations__
        values = dict(zip(fields, args), **kwargs)
        unset = [f for f in fields if f not in values and not hasattr(type(self), f)]
        if unset or len(values) != len(args) + len(kwargs) or values.keys() - fields.keys():
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        vars(self).update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _compared(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__annotations__ if f not in self._uncompared)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._compared() == other._compared() if same else NotImplemented

    def __repr__(self) -> str:
        shown = [f for f in self.__annotations__ if f not in self._uncompared]
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in shown)})"


class FrozenRecord(Record):
    """A hashable record whose fields cannot be assigned or deleted."""

    def __hash__(self) -> int:
        return hash(self._compared())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__
