"""The record base class, a frozen ``dataclasses`` class without its import or generated
code; and ``json_int``, how the config and certificate readers take a JSON integer."""

import sys


def json_int(text: str):
    """``json.loads``'s ``parse_int``: an int, or the text of one too long for ``int()``.

    ``int()`` would refuse it with an error that names no field; the field's own check names it.
    """
    limit = sys.get_int_max_str_digits()  # 0: no limit
    return text if 0 < limit < len(text.lstrip("-")) else int(text)


class FrozenRecord:
    """A hashable record whose fields cannot be assigned or deleted.

    Its fields are its annotations, in order, and a class attribute is a
    field's default; ``__init__`` calls ``__post_init__`` if there is one.
    Records of one class are equal when their fields are, apart from those
    in ``_uncompared``, which ``repr`` and the hash leave out too.
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

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        shown = [f for f in self.__annotations__ if f not in self._uncompared]
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in shown)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__
