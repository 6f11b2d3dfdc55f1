"""The base of the package's record types.

A record names its fields in ``__match_args__``.  Its ``__init__``
checks the arguments and ends in one call, ``self._set(rows, cols)``
with the values in that order, which stores each field, and the tuple
of all of them as ``_values``, straight into the instance dict.

From ``_values`` the base gives a record what ``@dataclass(frozen=True)``
would: a ``repr`` of the fields by name, ``==`` and a ``hash`` of the
field tuple, and assignment and deletion refused with
``dataclasses.FrozenInstanceError``.  ``order=True`` adds ``<``, ``<=``,
``>`` and ``>=`` on the field tuple.  ``frozen=False`` makes a record
like a plain ``@dataclass``: its fields are set as usual, ``_values`` is
read from them and the record is unhashable.

No code is generated, so a record class costs nothing to speak of when
the package is imported, and a comparison or hash reads one stored
tuple.  This module imports nothing outside the standard library, so
``complexity`` stays free of numpy.
"""

from operator import attrgetter, ge, gt, le, lt


def _frozen(action):
    def refuse(self, name, *value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot {action} field {name!r}")

    return refuse


def _compare(op):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._values, other._values)
        return NotImplemented

    return compare


class Record:
    __match_args__ = ()

    def __init_subclass__(cls, order=False, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__setattr__ = _frozen("assign to")
            cls.__delattr__ = _frozen("delete")
        else:
            cls._values = property(attrgetter(*cls.__match_args__))
            cls.__hash__ = None
        if order:
            for name, op in (("__lt__", lt), ("__le__", le), ("__gt__", gt), ("__ge__", ge)):
                setattr(cls, name, _compare(op))

    def _set(self, *values):
        """Store ``values`` as the fields ``__match_args__`` names, in that
        order, and their tuple as ``_values``."""
        self.__dict__.update(zip(self.__match_args__, values), _values=values)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)
