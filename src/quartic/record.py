"""One base for the package's plain records.

A record class lists its fields as annotations, defaults in its body.
``Record`` reads them once per class and gives every record the same
``__init__`` and ``__repr__``, so no code is generated per class.  A list
or dict default is copied for each record.  Records compare and hash by
identity unless the class passes ``eq=True``; ``frozen=True`` rejects
assignment, so a ``__post_init__`` stores derived state with
``object.__setattr__``.
"""


class Record:
    def __init_subclass__(cls, eq: bool = False, frozen: bool = False):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields
                         if n in cls.__dict__}
        if eq:
            cls.__eq__ = Record._eq
            cls.__hash__ = Record._hash if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._frozen

    def __init__(self, *args, **kwargs):
        # a field given twice raises in dict()
        values = dict({n: v.copy() if type(v) in (list, dict) else v
                       for n, v in self._defaults.items()},
                      **dict(zip(self._fields, args)), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{self._fields}, got {args} and {kwargs}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate or derive state once the fields are set."""

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def _eq(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def _hash(self):
        return hash(self._values())

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set "
                             f"or delete {name!r}")
