"""Immutable value records without generated code, and the one memo policy.

A record lists its fields in ``__slots__``; a slot whose name starts with
``_`` is a private cache, outside construction, equality, hash and repr.
"""
from functools import lru_cache
from operator import attrgetter

# writes one field of a record under construction; records refuse setattr
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._values = attrgetter(*cls._fields)  # no descriptor: called as _values(obj)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name, value in kwargs.items():
            set_field(self, name, value)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")


MEMOS = []  # every function declared with ``memo``, in declaration order


def memo(fn):
    """``fn`` memoised in C and listed in ``MEMOS``: the one memo policy.
    Callers share a returned value, so it is immutable.  Keys are typed:
    7.0, Fraction(7) and True miss the entry of 7 and reach the int gate.
    A sweep, a side or an evaluation reads one basis, class or Schur
    expansion many times.  One pass of a bench workload or of the golden
    corpus leaves at most 56 entries in a memo; the bound of 64 counts
    entries, not bytes."""
    cached = lru_cache(maxsize=64, typed=True)(fn)
    MEMOS.append(cached)
    return cached


def clear_memos() -> None:
    for cached in MEMOS:
        cached.cache_clear()
