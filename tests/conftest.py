import contextlib
from fractions import Fraction

import pytest

from oddspin.record import MEMOS, clear_memos


@pytest.fixture
def fraction_builds(monkeypatch):
    """A context manager that yields a list of the arguments of every
    ``Fraction`` built inside its block."""

    @contextlib.contextmanager
    def counting():
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            if hasattr(Fraction, "_from_coprime_ints"):
                # Python 3.12 builds the results of Fraction arithmetic here,
                # not in __new__
                from_coprime = Fraction._from_coprime_ints.__func__
                patch.setattr(Fraction, "_from_coprime_ints", classmethod(
                    lambda cls, *args: built.append(args) or from_coprime(cls, *args)))
            yield built

    return counting


@pytest.fixture
def cold_memos():
    """Every memo empty around the test; yields each memo's cache_info by name."""
    clear_memos()
    yield lambda: {cached.__name__: cached.cache_info() for cached in MEMOS}
    clear_memos()
