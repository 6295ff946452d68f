"""Exact linear algebra over the rationals.

The linear systems of this package are small and sparse (a few dozen rows
of at most four entries), so ``solve_linear`` runs Gauss-Jordan elimination
on sparse rows of ``Fraction`` entries.  It never guesses: it returns a
report that is either a unique solution, an explicit list of undetermined
columns, or an inconsistency witness.  ``series_det`` takes determinants of
matrices of truncated integer power series, the Brill-Noether evaluator's
core, in integer arithmetic.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import DimensionError, InternalCheckError, PreconditionError
from .record import Record
from .scalars import ZERO, as_scalar


def _bareiss_entry(head, entry, lead, pivot_row_entry, previous) -> list[int]:
    """(head*entry - lead*pivot_row_entry) / previous modulo t^(order+1).

    The quotient is integral (it is a minor), and previous[0] != 0 makes
    the truncated series division unique."""
    out: list[int] = []
    p0 = previous[0]
    for s in range(len(entry)):
        acc = 0
        for u in range(s + 1):
            acc += head[u] * entry[s - u] - lead[u] * pivot_row_entry[s - u]
        for u in range(1, s + 1):
            acc -= previous[u] * out[s - u]
        quotient, remainder = divmod(acc, p0)
        if remainder:
            raise InternalCheckError("inexact division in the series determinant")
        out.append(quotient)
    return out


def series_det(rows: Sequence[Sequence[Sequence[int]]], order: int) -> list[int]:
    """Determinant of a square matrix of integer power series in t, modulo
    t^(order+1), as the coefficient list [d_0, ..., d_order].

    Each entry is a coefficient list, constant term first; missing high
    coefficients are 0.  Fraction-free Bareiss elimination over
    Z[t]/(t^(order+1)): every intermediate entry is a minor of the matrix,
    and each division is by the previous pivot, whose constant term is
    nonzero, so the truncated quotient is exact and integral.  Integer
    arithmetic only.  The matrix of constant terms must be nonsingular
    (it is what the pivots are chosen from); PreconditionError otherwise.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DimensionError("determinant of a non-square matrix")
    if order < 0:
        raise PreconditionError("series order must be nonnegative")
    a = [[(list(entry) + [0] * (order + 1))[: order + 1] for entry in row] for row in rows]
    sign = 1
    previous = [1] + [0] * order
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k][0] != 0), None)
        if pivot is None:
            raise PreconditionError(
                "series determinant needs a nonsingular matrix of constant terms"
            )
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        head, pivot_row = a[k][k], a[k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = _bareiss_entry(head, row[j], lead, pivot_row[j], previous)
        previous = head
    return [sign * x for x in a[n - 1][n - 1]]


class LinearSolveReport(Record):
    """Outcome of an exact linear solve.

    status is one of "unique", "underdetermined" or "inconsistent".  For a
    unique solve the solution vector is populated; an underdetermined solve
    lists the free columns and every column whose value depends on them;
    an inconsistent solve records the reduced row that has no solution.
    """

    __slots__ = ("status", "solution", "rank", "pivot_columns", "free_columns",
                 "undetermined_columns", "witness_row")


def solve_linear(rows: Sequence[Mapping[int, object]], n_cols: int,
                 rhs: Sequence) -> LinearSolveReport:
    """Solve rows x = rhs exactly (Gauss-Jordan), reporting degeneracy.

    Each row maps column indices in 0..n_cols-1 to its nonzero entries.
    Elimination works on those sparse rows, with the right-hand side kept
    as column n_cols: it touches only nonzero entries and drops an entry
    that cancels.  Columns are taken in order, each pivoting on the first
    remaining row with an entry there, so the reduced rows, and with them
    the report, are those of dense Gauss-Jordan.
    """
    if len(rows) != len(rhs):
        raise DimensionError("right-hand side length does not match row count")
    if n_cols < 1:
        raise DimensionError("a linear system needs at least one column")
    a: list[dict[int, Fraction]] = []
    for row, value in zip(rows, rhs):
        entries = {}
        for col, v in row.items():
            if not (isinstance(col, int) and 0 <= col < n_cols):
                raise DimensionError(f"column {col!r} is outside 0..{n_cols - 1}")
            if v := as_scalar(v):
                entries[col] = v
        if value := as_scalar(value):
            entries[n_cols] = value
        a.append(entries)
    n_rows = len(a)

    pivot_cols: list[int] = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        pivot = next((r for r in range(row, n_rows) if col in a[r]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        pivot_row = a[row] = {c: v / pv for c, v in a[row].items()}
        for r, other in enumerate(a):
            factor = other.get(col)
            if r == row or factor is None:
                continue
            for c, v in pivot_row.items():
                if total := other.get(c, ZERO) - factor * v:
                    other[c] = total
                else:
                    del other[c]
        pivot_cols.append(col)
        row += 1

    rank = len(pivot_cols)
    free_cols = tuple(c for c in range(n_cols) if c not in pivot_cols)
    witness = next((r for r in range(rank, n_rows) if n_cols in a[r]), None)
    if witness is not None:
        return LinearSolveReport(
            status="inconsistent",
            solution=None,
            rank=rank,
            pivot_columns=tuple(pivot_cols),
            free_columns=free_cols,
            undetermined_columns=(),
            witness_row=witness,
        )

    if not free_cols:
        solution = [ZERO] * n_cols
        for r, col in enumerate(pivot_cols):
            solution[col] = a[r].get(n_cols, ZERO)
        return LinearSolveReport(
            status="unique",
            solution=tuple(solution),
            rank=rank,
            pivot_columns=tuple(pivot_cols),
            free_columns=(),
            undetermined_columns=(),
            witness_row=None,
        )

    undetermined = set(free_cols)
    for r, col in enumerate(pivot_cols):
        if not undetermined.isdisjoint(a[r]):
            undetermined.add(col)
    return LinearSolveReport(
        status="underdetermined",
        solution=None,
        rank=rank,
        pivot_columns=tuple(pivot_cols),
        free_columns=free_cols,
        undetermined_columns=tuple(sorted(undetermined)),
        witness_row=None,
    )
