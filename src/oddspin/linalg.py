"""Exact linear algebra over the rationals.

The linear systems of this package are sparse: a Picard system in genus g
has about g rows of at most four entries.  One core runs fraction-free
Gauss-Jordan elimination on sparse rows of integers, each row scaled to
integers once; ``solve_linear`` reads a unique solution off as Fractions,
``solve_over_lcm`` as integer numerators over the lcm of the pivots.  A
list indexed by column holds the rows with an entry there; a pivot visits
those rows alone, none when its own row is the only one, so the work
grows with the entries, not with rows x pivots.  It never guesses: it
returns a report that is either a unique solution, an explicit list of
undetermined columns, or an inconsistency witness.  ``series_det`` takes
determinants of matrices of truncated integer power series, the
Brill-Noether evaluator's core, in integers.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import DimensionError, InternalCheckError, PreconditionError
from .record import Record
from .scalars import ZERO, ratio


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


def _integer_row(row: Mapping[int, object], value, n_cols: int) -> dict[int, int]:
    """``row`` with the right-hand side ``value`` as column n_cols, scaled
    to coprime integers: a nonzero rational multiple of the row.  One pass
    checks the columns and splits the values; a non-int one costs an lcm."""
    out, dens = {}, {}
    for col, v in row.items():
        if not (isinstance(col, int) and 0 <= col < n_cols):
            raise DimensionError(f"column {col!r} is outside 0..{n_cols - 1}")
        if type(v) is not int:
            v, dens[col] = ratio(v)
        if v:
            out[col] = v
    if type(value) is not int:
        value, dens[n_cols] = ratio(value)
    if value:
        out[n_cols] = value
    if dens:
        den = math.lcm(*dens.values())
        out = {c: p * (den // dens.get(c, 1)) for c, p in out.items()}
    return _primitive(out)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    content = math.gcd(*row.values())
    if content > 1:
        return {c: v // content for c, v in row.items()}
    return row


def _eliminate(rows: Sequence[Mapping[int, object]], n_cols: int,
               rhs: Sequence) -> tuple[dict, list[int], int]:
    """Gauss-Jordan elimination of rows x = rhs in integers, the core of
    both read-offs: (the report's fields but its solution, numerators, den),
    where a unique solution is ``numerators`` over ``den``, the positive lcm
    of the pivots, with their content not divided out; otherwise [] over 1.

    Each row maps column indices in 0..n_cols-1 to its nonzero entries
    (ints or Fractions).  Elimination works on those sparse rows, with the
    right-hand side kept as column n_cols, in integers: each row is first
    scaled to coprime integers, and pivoting on an entry pv replaces
    another row with entry f in that column by
    (pv/g)*row - (f/g)*pivot_row, g = gcd(pv, f), divided by its content.
    Every row stays a nonzero multiple of the row rational Gauss-Jordan
    would hold, so it has the same nonzero entries.

    Rows keep their input index as a stable id, a position array stands in
    for the row swaps, and ``holders[c]`` holds the ids of the rows with an
    entry in column c (n_cols: the right-hand side), kept up to date on
    fill-in and cancellation.  Each column pivots on its holder with the
    least position at or after the current row, dense Gauss-Jordan's first
    remaining row with an entry, so the report is the dense one; the sweep
    visits only the column's other holders, so the work follows the
    entries.  With no free column, the row at position c holds just the
    pivot of column c and the right-hand side, and the solution is read off.
    """
    if len(rows) != len(rhs):
        raise DimensionError("right-hand side length does not match row count")
    if n_cols < 1:
        raise DimensionError("a linear system needs at least one column")
    a = [_integer_row(row, value, n_cols) for row, value in zip(rows, rhs)]
    n_rows = len(a)
    order = list(range(n_rows))   # order[r]: the id of the row at position r
    pos = list(range(n_rows))     # pos[i]: the position of row id i
    holders: list[set[int]] = [set() for _ in range(n_cols + 1)]
    for i, entries in enumerate(a):
        for c in entries:
            holders[c].add(i)

    pivot_cols: list[int] = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        pivot = n_rows
        for i in holders[col]:
            if row <= pos[i] < pivot:
                pivot = pos[i]
        if pivot == n_rows:
            continue
        pivot_id, displaced = order[pivot], order[row]
        order[row], order[pivot] = pivot_id, displaced
        pos[pivot_id], pos[displaced] = row, pivot
        if len(holders[col]) > 1:
            pivot_row = a[pivot_id]
            pv = pivot_row[col]
            for i in [i for i in holders[col] if i != pivot_id]:
                other = a[i]
                f = other[col]
                g = math.gcd(pv, f)
                keep, take = pv // g, f // g
                if keep != 1:
                    for c in other:
                        other[c] *= keep
                for c, v in pivot_row.items():
                    if total := other.get(c, 0) - take * v:
                        other[c] = total
                        holders[c].add(i)
                    else:
                        del other[c]
                        holders[c].remove(i)
                a[i] = _primitive(other)
        pivot_cols.append(col)
        row += 1

    a = [a[i] for i in order]
    rank = len(pivot_cols)
    free_cols = tuple(sorted(set(range(n_cols)).difference(pivot_cols)))
    witness = min((pos[i] for i in holders[n_cols] if pos[i] >= rank), default=None)
    numerators, den, undetermined = [], 1, set()
    if witness is not None:
        status = "inconsistent"
    elif not free_cols:
        status, den = "unique", math.lcm(*[a[c][c] for c in range(n_cols)])
        numerators = [a[c].get(n_cols, 0) * (den // a[c][c]) for c in range(n_cols)]
    else:
        status, undetermined = "underdetermined", set(free_cols)
        for r, col in enumerate(pivot_cols):
            if not undetermined.isdisjoint(a[r]):
                undetermined.add(col)
    return dict(status=status, rank=rank, pivot_columns=tuple(pivot_cols),
                free_columns=free_cols, undetermined_columns=tuple(sorted(undetermined)),
                witness_row=witness), numerators, den


def solve_linear(rows: Sequence[Mapping[int, object]], n_cols: int,
                 rhs: Sequence) -> LinearSolveReport:
    """Solve rows x = rhs exactly (``_eliminate``), reporting degeneracy.
    A unique solution is read off as one Fraction per nonzero unknown."""
    fields, numerators, den = _eliminate(rows, n_cols, rhs)
    solution = tuple([Fraction(n, den) if n else ZERO for n in numerators]) or None
    return LinearSolveReport(solution=solution, **fields)


def solve_over_lcm(rows: Sequence[Mapping[int, object]], n_cols: int,
                   rhs: Sequence) -> tuple[LinearSolveReport, list[int], int]:
    """(``solve_linear``'s report with no solution built, numerators, den):
    the integer read-off of ``_eliminate``."""
    fields, numerators, den = _eliminate(rows, n_cols, rhs)
    return LinearSolveReport(solution=None, **fields), numerators, den
