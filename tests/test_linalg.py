import math
import random
from itertools import permutations
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddspin.errors import DimensionError, PreconditionError
from oddspin.linalg import solve_linear
from oddspin.scalars import format_scalar, over_lcm, ratio

from oracles import apply, dense_solve, laplace_det, poly_mul, series_det


def _truncated_permutation_det(rows, order):
    """Signed sum over permutations of products of polynomials in t,
    truncated after t^order."""
    n = len(rows)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        product = {(0,): -1 if inversions % 2 else 1}
        for i in range(n):
            entry = {(e,): c for e, c in enumerate(rows[i][perm[i]]) if c}
            product = {m: c for m, c in poly_mul(product, entry).items() if m[0] <= order}
        for m, c in product.items():
            total[m] = total.get(m, 0) + c
    return [total.get((e,), 0) for e in range(order + 1)]


def test_det_identity_case():
    assert series_det([[[3, 4]]], 1) == [3, 4]
    assert series_det([[[3, 4]]], 0) == [3]


def test_det_2x2_direct_expansion():
    # [[1, 1/2], [1, 1]] with its first row scaled by 2: det 2*1 - 1*1 = 1
    assert series_det([[[2], [1]], [[1], [1]]], 0) == [1]


def test_det_reciprocal_factorial_band_matrix():
    # rows j, cols l (0-indexed): 1/(1 + l - j)!, zero below the band;
    # scaling every entry by 5! = 120 makes the matrix integral
    rows = [[Fraction(1, math.factorial(1 + l - j)) if l + 1 >= j else 0 for l in range(5)]
            for j in range(5)]
    oracle = laplace_det(rows)
    assert oracle == Fraction(1, 120)
    scaled = [[[int(120 * entry)] for entry in row] for row in rows]
    assert series_det(scaled, 0) == [oracle * 120 ** 5]


def test_det_requires_square():
    with pytest.raises(DimensionError):
        series_det([[[1], [2], [3]], [[4], [5], [6]]], 0)


def test_det_refuses_a_negative_order():
    with pytest.raises(PreconditionError, match=r"^series order must be nonnegative$"):
        series_det([[[1]]], -1)


def _sparse(rows):
    """Dense rows as the ``{column: value}`` rows ``solve_linear`` takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def test_solve_identity():
    report = solve_linear([{0: 1}, {1: 1}], 2, [Fraction(5), Fraction(-2, 3)])
    assert report.status == "unique"
    assert report.solution == (Fraction(5), Fraction(-2, 3))


def test_solve_diagonal():
    report = solve_linear([{0: 2}, {1: 4}], 2, [1, 1])
    assert report.solution == (Fraction(1, 2), Fraction(1, 4))


def test_solve_certificate_system_matches_hand_elimination():
    # 1926 y + (14/4) x = 2   and   2*1926 y + 2 x = 3, unknowns (x, y).
    # Hand elimination: subtract twice the first row from the second:
    #   (2 - 7) x = 3 - 4  =>  x = 1/5, then y = (2 - 7/10) / 1926.
    x = Fraction(-1) / Fraction(-5)
    y = (2 - Fraction(14, 4) * x) / 1926
    assert (x, y) == (Fraction(1, 5), Fraction(13, 19260))
    rows = [{0: Fraction(14, 4), 1: 1926}, {0: 2, 1: 2 * 1926}]
    report = solve_linear(rows, 2, [2, 3])
    assert report.status == "unique"
    assert report.solution == (x, y)


def test_solve_resubstitution_on_random_systems():
    rng = random.Random(99)
    made = 0
    while made < 12:
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
             for _ in range(4)]
        if laplace_det(m) == 0:
            continue
        made += 1
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]
        rhs = apply(m, x)
        report = solve_linear(_sparse(m), 4, rhs)
        assert report.status == "unique"
        assert apply(m, report.solution) == rhs
        assert report.solution == tuple(x)


def test_solve_reports_inconsistency_with_witness():
    report = solve_linear([{0: 1, 1: 1}, {0: 1, 1: 1}], 2, [1, 2])
    assert report.status == "inconsistent"
    assert report.witness_row is not None


def test_solve_reports_undetermined_columns():
    report = solve_linear([{0: 1, 1: 1}, {2: 1}], 3, [2, 5])
    assert report.status == "underdetermined"
    assert report.free_columns == (1,)
    # the pivot in column 0 depends on the free column
    assert report.undetermined_columns == (0, 1)


def test_solve_refuses_malformed_systems():
    with pytest.raises(DimensionError, match="right-hand side"):
        solve_linear([{0: 1}], 1, [1, 2])
    with pytest.raises(DimensionError, match="at least one column"):
        solve_linear([{}], 0, [1])
    for column in (2, -1, "beta0"):
        with pytest.raises(DimensionError, match="outside 0..1"):
            solve_linear([{0: 1}, {column: 1}], 2, [1, 1])


@st.composite
def sparse_systems(draw):
    """Dense rows and a right-hand side of a random rational system, 1-12
    rows and columns, each entry nonzero with a probability of 0.3 to 0.8
    drawn per system (0.7 on the right-hand side): numerators
    up to 10^6 in size over denominators up to 60.  Half the systems are
    square.  Some rows are a rational multiple of an earlier one, with its
    right-hand side or another, so that rows cancel, common factors appear
    and systems degenerate."""
    n_cols = draw(st.integers(1, 12))
    n_rows = draw(st.one_of(st.just(n_cols), st.integers(1, 12)))

    def entry(density):
        if draw(st.integers(0, 9)) >= density:
            return Fraction(0)
        numerator = draw(st.one_of(st.integers(-6, 6), st.integers(-10**6, 10**6)))
        return Fraction(numerator, draw(st.integers(1, 60)))

    density = draw(st.integers(3, 8))
    rows = [[entry(density) for _ in range(n_cols)] for _ in range(n_rows)]
    rhs = [entry(7) for _ in range(n_rows)]
    for i in range(1, n_rows):
        if draw(st.integers(0, 5)) == 0:
            j = draw(st.integers(0, i - 1))
            scale = Fraction(draw(st.integers(-60, 60).filter(bool)), draw(st.integers(1, 60)))
            rows[i] = [scale * v for v in rows[j]]
            if draw(st.booleans()):
                rhs[i] = scale * rhs[j]
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(sparse_systems())
@example(([[2, 0], [0, 4]], [1, 1]))                   # unique
@example(([[1, 1, 0], [0, 0, 1]], [2, 5]))             # underdetermined
@example(([[0, 1], [0, 2], [0, 0]], [1, 2, 0]))        # column 0 free, extra rows
@example(([[1, 1], [1, 1]], [1, 2]))                   # inconsistent
@example(([[0, 0], [1, 2], [2, 4]], [3, 1, 2]))        # inconsistent after a swap
def test_sparse_solve_matches_the_dense_oracle(system):
    rows, rhs = system
    expected = dense_solve(rows, rhs)
    assert solve_linear(_sparse(rows), len(rows[0]), rhs) == expected
    # explicit zero entries are dropped, not pivoted on
    full = [dict(enumerate(row)) for row in rows]
    assert solve_linear(full, len(rows[0]), rhs) == expected


def _solve_as_dense(rows, rhs):
    """``solve_linear`` on dense rows, checked field for field against the
    dense oracle."""
    report = solve_linear(_sparse(rows), len(rows[0]), rhs)
    assert report == dense_solve(rows, rhs)
    return report


def test_pivot_is_the_least_position_after_earlier_swaps():
    # column 0 pivots on row 3, which swaps row 0 down to position 3; in
    # column 1, row 2 (position 2) then comes before row 0 (position 3),
    # though row 0 has the smaller index.  Row 0 is reduced to 0 = -1 at
    # position 3; pivoting on row 0 instead would leave row 2 as 0 = 1 at
    # position 2.
    report = _solve_as_dense([[0, 1], [0, 0], [0, 1], [1, 0]], [1, 0, 2, 0])
    assert (report.status, report.pivot_columns, report.witness_row) == ("inconsistent", (0, 1), 3)


def test_fill_in_gives_a_later_row_its_pivot_column():
    # row 1 has no entry in column 1 until eliminating column 0 puts one there
    report = _solve_as_dense([[1, 1, 0], [1, 0, 1], [0, 0, 1]], [1, 2, 3])
    assert report.status == "unique"
    assert report.pivot_columns == (0, 1, 2)
    assert report.solution == (Fraction(-1), Fraction(2), Fraction(3))


def test_cancellation_removes_a_row_from_its_columns():
    # eliminating column 0 cancels row 1's entry in column 1 (and so its
    # right-hand side); column 1 then pivots on row 2, not on row 1
    report = _solve_as_dense([[1, 1, 0], [1, 1, 1], [0, 1, 0]], [1, 1, 3])
    assert report.status == "unique"
    assert report.solution == (Fraction(-2), Fraction(3), Fraction(0))
    # row 1 cancels to 0 = 0 and row 2 to 0 = 1: the witness is row 2
    report = _solve_as_dense([[1], [1], [1]], [1, 1, 2])
    assert (report.status, report.rank, report.witness_row) == ("inconsistent", 1, 2)


def test_witness_row_is_a_position_after_swaps():
    # row 0 reads 0 = 1 from the start; column 0's pivot (row 2) swaps it to
    # position 2, which is the witness, not its index 0
    report = _solve_as_dense([[0, 0], [0, 1], [1, 0], [0, 0]], [1, 0, 0, 0])
    assert (report.status, report.pivot_columns, report.witness_row) == ("inconsistent", (0, 1), 2)


def test_integer_rows_build_at_most_one_fraction_per_unknown(fraction_builds):
    rng = random.Random(20261018)
    for n in (1, 5, 12):
        # upper triangular with a nonzero diagonal: a unique solution
        dense = [[(rng.randint(1, 10**6) * rng.choice((-1, 1)) if j == i else
                   rng.randint(-10**6, 10**6) if j > i and rng.random() < 0.4 else 0)
                  for j in range(n)] for i in range(n)]
        rhs = [rng.randint(-10**6, 10**6) for _ in range(n)]
        rows = _sparse(dense)
        with fraction_builds() as built:
            report = solve_linear(rows, n, rhs)
        assert report.status == "unique"
        assert len(built) <= n
        assert report == dense_solve(dense, rhs)
    # no solution to read off, no Fraction built
    for rows, rhs in (([{0: 2, 1: 4}], [6]), ([{0: 1, 1: 1}, {0: 3, 1: 3}], [1, 2])):
        with fraction_builds() as built:
            report = solve_linear(rows, 2, rhs)
        assert report.status != "unique"
        assert built == []


def test_scalar_round_trips():
    rng = random.Random(7)
    for _ in range(50):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        assert (a + c) - c == a
        assert ratio(a) == (a.numerator, a.denominator)
        assert Fraction(format_scalar(a)) == a
        # numerators over the lcm: the same values, coprime to the denominator
        values = [a, c, rng.randint(-9, 9), a + c]
        numerators, den = over_lcm(values)
        assert all(isinstance(n, int) for n in numerators)
        assert [Fraction(n, den) for n in numerators] == [Fraction(v) for v in values]
        assert den == math.lcm(a.denominator, c.denominator, (a + c).denominator)
        assert math.gcd(den, *numerators) == 1
    assert over_lcm([]) == ([], 1)
    assert over_lcm([Fraction(1, 6), Fraction(-3, 4), 5]) == ([2, -9, 60], 12)
    assert format_scalar(Fraction(9867)) == "9867"
    assert format_scalar(Fraction(-32, 3)) == "-32/3"
    # exact values are ints and Fractions: a string is refused as a float is
    for refused in ("1/3", "2", 0.5):
        with pytest.raises(TypeError, match="as an exact rational"):
            ratio(refused)
        with pytest.raises(TypeError, match="as an exact rational"):
            over_lcm([Fraction(1, 2), refused])
        with pytest.raises(TypeError, match="as an exact rational"):
            format_scalar(refused)
        with pytest.raises(TypeError, match="as an exact rational"):
            solve_linear([{0: refused}], 1, [1])
        with pytest.raises(TypeError, match="as an exact rational"):
            solve_linear([{0: 1}], 1, [refused])


def test_series_det_against_permutation_expansion():
    rng = random.Random(20261018)
    for n, order in ((1, 3), (2, 0), (3, 2), (4, 3)):
        for _ in range(5):
            rows = [[[rng.randint(-5, 5) for _ in range(rng.randint(1, order + 2))]
                     for _ in range(n)] for _ in range(n)]
            constant = [[entry[0] for entry in row] for row in rows]
            if laplace_det(constant) == 0:
                with pytest.raises(PreconditionError):
                    series_det(rows, order)
                continue
            assert series_det(rows, order) == _truncated_permutation_det(rows, order)


def test_series_det_with_a_pivot_swap():
    # constant part [[0, 1], [1, 0]] forces a row swap; the det is
    # (t)(t) - (1 + t)(1 + 2t) = -1 - 3t - t^2
    rows = [[[0, 1], [1, 1]], [[1, 2], [0, 1]]]
    assert series_det(rows, 2) == [-1, -3, -1]
    assert series_det(rows, 0) == [-1]
    with pytest.raises(DimensionError):
        series_det([[[1], [2]]], 0)
