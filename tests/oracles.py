"""Independent oracles shared by the test suite.

Everything here is deliberately written against the naive definition
(cofactor and permutation sums, raw polynomial dictionaries) rather than
reusing the package's algorithms, so that agreement is meaningful.  The
Chern-root oracle evaluates each root monomial as ``laplace_det`` of its
matrix of reciprocal factorials.  The generating-function oracle
integrates c_1^n through one determinant of truncated power series per
root monomial of the other classes (``series_det``, fraction-free Bareiss
over Z[t]/(t^(n+1))).  Neither lists Schur shapes or uses the evaluators'
closed form.  ``dense_solve`` is dense Gauss-Jordan elimination, the
reference for the sparse ``solve_linear``.  ``jacobian_normal_form``
applies the three Jacobian relations by repeated rewriting, as a reference
for the ring's closed-form normalization.  The ``model_*`` functions are
the ring arithmetic with one ``Fraction`` per coefficient, the reference
for the ring's integer numerators over one denominator.
"""
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from oddspin.errors import DimensionError, PreconditionError
from oddspin.linalg import LinearSolveReport


def laplace_det(rows):
    """Determinant by cofactor expansion along the rows, each minor taken
    once per set of columns it keeps; exact for int and Fraction entries
    alike."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(used):
        # the minor of the rows from bin(used).count("1") on, on the columns
        # not in the bit set ``used``
        i = bin(used).count("1")
        if i == n:
            return 1
        total, sign = 0, 1
        for c in range(n):
            if used >> c & 1:
                continue
            if rows[i][c]:
                total += sign * rows[i][c] * minor(used | 1 << c)
            sign = -sign
        return total

    return minor(0)


def matmul(a, b):
    """Product of two matrices, given as lists of rows, by the row-column
    definition."""
    if any(len(row) != len(b) for row in a):
        raise DimensionError("inner dimensions do not match")
    return [[sum((row[t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))]
            for row in a]


def apply(m, vector):
    """``m`` times ``vector`` taken as a column."""
    return tuple(row[0] for row in matmul(m, [[v] for v in vector]))


def dense_solve(rows, rhs):
    """Dense Gauss-Jordan elimination of ``rows x = rhs`` over a list of
    equally long rows, reported as a ``LinearSolveReport``: the reference
    for ``solve_linear`` on sparse rows."""
    if len(rows) != len(rhs):
        raise DimensionError("right-hand side length does not match row count")
    n_rows, n_cols = len(rows), len(rows[0])
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]

    pivot_cols = []
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [v / pv for v in a[row]]
        for r in range(n_rows):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [a[r][c] - factor * a[row][c] for c in range(n_cols + 1)]
        pivot_cols.append(col)
        row += 1
        if row == n_rows:
            break

    rank = len(pivot_cols)
    free_cols = tuple(c for c in range(n_cols) if c not in pivot_cols)
    report = dict(rank=rank, pivot_columns=tuple(pivot_cols), free_columns=free_cols,
                  solution=None, undetermined_columns=(), witness_row=None)
    for r in range(rank, n_rows):
        if a[r][n_cols] != 0:
            return LinearSolveReport(status="inconsistent", **dict(report, witness_row=r))
    if not free_cols:
        solution = [Fraction(0)] * n_cols
        for r, col in enumerate(pivot_cols):
            solution[col] = a[r][n_cols]
        return LinearSolveReport(status="unique", **dict(report, solution=tuple(solution)))
    undetermined = set(free_cols)
    for r, col in enumerate(pivot_cols):
        if any(a[r][f] != 0 for f in free_cols):
            undetermined.add(col)
    return LinearSolveReport(
        status="underdetermined",
        **dict(report, undetermined_columns=tuple(sorted(undetermined))),
    )


def recip_factorial_rows(ctx, exponents):
    """The Harris-Tu matrix [1/(b + e_j - j + l)!] of a Chern-root exponent
    vector, b = g - d + r; entries with a negative argument are 0."""
    def entry(m):
        return Fraction(1, math.factorial(m)) if m >= 0 else Fraction(0)

    base = ctx.g - ctx.d + ctx.r
    n = ctx.r + 1
    return [[entry(base + exponents[j] - j + l) for l in range(n)] for j in range(n)]


def root_monomial_value(ctx, exponents, theta_power):
    """Integral of eta * theta^a * x^e over curve x W^r_d: g! times the
    Harris-Tu determinant when the theta degrees add up to g, else 0."""
    b = ctx.g - ctx.d + ctx.r
    if (ctx.r + 1) * b + sum(exponents) + theta_power != ctx.g:
        return Fraction(0)
    # top! clears every denominator, so the expansion runs over ints
    top = math.factorial(b + max(exponents) + ctx.r)
    integral = [[top // math.factorial(m) if m >= 0 else 0
                 for m in (b + exponents[j] - j + l for l in range(ctx.r + 1))]
                for j in range(ctx.r + 1)]
    return Fraction(laplace_det(integral) * math.factorial(ctx.g), top ** (ctx.r + 1))


def _bareiss_entry(head, entry, lead, pivot_row_entry, previous):
    """(head*entry - lead*pivot_row_entry) / previous modulo t^(order+1).

    The quotient is integral (it is a minor), and previous[0] != 0 makes
    the truncated series division unique."""
    out = []
    p0 = previous[0]
    for s in range(len(entry)):
        acc = 0
        for u in range(s + 1):
            acc += head[u] * entry[s - u] - lead[u] * pivot_row_entry[s - u]
        for u in range(1, s + 1):
            acc -= previous[u] * out[s - u]
        quotient, remainder = divmod(acc, p0)
        if remainder:
            raise ArithmeticError("inexact division in the series determinant")
        out.append(quotient)
    return out


def series_det(rows, order):
    """Determinant of a square matrix of integer power series in t, modulo
    t^(order+1), as the coefficient list [d_0, ..., d_order].

    Each entry is a coefficient list, constant term first; missing high
    coefficients are 0.  Fraction-free Bareiss elimination over
    Z[t]/(t^(order+1)): every intermediate entry is a minor of the matrix,
    and each division is by the previous pivot, whose constant term is
    nonzero, so the truncated quotient is exact and integral.  The matrix of
    constant terms must be nonsingular (it is what the pivots are chosen
    from); PreconditionError otherwise.
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


def _c1_power_value(base, exponents, n):
    """L(p_1^n x^e) for the Harris-Tu functional L, p_1 = x_1 + ... + x_{r+1}.

    The determinant is multilinear in its rows and row j depends on x_j
    alone, so p_1^n = n! [t^n] prod_j exp(t x_j) gives n! [t^n] of
    det[ sum_s t^s/s! * 1/(b + e_j - j + s + l)! ], with every entry scaled
    by S = n! top! to an integer.  The series matrix is the product of
    [t^(m - c_j)/(m - c_j)!]_(j,m) and [1/(m + l)!]_(m,l), c_j = b + e_j - j,
    so by Cauchy-Binet its determinant sums, over sets of r+1 values m (the
    shapes), a minor of the second factor (L of the shape) times one of the
    first (its skew-tableau count over n!): the Pieri sum, taken without
    listing the shapes."""
    rows = len(exponents)
    if len({e - j for j, e in enumerate(exponents)}) < rows:
        return Fraction(0)  # row j depends on e_j - j alone: two equal rows
    top = base + max(exponents) + rows - 1 + n
    scale = math.factorial(n) * math.factorial(top)

    def entry(m, s):
        return scale // (math.factorial(s) * math.factorial(m)) if m >= 0 else 0

    matrix = [[[entry(base + exponents[j] - j + l + s, s) for s in range(n + 1)]
               for l in range(rows)] for j in range(rows)]
    return Fraction(math.factorial(n) * series_det(matrix, n)[n], scale ** rows)


def generating_function_value(ctx, elem):
    """Integral of a k-free class over curve x W^r_d by the generating
    function of c_1: c_2..c_{r+1} are expanded into Chern-root monomials
    x^e (``expand_c_monomial``), and c_1^n x^e integrates to g! times
    ``_c1_power_value``, one series determinant per root monomial."""
    names = elem.preset.names
    base = ctx.g - ctx.d + ctx.r
    total = Fraction(0)
    for mono, coeff in elem.terms:
        exps = dict(zip(names, mono))
        if exps["k"]:
            raise PreconditionError("the generating-function oracle takes k-free classes")
        if exps["gamma"] or exps["eta"] != 1:
            continue
        others = (0,) + tuple(exps[f"c{i}"] for i in range(2, ctx.r + 2))
        for root, mult in expand_c_monomial(ctx, others).items():
            total += coeff * mult * _c1_power_value(base, root, exps["c1"])
    return total * math.factorial(ctx.g)


def poly_mul(a, b):
    """Multiply sparse integer-keyed polynomials {exponent-tuple: coeff}."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def poly_pow(a, n, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def expand_c_monomial(ctx, c_exponents):
    """Expand prod_k e_k(x_1..x_{r+1})^{m_k} into Chern-root monomials.

    ``c_exponents`` lists the multiplicity of each elementary symmetric
    class starting from e_1; shorter tuples are padded with zeros.
    """
    n = ctx.r + 1
    exps = tuple(c_exponents)
    if len(exps) > n:
        raise PreconditionError(f"at most {n} Chern classes exist in this context")
    out = {(0,) * n: 1}
    for k, mult in enumerate(exps, start=1):
        e_k = {tuple(int(i in combo) for i in range(n)): 1 for combo in combinations(range(n), k)}
        for _ in range(mult):
            out = poly_mul(out, e_k)
    return out


def root_expansion_value(ctx, elem):
    """Integral of a k-free class over curve x W^r_d by the Chern-root
    expansion: every c-monomial is expanded into root monomials and each
    one is evaluated by its own Harris-Tu determinant
    (``root_monomial_value``)."""
    names = elem.preset.names
    c_names = [f"c{i}" for i in range(1, ctx.r + 2)]
    values = {}
    total = Fraction(0)
    for mono, coeff in elem.terms:
        exps = dict(zip(names, mono))
        if exps["k"]:
            raise PreconditionError("the root-expansion oracle takes k-free classes")
        if exps["gamma"] or exps["eta"] != 1:
            continue
        c_exps = tuple(exps[name] for name in c_names)
        for root, mult in expand_c_monomial(ctx, c_exps).items():
            key = (root, exps["theta"])
            if key not in values:
                values[key] = root_monomial_value(ctx, root, exps["theta"])
            total += coeff * mult * values[key]
    return total


JACOBIAN_RELATIONS = (
    # (lhs, rhs): a monomial divisible by lhs becomes sum coeff * (mono / lhs * rhs_mono)
    ({"eta": 2}, ()),
    ({"eta": 1, "gamma": 1}, ()),
    ({"gamma": 2}, (({"eta": 1, "theta": 1}, -2),)),
)


def jacobian_normal_form(preset, mono, coeff):
    """Normal form of ``coeff * mono`` on a Jacobian preset, as a dict: the
    relations eta^2 = 0, eta*gamma = 0 and gamma^2 = -2*eta*theta are
    rewritten until none applies, then every monomial whose eta, gamma,
    theta degree exceeds g + 1 is dropped."""
    names = preset.names
    top = preset.param("g") + 1
    out = {}
    pending = [(dict(zip(names, mono)), Fraction(coeff))]
    while pending:
        exps, c = pending.pop()
        for lhs, rhs in JACOBIAN_RELATIONS:
            if all(exps[name] >= e for name, e in lhs.items()):
                for shift, scale in rhs:
                    new = dict(exps)
                    for name, e in lhs.items():
                        new[name] -= e
                    for name, e in shift.items():
                        new[name] += e
                    pending.append((new, c * scale))
                break
        else:
            if exps["eta"] + exps["gamma"] + exps["theta"] <= top:
                key = tuple(exps[name] for name in names)
                out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# The ring with one Fraction per coefficient
# ---------------------------------------------------------------------------
# A model element is a dict {monomial: nonzero Fraction} over a preset.

def model_normalize(preset, raw):
    """Sum (monomial, coefficient) pairs into a model element: Jacobian
    monomials through ``jacobian_normal_form``, other presets truncated
    above their top degree."""
    out = {}
    for mono, coeff in raw:
        if preset.kind == "jacobian":
            pieces = jacobian_normal_form(preset, mono, coeff).items()
        elif preset.top_degree is None or preset.monomial_degree(mono) <= preset.top_degree:
            pieces = [(mono, Fraction(coeff))]
        else:
            pieces = []
        for m, c in pieces:
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def model_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def model_scale(a, scalar):
    return {m: scalar * c for m, c in a.items() if scalar}


def model_mul(preset, a, b):
    return model_normalize(preset, [
        (tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
        for m1, c1 in a.items() for m2, c2 in b.items()
    ])


def model_pow(preset, a, n):
    """``a`` to the ``n``-th power by n - 1 plain products."""
    out = model_normalize(preset, [((0,) * len(preset.names), 1)])
    for _ in range(n):
        out = model_mul(preset, out, a)
    return out


def model_split_kernel(preset, a):
    """(k-free part, k-linear part with k stripped) of a model element
    without k^2: the reference for ``bn.split_kernel_class``."""
    k = preset.names.index("k")
    free = {m: c for m, c in a.items() if m[k] == 0}
    linear = {m[:k] + (0,) + m[k + 1:]: c for m, c in a.items() if m[k] == 1}
    assert len(free) + len(linear) == len(a), "a k^2 term has no split"
    return free, linear


def model_homogeneous_part(preset, a, degree):
    return {m: c for m, c in a.items() if preset.monomial_degree(m) == degree}


def model_terms(a):
    """The (monomial, Fraction) pairs in decreasing monomial order."""
    return tuple(sorted(a.items(), reverse=True))


def _monomial_text(preset, mono):
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(preset.names, mono) if e)


def _magnitude_text(value, body):
    text = str(value)
    if not body:
        return text
    return body if value == 1 else f"{text}*{body}"


def model_render(preset, a):
    """The CLI rendering: terms in decreasing monomial order, the first with
    its sign, each later one after " + " or " - "."""
    terms = model_terms(a)
    if not terms:
        return "0"
    (mono, coeff), rest = terms[0], terms[1:]
    body = _monomial_text(preset, mono)
    out = "-1*" + body if coeff == -1 and body else _magnitude_text(coeff, body)
    for mono, coeff in rest:
        out += (" + " if coeff > 0 else " - ") + _magnitude_text(abs(coeff), _monomial_text(preset, mono))
    return out
