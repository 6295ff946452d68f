"""Independent oracles shared by the test suite.

Everything here is deliberately written against the naive definition
(permutation sums, raw polynomial dictionaries) rather than reusing the
package's algorithms, so that agreement is meaningful.  The Chern-root
oracle evaluates each root monomial with the package's single-determinant
``ht_value`` (itself checked against ``laplace_det``) and shares nothing
with the evaluators' generating-function core.
"""
from fractions import Fraction
from itertools import combinations, permutations

from oddspin.bn import HTQuery, ht_value
from oddspin.errors import PreconditionError


def laplace_det(rows):
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the parity
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        if inversions % 2:
            sign = -1
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]])
        total += sign * prod
    return total


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
    one is evaluated by its own Harris-Tu determinant (``ht_value``)."""
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
                values[key] = ht_value(ctx, HTQuery(root, exps["theta"], True),
                                       _in_symmetric_sum=True)
            total += coeff * mult * values[key]
    return total
