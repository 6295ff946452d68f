"""Exact oracles for the benchmark, written from the mathematics and not
from the engine: they import nothing from ``oddspin``, so an engine defect
cannot hide in the value it is compared against.

Sources: the ACGH count of a Brill-Noether locus (Arbarello, Cornalba,
Griffiths, Harris, *Geometry of Algebraic Curves I*, Ch. VII-VIII), the
Harris-Tu determinant read row by row as a generating function, the
Harris-Mumford canonical class of the moduli of curves, and the class
formulas of the paper (PAPER.md).
"""
from __future__ import annotations

import math
from fractions import Fraction


def fmt(value) -> str:
    """The engine's report spelling of an exact rational: "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rho(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


# ---------------------------------------------------------------------------
# Brill-Noether ladder
# ---------------------------------------------------------------------------

def acgh_eta_theta(g: int, r: int, d: int) -> Fraction:
    """Integral of eta*theta^rho over curve x W^r_d:
    g! * prod_{i=0..r} i! / (g-d+r+i)!."""
    value = Fraction(math.factorial(g))
    for i in range(r + 1):
        value *= Fraction(math.factorial(i), math.factorial(g - d + r + i))
    return value


def _series_mul(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def _series_det(matrix: list, order: int) -> list:
    """Determinant of a square matrix of integer power series truncated
    above ``order``, by Laplace expansion memoised over the used columns."""
    n = len(matrix)
    memo = {}

    def minor(row: int, used: int) -> list:
        if row == n:
            return [1] + [0] * order
        if used in memo:
            return memo[used]
        total = [0] * (order + 1)
        free = 0
        for col in range(n):
            if used >> col & 1:
                continue
            term = _series_mul(matrix[row][col], minor(row + 1, used | 1 << col), order)
            sign = -1 if free % 2 else 1
            total = [t + sign * x for t, x in zip(total, term)]
            free += 1
        memo[used] = total
        return total

    return minor(0, 0)


def _root_sum(g: int, r: int, d: int, m: int, shifted_row: int | None) -> Fraction:
    """g! * sum over root exponents e with |e| = m of m!/prod(e_j!) times the
    Harris-Tu determinant det[1/(b + e_j - j + l)!], where row
    ``shifted_row`` (if any) carries an extra x_j^2.

    Each row depends on one root only, so the sum is m! [t^m] of a single
    determinant whose row j holds the series sum_e t^e / (e! (b_j+e+l)!).
    Row j is scaled by K_j = m! (b_j+m+r)! to make every entry an integer.
    """
    n = r + 1
    fact = math.factorial
    matrix, scale = [], 1
    for j in range(n):
        b_j = g + r - d + (2 if j == shifted_row else 0) - j
        k_j = fact(m) * fact(max(b_j + m + r, 0))
        matrix.append([
            [k_j // (fact(e) * fact(b_j + e + l)) if b_j + e + l >= 0 else 0
             for e in range(m + 1)]
            for l in range(n)
        ])
        scale *= k_j
    return Fraction(fact(g) * fact(m) * _series_det(matrix, m)[m], scale)


def ladder_value(g: int, r: int, d: int, integrand: str) -> Fraction:
    """Exact integral of a ladder integrand over curve x W^r_d.

    ``theta`` is eta*theta^rho, ``c1`` is eta*c1^rho and ``c2c1`` is
    eta*c2*c1^(rho-2), with c_i the elementary symmetric functions of the
    Chern roots.  For c2c1 the identity e_2 = (e_1^2 - p_2)/2 reduces the
    integrand to e_1^rho and x_j^2 * e_1^(rho-2) summed over the roots.
    """
    m = rho(g, r, d)
    if integrand == "theta":
        return acgh_eta_theta(g, r, d)
    if integrand == "c1":
        return _root_sum(g, r, d, m, None)
    if integrand == "c2c1":
        power_sum = sum(_root_sum(g, r, d, m - 2, j) for j in range(r + 1))
        return (_root_sum(g, r, d, m, None) - power_sum) / 2
    raise ValueError(f"unknown ladder integrand {integrand!r}")


# ---------------------------------------------------------------------------
# Ring presets: normal forms and integrals
# ---------------------------------------------------------------------------

JAC_NAMES = ("eta", "gamma", "theta")
SURFACE_NAMES = ("F1", "F2", "Delta")
UC_NAMES = ("omega", "lambda")


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {k: v for k, v in out.items() if v}


def linear(coeffs) -> dict:
    """The linear form sum coeffs[i] * x_i as a polynomial dictionary."""
    n = len(coeffs)
    return {
        tuple(int(i == j) for j in range(n)): Fraction(c)
        for i, c in enumerate(coeffs) if c
    }


def jac_reduce(poly: dict, g: int) -> dict:
    """Normal form on curve x Jacobian in (eta, gamma, theta): eta^2 = 0,
    eta*gamma = 0, gamma^2 = -2*eta*theta, and monomials of degree above
    g+1 dropped."""
    out: dict = {}
    for (a, b, c), coeff in poly.items():
        while b >= 2:
            a, b, c, coeff = a + 1, b - 2, c + 1, -2 * coeff
        if a >= 2 or (a and b) or a + b + c > g + 1:
            continue
        out[(a, b, c)] = out.get((a, b, c), 0) + coeff
    return {k: v for k, v in out.items() if v}


def surface_reduce(poly: dict) -> dict:
    return {m: c for m, c in poly.items() if sum(m) <= 2}


def jac_integral(forms, g: int) -> Fraction:
    """Integral of a product of g+1 linear forms a*eta + b*gamma + c*theta:
    g! * (sum_i a_i prod_{j!=i} c_j - 2 sum_{i<j} b_i b_j prod_{k!=i,j} c_k)."""
    total = Fraction(0)
    n = len(forms)
    for i in range(n):
        total += forms[i][0] * math.prod(forms[j][2] for j in range(n) if j != i)
        for j in range(i + 1, n):
            total -= 2 * forms[i][1] * forms[j][1] * math.prod(
                forms[k][2] for k in range(n) if k not in (i, j)
            )
    return math.factorial(g) * total


def surface_pairing(u, v, g: int) -> Fraction:
    """Intersection of two curve classes on C x C in the basis F1, F2,
    Delta: F1.F2 = Delta.F1 = Delta.F2 = 1, F1^2 = F2^2 = 0,
    Delta^2 = 2 - 2g."""
    table = ((0, 1, 1), (1, 0, 1), (1, 1, 2 - 2 * g))
    return sum(
        (Fraction(u[i]) * v[j] * table[i][j] for i in range(3) for j in range(3)),
        Fraction(0),
    )


def uc_pushforward(poly: dict, g: int) -> Fraction:
    """Lambda coefficient of the push-forward of a fibre-degree-2 class on
    the universal curve: omega^2 -> 12, omega*lambda -> 2g-2, lambda^2 -> 0."""
    rules = {(2, 0): 12, (1, 1): 2 * g - 2, (0, 2): 0}
    return sum((c * rules[m] for m, c in poly.items()), Fraction(0))


def parse_rendered(text: str, names) -> dict:
    """Read the engine's rendering of a normal form ("3*eta*theta^2 - 2")
    back into a polynomial dictionary over ``names``."""
    if text == "0":
        return {}
    poly: dict = {}
    for sign, body in _signed_terms(text):
        coeff = Fraction(sign)
        mono = [0] * len(names)
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name in names:
                mono[names.index(name)] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        poly[tuple(mono)] = poly.get(tuple(mono), 0) + coeff
    return poly


def _signed_terms(text: str):
    sign, start = 1, 0
    for i in range(1, len(text) - 2):
        if text[i] == " " and text[i + 1] in "+-" and text[i + 2] == " ":
            yield sign, text[start:i]
            sign, start = (1 if text[i + 1] == "+" else -1), i + 3
    yield sign, text[start:]


# ---------------------------------------------------------------------------
# Picard-group classes and numbers from the paper's closed forms
# ---------------------------------------------------------------------------

def n_even(g: int) -> int:
    return 2 ** (g - 1) * (2 ** g + 1)


def n_odd(g: int) -> int:
    return 2 ** (g - 1) * (2 ** g - 1)


def boundary_degrees(g: int, i: int) -> tuple[int, int]:
    """Degrees of the spin boundary components A_i, B_i over delta_i.

    For i >= 1 they count theta-characteristics of odd total parity on the
    two sides of the node: (odd, even) for A_i and (even, odd) for B_i.
    Over delta_0, A_0 collects the 2^(2g-2) square roots of the twisted
    canonical bundle and B_0 the odd ones of the genus g-1 normalisation.
    """
    if i == 0:
        return 2 ** (2 * g - 2), n_odd(g - 1)
    return n_odd(i) * n_even(g - i), n_even(i) * n_odd(g - i)


def spin_names(g: int) -> list[str]:
    m = g // 2
    return ["lambda"] + [f"alpha{i}" for i in range(m + 1)] + [f"beta{i}" for i in range(m + 1)]


def moduli_names(g: int) -> list[str]:
    return ["lambda"] + [f"delta{i}" for i in range(g // 2 + 1)]


def zg_class(g: int) -> dict:
    """(g+8) lambda - (g+2)/4 alpha0 - 2 beta0 - sum 2(g-i) alpha_i - sum 2i beta_i."""
    out = {"lambda": Fraction(g + 8), "alpha0": -Fraction(g + 2, 4), "beta0": Fraction(-2)}
    for i in range(1, g // 2 + 1):
        out[f"alpha{i}"] = Fraction(-2 * (g - i))
        out[f"beta{i}"] = Fraction(-2 * i)
    return out


def moduli_canonical(g: int) -> dict:
    """Harris-Mumford: 13 lambda - 2 delta0 - 3 delta1 - 2 sum_{i>=2} delta_i."""
    out = {"lambda": Fraction(13), "delta0": Fraction(-2), "delta1": Fraction(-3)}
    for i in range(2, g // 2 + 1):
        out[f"delta{i}"] = Fraction(-2)
    return out


def spin_canonical(g: int) -> dict:
    """Pullback of the moduli canonical class plus the branch divisor beta0."""
    out = pullback(g, moduli_canonical(g))
    out["beta0"] += 1
    return out


def bn_class(g: int) -> dict:
    """(g+3) lambda - (g+1)/6 delta0 - sum i(g-i) delta_i."""
    out = {"lambda": Fraction(g + 3), "delta0": -Fraction(g + 1, 6)}
    for i in range(1, g // 2 + 1):
        out[f"delta{i}"] = Fraction(-i * (g - i))
    return out


def pullback(g: int, cls: dict) -> dict:
    """lambda -> lambda, delta0 -> alpha0 + 2 beta0, delta_i -> alpha_i + beta_i."""
    out = {"lambda": cls["lambda"], "alpha0": cls["delta0"], "beta0": 2 * cls["delta0"]}
    for i in range(1, g // 2 + 1):
        out[f"alpha{i}"] = out[f"beta{i}"] = cls[f"delta{i}"]
    return out


def pushforward(g: int, cls: dict) -> dict:
    """Push a spin class to the moduli basis through the covering degrees."""
    out = {"lambda": n_odd(g) * cls["lambda"]}
    for i in range(g // 2 + 1):
        deg_a, deg_b = boundary_degrees(g, i)
        out[f"delta{i}"] = deg_a * cls[f"alpha{i}"] + deg_b * cls[f"beta{i}"]
    return out


def bn_certificate(g: int) -> dict:
    """K_spin = mu lambda + x Z_g + y pullback(BN) + slack, with the paper's
    weights x = 2/(g-2), y = 3(3g-10)/((g-2)(g+1)); mu = (2g-24)/(g+1)."""
    x = Fraction(2, g - 2)
    y = Fraction(3 * (3 * g - 10), (g - 2) * (g + 1))
    zg, aux, canon = zg_class(g), pullback(g, bn_class(g)), spin_canonical(g)
    residual = {n: canon[n] - x * zg[n] - y * aux[n] for n in spin_names(g)}
    mu = residual.pop("lambda")
    return {"mu": mu, "x": x, "y": y, "slacks": residual}


def is_composite(n: int) -> bool:
    return n >= 4 and any(n % k == 0 for k in range(2, math.isqrt(n) + 1))


MUKAI_DIMENSIONS = {7: 10, 8: 8, 9: 6, 10: 5}
