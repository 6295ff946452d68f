"""The benchmark's three workloads as plain operation lists.

Building a workload imports nothing from ``oddspin``: an operation only
names what to call and what the exact answer must be.  ``worker.py`` runs
the operations against the engine; the oracles in ``oracles.py`` supply
every expected value that is not one of the paper's recorded goldens.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles as o

# sha256 of the JSON stdout of the session commands, concatenated in the
# order ``session_ops`` lists them.  Guards the byte-identical-report promise.
SESSION_SHA256 = "cc9490183e2bf52cab10a0ed16053091a81171786690f37382b467a63af42580"

# The Brill-Noether ladder (g, r, d); the first two rungs have h^1 = 1.
LADDER = ((11, 4, 14), (12, 5, 16), (16, 3, 17), (20, 4, 21),
          (24, 5, 26), (24, 7, 29), (30, 5, 32))
H1_RUNGS = ((11, 4, 14), (12, 5, 16))
INTEGRANDS = ("theta", "c1", "c2c1")
# The two top rungs evaluate eta*theta^rho only.  eta*c1^rho alone takes
# 3-4 s there (6435 and 6188 Chern-root monomials): the host's speed,
# timed before and after each call (hostspeed.py), changes within a call
# that long, and a run would hold only a handful of repetitions.
THETA_ONLY = ((24, 7, 29), (30, 5, 32))


def _lookup(result, path: str):
    for key in path.split("."):
        result = result[key]
    return result


@dataclass(frozen=True)
class CliOp:
    """One ``oddspin`` command line, run in-process with ``--format json``.

    ``expected`` maps dotted paths into the report's ``result`` to their
    exact JSON values.  ``normal_form`` is an optional (names, polynomial)
    pair that the report's ``normalized`` rendering must equal.
    """

    argv: tuple[str, ...]
    exit_code: int = 0
    expected: dict = field(default_factory=dict)
    normal_form: tuple | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def run(self, oddspin):
        return oddspin.cli.run_command([*self.argv, "--format", "json"])

    def check(self, outcome) -> str | None:
        if outcome.exit_code != self.exit_code:
            return f"exit {outcome.exit_code}, expected {self.exit_code}: {outcome.stderr}"
        if self.exit_code != 0:
            return None
        result = json.loads(outcome.stdout)["result"]
        for path, want in self.expected.items():
            got = _lookup(result, path)
            if got != want:
                return f"{path} = {got!r}, expected {want!r}"
        if self.normal_form is not None:
            names, want = self.normal_form
            got = o.parse_rendered(result["normalized"], names)
            if got != want:
                return f"normal form {result['normalized']!r} differs from the oracle"
        return None


@dataclass(frozen=True)
class TautOp:
    """One Brill-Noether evaluation on a fresh context, checked against the
    oracle value of ``oracles.ladder_value``."""

    evaluator: str
    g: int
    r: int
    d: int
    integrand: str

    @property
    def label(self) -> str:
        return f"{self.evaluator} {self.integrand} ({self.g},{self.r},{self.d})"

    def run(self, oddspin):
        bn = oddspin.bn
        ctx = bn.bn_context(self.g, self.r, self.d)
        p = ctx.preset
        eta, c1 = p.gen("eta"), p.gen("c1")
        if self.integrand == "theta":
            elem = eta * p.gen("theta") ** ctx.rho
        elif self.integrand == "c1":
            elem = eta * c1 ** ctx.rho
        else:
            elem = eta * p.gen("c2") * c1 ** (ctx.rho - 2)
        return getattr(bn, self.evaluator)(ctx, elem)

    def check(self, value) -> str | None:
        want = o.ladder_value(self.g, self.r, self.d, self.integrand)
        if value != want:
            return f"value {value}, expected {want}"
        return None


@dataclass(frozen=True)
class Workload:
    """Operations in a canonical order, the seeded order they run in, and,
    for ``session``, the digest of their concatenated stdout."""

    name: str
    ops: tuple
    order: tuple[int, ...]
    digest: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.ops) + (self.digest is not None)


# ---------------------------------------------------------------------------
# session: the paper-reproduction command set
# ---------------------------------------------------------------------------

def _by_name(cls: dict, names) -> dict:
    return {name: o.fmt(cls.get(name, 0)) for name in names}


def _numbers_expected(g: int) -> dict:
    pencil = {"lambda": g + 1, "alpha0": 4 * g + 20, "beta0": g - 1}
    canonical = o.spin_canonical(g)
    pairing = sum(v * canonical[name] for name, v in pencil.items())
    mukai = None
    if g in o.MUKAI_DIMENSIONS:
        dim_v = o.MUKAI_DIMENSIONS[g]
        mukai = {"dim_v": dim_v, "n_g": g + dim_v - 2, "max_delta_dominant": dim_v - 1}
    return {
        "spin_counts": {"even": o.n_even(g), "odd": o.n_odd(g),
                        "total": o.n_even(g) + o.n_odd(g)},
        "covering_degree": o.n_odd(g),
        "boundary_degrees": {
            str(i): dict(zip("AB", o.boundary_degrees(g, i))) for i in range(g // 2 + 1)
        },
        "scorza_genus": 3 * g * (g - 1) + 1,
        "theta_pencil.pairings": {name: o.fmt(v) for name, v in pencil.items()},
        "theta_pencil.canonical_pairing": o.fmt(pairing),
        "theta_pencil.canonical_negative": pairing < 0,
        "theta_pencil.discriminant_degree": 6 * g + 18,
        "theta_pencil.decomposition_ok": True,
        "brill_noether_divisor_exists": o.is_composite(g + 1),
        "mukai": mukai,
    }


def _cert_bn_expected(g: int) -> dict:
    cert = o.bn_certificate(g)
    passed = cert["mu"] > 0 and all(v >= 0 for v in cert["slacks"].values())
    return {
        "mu": o.fmt(Fraction(2 * g - 24, g + 1)),
        "weights": {"zg": o.fmt(cert["x"]), "aux": o.fmt(cert["y"])},
        "slacks": _by_name({"lambda": 0, **cert["slacks"]}, o.spin_names(g)),
        "verdict": "pass" if passed else "fail",
    }


# The paper's genus-12 goldens: the divisor 13245 lambda - 1926 delta0 -
# 9867 delta1 - ..., the two side totals, and mu = 77/1284.
D12_A, D12_B0, D12_B1 = 13245, 1926, 9867
D12_SLOPE = Fraction(D12_A, D12_B0)
D12_THRESHOLD = 6 + Fraction(12, 13)
D12_EXPECTED = {
    "a": o.fmt(D12_A),
    "b0": o.fmt(D12_B0),
    "b1": o.fmt(D12_B1),
    "slope": o.fmt(D12_SLOPE),
    "threshold": o.fmt(D12_THRESHOLD),
    "violates_slope_conjecture": D12_SLOPE < D12_THRESHOLD,
    "cross_multiplication": {
        "slope_times_13": str(D12_SLOPE.numerator * D12_THRESHOLD.denominator),
        "threshold_times_642": str(D12_THRESHOLD.numerator * D12_SLOPE.denominator),
    },
}


def session_ops() -> list:
    """About 130 commands, in the order their stdout is digested."""
    d12_class = {"lambda": D12_A, "delta0": -D12_B0}
    d12_class.update({f"delta{j}": -D12_B1 for j in range(1, 7)})
    ops = [
        CliOp(("d12", "run"), expected=D12_EXPECTED),
        CliOp(("d12", "run", "--dump-intermediates"), expected={
            **D12_EXPECTED,
            "intermediates.total_x": "197340",
            "intermediates.total_y": "32505",
        }),
        CliOp(("cert", "--g", "12", "--aux", "d12"),
              expected={"mu": "77/1284", "verdict": "pass"}),
        CliOp(("pic", "class", "--g", "12", "--name", "d12"), expected={
            "coefficients": _by_name(d12_class, o.moduli_names(12)),
            "slope": o.fmt(D12_SLOPE),
        }),
    ]
    ops += [CliOp(("cert", "--g", str(g), "--aux", "bn"), expected=_cert_bn_expected(g))
            for g in range(13, 31)]
    ops += [
        CliOp(("pic", "solve-zg", "--g", str(g)), expected={
            "coefficients": _by_name(o.zg_class(g), o.spin_names(g)),
            "matches_closed_form": True,
            "degenerate": g == 5,
            "full_rank": g != 5,
            "fallback_consistent": True,
        })
        for g in range(3, 41)
    ]
    ops += [CliOp(("numbers", "--g", str(g)), expected=_numbers_expected(g))
            for g in range(3, 31)]
    for g in range(3, 23):
        pushed = o.pushforward(g, o.zg_class(g))
        pulled = o.pullback(g, o.moduli_canonical(g))
        ops.append(CliOp(("pic", "push", "--g", str(g), "--class", "zg"),
                         expected={"coefficients": _by_name(pushed, o.moduli_names(g))}))
        ops.append(CliOp(("pic", "pull", "--g", str(g), "--class", "k"),
                         expected={"coefficients": _by_name(pulled, o.spin_names(g))}))
    ops += [
        CliOp(("ring", "eval", "--preset", "jac:g=11,d=14,r=4", "eta*theta^6"), expected={
            "value": o.fmt(o.acgh_eta_theta(11, 4, 14)),
            "value_method": "tautological-evaluation",
        }),
        CliOp(("ring", "eval", "--preset", "surface:g=3", "Delta^2"), expected={
            "value": o.fmt(o.surface_pairing((0, 0, 1), (0, 0, 1), 3)),
            "value_method": "integrate",
        }),
        CliOp(("ring", "eval", "--preset", "uc:g=5",
               "3/4*omega^2 - 2*omega*(-1/4*lambda)"), expected={
            "value": o.fmt(o.uc_pushforward({(2, 0): Fraction(3, 4), (1, 1): Fraction(1, 2)}, 5)),
            "value_method": "relative-pushforward (lambda coefficient)",
        }),
    ]
    return ops


# ---------------------------------------------------------------------------
# bn_ladder: Brill-Noether evaluations called directly
# ---------------------------------------------------------------------------

def ladder_ops(rungs) -> list:
    ops = []
    for g, r, d in rungs:
        integrands = ("theta",) if (g, r, d) in THETA_ONLY else INTEGRANDS
        ops += [TautOp("evaluate_taut", g, r, d, i) for i in integrands]
        if (g, r, d) in H1_RUNGS:
            ops += [TautOp("evaluate_taut_recursion", g, r, d, i) for i in INTEGRANDS]
    return ops


# ---------------------------------------------------------------------------
# ring_fuzz: generated ring eval commands
# ---------------------------------------------------------------------------

RING_FUZZ_COUNTS = {"jac_top": 80, "surface": 30, "uc": 30, "normalise": 40, "refused": 20}

MALFORMED = ("eta*+theta", "theta^", "(eta + theta", "eta $ theta", "theta^-1",
             "eta theta", "1/0*eta", "-eta", "eta)", "")


def _signed(terms) -> str:
    """Render [(coeff, name), ...] in the CLI grammar, e.g. "2*eta - gamma"."""
    out = []
    for coeff, name in terms:
        coeff = Fraction(coeff)
        if not coeff:
            continue
        mag = abs(coeff)
        body = name if mag == 1 else f"{o.fmt(mag)}*{name}"
        if not out:
            out.append(body if coeff > 0 else f"-{o.fmt(mag)}*{name}")
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out) or "0"


def _product(forms, names) -> str:
    """Render a product of linear forms; a run of equal forms is a power."""
    factors, i = [], 0
    while i < len(forms):
        j = i
        while j < len(forms) and forms[j] == forms[i]:
            j += 1
        factor = f"({_signed(zip(forms[i], names))})"
        factors.append(factor if j - i == 1 else f"{factor}^{j - i}")
        i = j
    return "*".join(factors)


def _coeff(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))
        if value or not nonzero:
            return value


def _poly_of(forms, reduce=dict) -> dict:
    """The product of linear forms, reduced after every factor."""
    poly = {(0,) * len(forms[0]): Fraction(1)}
    for f in forms:
        poly = reduce(o.poly_mul(poly, o.linear(f)))
    return poly


def _jac_preset(rng: random.Random) -> tuple[int, int, int]:
    # g - d + r in 1..g, so rho != g and the evaluator of bn stays idle
    g = rng.randint(3, 12)
    r = rng.randint(0, 3)
    d = rng.randint(r, g + r - 1)
    return g, d, r


def _ring_op(preset: str, expr: str, names, poly: dict, value, method) -> CliOp:
    degrees = {sum(m) for m in poly}
    return CliOp(
        ("ring", "eval", "--preset", preset, expr),
        expected={
            "degree": degrees.pop() if len(degrees) == 1 else None,
            "value": None if value is None or not poly else o.fmt(value),
            "value_method": method if value is not None and poly else None,
        },
        normal_form=(names, poly),
    )


def _jac_top(rng: random.Random) -> CliOp:
    g, d, r = _jac_preset(rng)
    forms = []
    while len(forms) < g + 1:
        form = (_coeff(rng), _coeff(rng), _coeff(rng, nonzero=True))
        forms += [form] * min(rng.choice((1, 1, 2, 3)), g + 1 - len(forms))
    poly = _poly_of(forms, lambda p: o.jac_reduce(p, g))
    return _ring_op(f"jac:g={g},d={d},r={r}", _product(forms, o.JAC_NAMES), o.JAC_NAMES,
                    poly, o.jac_integral(forms, g), "integrate")


def _surface(rng: random.Random) -> CliOp:
    g = rng.randint(2, 20)
    u, v = ([_coeff(rng) for _ in range(2)] + [_coeff(rng, nonzero=True)] for _ in range(2))
    v = u if rng.random() < 0.25 else v
    poly = _poly_of([u, v])
    return _ring_op(f"surface:g={g}", _product([u, v], o.SURFACE_NAMES), o.SURFACE_NAMES,
                    poly, o.surface_pairing(u, v, g), "integrate")


def _uc(rng: random.Random) -> CliOp:
    g = rng.randint(2, 20)
    u, v = ([_coeff(rng, nonzero=True), _coeff(rng)] for _ in range(2))
    v = u if rng.random() < 0.25 else v
    poly = _poly_of([u, v])
    return _ring_op(f"uc:g={g}", _product([u, v], o.UC_NAMES), o.UC_NAMES, poly,
                    o.uc_pushforward(poly, g), "relative-pushforward (lambda coefficient)")


def _normalise(rng: random.Random) -> CliOp:
    """A sum of two products of different or off-top degree: only normalised."""
    kind = rng.choice(("jac", "jac", "surface", "uc"))
    if kind == "jac":
        g, d, r = _jac_preset(rng)
        names, preset = o.JAC_NAMES, f"jac:g={g},d={d},r={r}"
        skip = {g + 1, o.rho(g, r, d) + 1}
        degrees = [k for k in range(1, g + 3) if k not in skip]
        reduce = lambda p: o.jac_reduce(p, g)  # noqa: E731
    elif kind == "surface":
        names, preset = o.SURFACE_NAMES, f"surface:g={rng.randint(2, 20)}"
        degrees, reduce = [1, 3], o.surface_reduce
    else:
        names, preset = o.UC_NAMES, f"uc:g={rng.randint(2, 20)}"
        degrees, reduce = [1, 3], dict
    parts, poly = [], {}
    for k in (rng.choice(degrees), rng.choice(degrees)):
        forms = [[_coeff(rng) for _ in names[:-1]] + [_coeff(rng, nonzero=True)]
                 for _ in range(k)]
        parts.append(_product(forms, names))
        poly = o.poly_add(poly, _poly_of(forms, reduce))
    return _ring_op(preset, " + ".join(parts), names, poly, None, None)


def _refused(rng: random.Random) -> CliOp:
    choice = rng.randrange(4)
    if choice == 0:
        return CliOp(("ring", "eval", "--preset", "jac:g=5,d=6,r=1", rng.choice(MALFORMED)), 2)
    if choice == 1:
        return CliOp(("ring", "eval", "--preset", f"surface:g={rng.randint(2, 9)}",
                      rng.choice(("theta*F1", "eta", "omega^2", "c1*Delta"))), 2)
    if choice == 2:
        return CliOp(("ring", "eval", "--preset", f"uc:g={rng.randint(2, 9)}",
                      rng.choice(("Delta*omega", "lambda*gamma", "k"))), 2)
    return CliOp(("ring", "eval", "--preset",
                  rng.choice(("jac:g=5,d=4", "torus:g=3", "surface:g=x", "uc:h=3", "jac:g")),
                  "theta"), 2)


def ring_fuzz_ops(seed: int) -> list:
    rng = random.Random(seed)
    makers = {"jac_top": _jac_top, "surface": _surface, "uc": _uc,
              "normalise": _normalise, "refused": _refused}
    return [makers[kind](rng) for kind, count in RING_FUZZ_COUNTS.items()
            for _ in range(count)]


# ---------------------------------------------------------------------------

WORKLOADS = ("session", "bn_ladder", "ring_fuzz")


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``: the same seed, the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "session":
        ops = session_ops()
        digest = SESSION_SHA256
    elif name == "bn_ladder":
        rungs = list(LADDER)
        rng.shuffle(rungs)
        ops, digest = ladder_ops(rungs), None
    elif name == "ring_fuzz":
        ops, digest = ring_fuzz_ops(seed), None
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    order = list(range(len(ops)))
    if name != "bn_ladder":  # a context's evaluations stay together, in order
        rng.shuffle(order)
    return Workload(name, tuple(ops), tuple(order), digest)
