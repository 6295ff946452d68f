"""Command-line front end.

Every command is batch: read flags, compute, print one report, exit.
Reports carry exact rationals serialized as "p/q" (or "p" for integers)
and are byte-identical across runs for identical inputs in JSON mode.
`--format json|text` follows the leaf command (`oddspin pic class --g 3
--name zg --format json`); `-h` works at every level.

Exit codes: 0 success (and help), 2 expression/usage parse error, 3 basis
or preset mismatch, 4 failed internal cross-check, 1 any other engine error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import genus12, numerics, picard
from .bn import bn_context, evaluate_taut
from .errors import (
    BasisMismatchError,
    EngineError,
    ExprSyntaxError,
    InternalCheckError,
    PreconditionError,
    PresetMismatchError,
)
from .exprparse import expr_to_class, expr_to_ring, parse_expression
from .numerics import (
    boundary_degrees,
    mukai_profile,
    rho,
    scorza_genus,
    theta_counts,
    theta_pencil_profile,
)
from .picard import (
    MODULI,
    SPIN,
    canonical_class,
    moduli_basis,
    pair,
    pullback,
    pushforward,
    slope,
    solve_zg,
    spin_basis,
    test_curve,
    zg_class,
)
from .record import Record
from .ring import (
    JACOBIAN,
    K,
    SURFACE,
    TAUTOLOGICAL,
    UNIVERSAL_CURVE,
    integrate,
    preset_jacobian_product,
    preset_surface_product,
    preset_universal_curve,
    pushforward_relative,
)
from .scalars import format_scalar, too_long_to_print


NAMED_CLASSES = ("zg", "k", "bn", "d12")


class UsageError(EngineError):
    pass


class _HelpRequested(Exception):
    """Carries the help text of ``-h`` back to ``run_command``."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help().rstrip("\n"))


class Report(Record):
    __slots__ = ("command", "inputs", "result", "assumptions", "elapsed_ms")

    def render(self, fmt: str) -> str:
        """The report as JSON or text; a number past the digit limit is
        an engine error."""
        try:
            return self.to_json() if fmt == "json" else self.to_text()
        except ValueError:  # raised by int-to-str, where json and text print ints
            raise too_long_to_print() from None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "assumptions": self.assumptions,
            "warnings": [],
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append("inputs:")
            lines.extend(_text_block(self.inputs, indent=2))
        lines.append("result:")
        lines.extend(_text_block(self.result, indent=2))
        if self.assumptions:
            lines.append("assumptions:")
            lines.extend(f"  - {item}" for item in self.assumptions)
        lines.append(f"elapsed: {self.elapsed_ms} ms")
        return "\n".join(lines)


def _text_block(value, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(value, dict):
        lines = []
        for key, sub in value.items():
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_text_block(sub, indent + 2))
            else:
                lines.append(f"{pad}{key}: {sub}")
        return lines
    if isinstance(value, list):
        return [f"{pad}- {item}" for item in value]
    return [f"{pad}{value}"]


class CommandOutcome(Record):
    __slots__ = ("exit_code", "stdout", "stderr")


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _leaf(commands, label: str, run) -> _ArgumentParser:
    """Declare the command ``label``: its handler, its label and ``--format``."""
    leaf = commands.add_parser(label.split()[-1])
    leaf.add_argument("--format", choices=("json", "text"), default="text")
    leaf.set_defaults(run=run, label=label)
    return leaf


@functools.cache
def build_parser() -> _ArgumentParser:
    """The parser of every command, built once per process on first use."""
    parser = _ArgumentParser(prog="oddspin", description=__doc__)
    commands = parser.add_subparsers(required=True)
    ring, pic, d12 = (
        commands.add_parser(name).add_subparsers(required=True)
        for name in ("ring", "pic", "d12")
    )
    ring_eval = _leaf(ring, "ring eval", _run_ring_eval)
    ring_eval.add_argument("--preset", required=True,
                           help="jac:g=<g>,d=<d>,r=<r> | surface:g=<g> | uc:g=<g>")
    ring_eval.add_argument("expression")

    pic_class = _leaf(pic, "pic class", _run_pic_class)
    pic_class.add_argument("--g", type=int, required=True)
    pic_class.add_argument("--name", required=True, choices=NAMED_CLASSES)
    pic_class.add_argument("--space", choices=(SPIN, MODULI), default=None)

    pic_pair = _leaf(pic, "pic pair", _run_pic_pair)
    pic_pair.add_argument("--g", type=int, required=True)
    pic_pair.add_argument("--curve", required=True,
                          help="F:<i> | G:<i> | H0 | F0 | G0 | C0 | C1 | R | P")
    pic_pair.add_argument("--class", dest="class_spec", required=True,
                          help=" | ".join(NAMED_CLASSES) + " | expression in the basis")

    for label in ("pic push", "pic pull"):
        cmd = _leaf(pic, label, _run_pic_push_pull)
        cmd.add_argument("--g", type=int, required=True)
        cmd.add_argument("expression", nargs="?", default=None)
        cmd.add_argument("--class", dest="class_spec", default=None, choices=NAMED_CLASSES,
                         help="a named class (alternative to an expression)")

    _leaf(pic, "pic solve-zg", _run_pic_solve_zg).add_argument("--g", type=int, required=True)

    cert = _leaf(commands, "cert", _run_cert)
    cert.add_argument("--g", type=int, required=True)
    cert.add_argument("--aux", required=True, choices=("bn", "d12"))

    _leaf(d12, "d12 run", _run_d12).add_argument("--dump-intermediates", action="store_true")

    _leaf(commands, "numbers", _run_numbers).add_argument("--g", type=int, required=True)
    return parser


def _parse_preset_spec(spec: str):
    kind, _, args = spec.partition(":")
    params = {}
    if args:
        for piece in args.split(","):
            key, _, value = piece.partition("=")
            if not value or not key:
                raise UsageError(f"malformed preset parameter {piece!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise UsageError(f"preset parameter {piece!r} is not an integer")
    try:
        if kind == "jac":
            return preset_jacobian_product(params["g"], params["d"], params["r"])
        if kind == "surface":
            return preset_surface_product(params["g"])
        if kind == "uc":
            return preset_universal_curve(params["g"])
    except KeyError as missing:
        raise UsageError(f"preset {spec!r} is missing parameter {missing}")
    raise UsageError(f"unknown preset kind {kind!r}; expected jac, surface or uc")


def _named_class(name: str, g: int, space: str | None):
    if name == "zg":
        return zg_class(g)
    if name == "k":
        return canonical_class(space or SPIN, g)
    if name == "bn":
        return picard.bn_divisor_class(g)
    if g != 12:
        raise UsageError("the d12 class lives on genus 12")
    return genus12.d12_class()


def _resolve_curve(spec: str, g: int):
    name, _, index = spec.partition(":")
    if name == "P":
        return theta_pencil_profile(g).curve
    if index:
        try:
            i = int(index)
        except ValueError:
            raise UsageError(f"curve index {index!r} is not an integer")
        return test_curve(name, g, i)
    return test_curve(name, g)


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns (inputs, result, assumptions))
# ---------------------------------------------------------------------------

def _run_ring_eval(args):
    preset = _parse_preset_spec(args.preset)
    expr = parse_expression(args.expression, preset)
    elem = expr_to_ring(expr, preset)
    result = {
        "preset": preset.label,
        "normalized": elem.render(),
        "degree": elem.degree() if elem.is_homogeneous() else None,
        "value": None,
        "value_method": None,
    }
    assumptions: list[str] = []
    if elem.is_zero() or not elem.is_homogeneous():
        return {"preset": args.preset, "expression": args.expression}, result, assumptions
    degree = elem.degree()
    if preset.kind == JACOBIAN:
        g, d, r = preset.param("g"), preset.param("d"), preset.param("r")
        pure = not any(any(m[TAUTOLOGICAL]) for m, _ in elem.terms)
        if any(m[K] for m, _ in elem.terms):
            assumptions.append(
                "kernel class present: no side-specific substitution applied"
            )
        elif degree == rho(g, r, d) + 1:
            # a refused context has g - d + r != 0, so rho + 1 != g + 1 and
            # integrate does not apply either
            try:
                ctx = bn_context(g, r, d)
            except PreconditionError as refusal:
                assumptions.append(f"no tautological evaluation: {refusal}")
            else:
                result["value"] = format_scalar(evaluate_taut(ctx, elem))
                result["value_method"] = "tautological-evaluation"
        elif pure and degree == g + 1:
            result["value"] = format_scalar(integrate(elem))
            result["value_method"] = "integrate"
    elif preset.kind == SURFACE and degree == 2:
        result["value"] = format_scalar(integrate(elem))
        result["value_method"] = "integrate"
    elif preset.kind == UNIVERSAL_CURVE and degree == 2:
        coeff = pushforward_relative(elem, preset.param("g"))
        result["value"] = format_scalar(coeff)
        result["value_method"] = "relative-pushforward (lambda coefficient)"
    return {"preset": args.preset, "expression": args.expression}, result, assumptions


def _run_pic_class(args):
    cls = _named_class(args.name, args.g, args.space)
    result = {
        "basis": cls.basis.label,
        "class": cls.render(),
        "coefficients": cls.coefficients_by_name(),
    }
    assumptions: list[str] = []
    if args.name == "bn":
        result["slope"] = format_scalar(slope(cls))
        result["divisor_exists"] = picard.bn_divisor_exists(args.g)
        if not picard.bn_divisor_exists(args.g):
            assumptions.append(
                "g+1 is prime: the class formula has no effective representative"
            )
    if args.name == "d12":
        info = genus12.d12_class_info()
        assumptions.extend(info.assumptions)
        result["slope"] = format_scalar(slope(cls))
    inputs = {"g": args.g, "name": args.name}
    if args.space:
        inputs["space"] = args.space
    return inputs, result, assumptions


def _run_pic_pair(args):
    curve = _resolve_curve(args.curve, args.g)
    if args.class_spec in NAMED_CLASSES:
        space = curve.basis.space if args.class_spec == "k" else None
        cls = _named_class(args.class_spec, args.g, space)
    else:
        expr = parse_expression(args.class_spec, curve.basis)
        cls = expr_to_class(expr, curve.basis)
    value = pair(curve, cls)
    result = {
        "curve": curve.name,
        "basis": curve.basis.label,
        "class": cls.render(),
        "value": format_scalar(value),
    }
    assumptions = list(curve.assumed_zero_labels())
    inputs = {"g": args.g, "curve": args.curve, "class": args.class_spec}
    return inputs, result, assumptions


def _run_pic_push_pull(args):
    direction = args.label.split()[-1]
    if (args.expression is None) == (args.class_spec is None):
        raise UsageError("pass exactly one of an expression or --class")
    source_basis = spin_basis(args.g) if direction == "push" else moduli_basis(args.g)
    if args.class_spec is not None:
        space = source_basis.space if args.class_spec == "k" else None
        cls = _named_class(args.class_spec, args.g, space)
        if cls.basis != source_basis:
            raise BasisMismatchError(
                f"class {args.class_spec!r} lives on {cls.basis.label}, but"
                f" {direction} starts from {source_basis.label}"
            )
    else:
        expr = parse_expression(args.expression, source_basis)
        cls = expr_to_class(expr, source_basis)
    out = pushforward(args.g, cls) if direction == "push" else pullback(args.g, cls)
    result = {
        "from": cls.basis.label,
        "to": out.basis.label,
        "class": out.render(),
        "coefficients": out.coefficients_by_name(),
    }
    inputs = {"g": args.g,
              "class": args.class_spec if args.class_spec else args.expression}
    return inputs, result, []


def _run_pic_solve_zg(args):
    report = solve_zg(args.g)
    result = {
        "class": report.divisor_class.render(),
        "coefficients": report.divisor_class.coefficients_by_name(),
        "matches_closed_form": report.matches_closed_form,
        "full_rank": report.full_rank,
        "degenerate": report.degenerate,
        "undetermined": list(report.undetermined),
        "fallback_consistent": report.fallback_consistent,
        "rows": list(report.row_labels),
    }
    return {"g": args.g}, result, list(report.assumptions)


def _run_cert(args):
    report = picard.certificate(args.g, args.aux)
    return {"g": args.g, "aux": args.aux}, report.to_json_dict(), list(report.assumptions)


def _run_d12(args):
    report = genus12.d12_slope_report()
    result = {
        "a": format_scalar(report.a),
        "b0": format_scalar(report.b0),
        "b1": format_scalar(report.b1),
        "slope": format_scalar(report.slope),
        "threshold": format_scalar(report.threshold),
        "violates_slope_conjecture": report.violates_slope_conjecture,
        "cross_multiplication": {
            "slope_times_13": str(report.cross_lhs),
            "threshold_times_642": str(report.cross_rhs),
        },
        "class": f"{format_scalar(report.a)}*lambda - {format_scalar(report.b0)}*delta0"
                 f" - {format_scalar(report.b1)}*delta1 - sum_{{j>=2}} b_j*delta_j",
    }
    info = genus12.d12_class_info()
    assumptions = [report.higher_boundary_note]
    assumptions.extend(info.assumed_zero_pairings)
    if args.dump_intermediates:
        result["intermediates"] = genus12.intermediates()
    return {"dump_intermediates": args.dump_intermediates}, result, assumptions


def _run_numbers(args):
    g = args.g
    counts = theta_counts(g)
    degrees = {
        str(i): {"A": boundary_degrees(g, i)[0], "B": boundary_degrees(g, i)[1]}
        for i in range(g // 2 + 1)
    }
    profile = theta_pencil_profile(g)
    result = {
        "g": g,
        "spin_counts": {"even": counts.n_even, "odd": counts.n_odd,
                        "total": counts.total},
        "covering_degree": picard.covering_degree(g),
        "boundary_degrees": degrees,
        "scorza_genus": scorza_genus(g),
        "theta_pencil": {
            "pairings": {
                name: format_scalar(v)
                for name, v in zip(profile.curve.basis.names, profile.curve.pairings)
                if v != 0
            },
            "canonical_pairing": format_scalar(profile.canonical_pairing),
            "canonical_negative": profile.canonical_pairing < 0,
            "discriminant_degree": profile.discriminant_degree,
            "decomposition_ok": profile.decomposition_ok,
        },
        "brill_noether_divisor_exists": picard.bn_divisor_exists(g),
        "mukai": None,
    }
    if 7 <= g <= 10:
        mk = mukai_profile(g)
        result["mukai"] = {"dim_v": mk.dim_v, "n_g": mk.n_g,
                           "max_delta_dominant": mk.max_delta_dominant}
    assumptions = list(profile.curve.assumed_zero_labels())
    return {"g": g}, result, assumptions


def run_command(argv) -> CommandOutcome:
    """Execute one command line; returns help, reports and engine errors
    as an outcome and never raises for them."""
    started = time.monotonic_ns()
    try:
        args = build_parser().parse_args(list(argv))
        inputs, result, notes = args.run(args)
        elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
        stdout = Report(args.label, inputs, result, notes, elapsed_ms).render(args.format)
    except _HelpRequested as help_text:
        return CommandOutcome(0, str(help_text), "")
    except (UsageError, ExprSyntaxError) as err:
        return CommandOutcome(2, "", f"error: {err}")
    except (PresetMismatchError, BasisMismatchError) as err:
        return CommandOutcome(3, "", f"error: {err}")
    except InternalCheckError as err:
        return CommandOutcome(4, "", f"internal check failed: {err}")
    except EngineError as err:
        return CommandOutcome(1, "", f"error: {err}")
    return CommandOutcome(0, stdout, "")


def main() -> None:
    outcome = run_command(sys.argv[1:])
    if outcome.stdout:
        print(outcome.stdout)
    if outcome.stderr:
        print(outcome.stderr, file=sys.stderr)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
