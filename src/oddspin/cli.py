"""Command-line front end.

Every command is batch: read flags, compute, print one report, exit.
Reports carry exact rationals serialized as "p/q" (or "p" for integers)
and are byte-identical across runs for identical inputs in JSON mode.
`--format json|text` follows the leaf command (`oddspin pic class --g 3
--name zg --format json`); `-h` works at every level.

Exit codes: 0 success (and help), 2 expression/usage parse error, 3 basis
or preset mismatch, 4 failed internal cross-check, 1 any other engine error.

The leaf commands are declared once, in ``_COMMANDS``, and ``_parse`` is
their one reader: it reads every command line, writes every usage error
and renders every help text from that table.  An option is spelled in
full and given at most once; an abbreviation or a repeat exits 2.
"""
from __future__ import annotations

import os
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import genus12, picard
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
    theta_pencil_profile,
    zg_class,
)
from .record import Record
from .ring import (
    JACOBIAN,
    SURFACE,
    integrate,
    preset_jacobian_product,
    preset_surface_product,
    preset_universal_curve,
)
from .scalars import format_scalar, too_long_to_print


NAMED_CLASSES = ("zg", "k", "bn", "d12")


class UsageError(EngineError):
    pass


class _HelpRequested(Exception):
    """Carries the help text of ``-h`` back to ``run_command``."""


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
        return _json(payload)

    def to_text(self) -> str:
        sections = {"command": self.command}
        if self.inputs:
            sections["inputs"] = self.inputs
        sections["result"] = self.result
        if self.assumptions:
            sections["assumptions"] = self.assumptions
        sections["elapsed"] = f"{self.elapsed_ms} ms"
        return "\n".join(_text_block(sections, indent=0))


_JSON_WORDS = {True: "true", False: "false", None: "null"}


def _json(value, pad: str = "\n") -> str:
    """``value`` as the standard library's JSON encoder writes it with
    ``indent=2``, byte for byte, for the types a report holds: dicts with
    str keys, lists, str, int, bool and None.  Any other type (a tuple or a
    float too) or key is a TypeError; an int past the digit limit is the
    ValueError of ``int.__repr__``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _JSON_WORDS[value]
    inner = pad + "  "
    if kind is dict:  # encode_basestring_ascii refuses a key that is not a str
        parts = [f"{encode_basestring_ascii(key)}: {_json(sub, inner)}"
                 for key, sub in value.items()]
        ends = "{}"
    elif kind is list:
        parts, ends = [_json(sub, inner) for sub in value], "[]"
    else:
        raise TypeError(f"a report holds no {kind.__name__}")
    if not parts:
        return ends
    return ends[0] + inner + ("," + inner).join(parts) + pad + ends[1]


def _text_block(value, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(value, list):
        return [f"{pad}- {item}" for item in value]
    lines = []
    for key, sub in value.items():
        if isinstance(sub, (dict, list)):
            lines.append(f"{pad}{key}:")
            lines.extend(_text_block(sub, indent + 2))
        else:
            lines.append(f"{pad}{key}: {sub}")
    return lines


class CommandOutcome(Record):
    __slots__ = ("exit_code", "stdout", "stderr")


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

# preset kind -> (builder, its parameters in argument order)
_PRESET_KINDS = {
    "jac": (preset_jacobian_product, ("g", "d", "r")),
    "surface": (preset_surface_product, ("g",)),
    "uc": (preset_universal_curve, ("g",)),
}


def _parse_preset_spec(spec: str):
    kind, _, args = spec.partition(":")
    params = {}
    if args:
        for piece in args.split(","):
            key, _, value = piece.partition("=")
            if not value or not key:
                raise UsageError(f"malformed preset parameter {piece!r}")
            if key in params:
                raise UsageError(f"preset {spec!r} repeats parameter {key!r}")
            # plain ASCII digits after an optional minus: int() would also
            # take "1_0", " 3", "+3" and other scripts' digits
            digits = value[1:] if value[0] == "-" else value
            if not (digits.isascii() and digits.isdigit()):
                raise UsageError(f"preset parameter {piece!r} is not an integer")
            params[key] = int(value)
    if kind not in _PRESET_KINDS:
        raise UsageError(f"unknown preset kind {kind!r}; expected jac, surface or uc")
    build, names = _PRESET_KINDS[kind]
    for name in names:
        if name not in params:
            raise UsageError(f"preset {spec!r} is missing parameter {name!r}")
    for key in params:
        if key not in names:
            raise UsageError(f"preset {spec!r} has unknown parameter {key!r}")
    return build(*(params[name] for name in names))


def _named_class(name: str, g: int, space: str | None):
    """The class ``name`` in genus g, k on ``space``, and its assumptions."""
    if name == "zg":
        return zg_class(g), []
    if name == "k":
        return canonical_class(space or SPIN, g), []
    if name == "bn":
        return picard.bn_divisor_class(g), []
    if g != 12:
        raise UsageError("the d12 class lives on genus 12")
    info = genus12.d12_class_info()
    return info.divisor, list(info.assumptions)


def _class_on(spec: str, basis):
    """The named class ``spec`` in the basis's genus, k on the basis's
    space, and its assumptions; any other spec is an expression in the
    basis, with none."""
    if spec in NAMED_CLASSES:
        return _named_class(spec, basis.g, basis.space)
    return expr_to_class(parse_expression(spec, basis), basis), []


def _resolve_curve(spec: str, g: int):
    name, _, index = spec.partition(":")
    if not index:
        return test_curve(name, g)
    try:
        i = int(index)
    except ValueError:
        raise UsageError(f"curve index {index!r} is not an integer")
    return test_curve(name, g, i)


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns (inputs, result, assumptions))
# ---------------------------------------------------------------------------

def _run_ring_eval(args):
    preset = _parse_preset_spec(args.preset)
    expr = parse_expression(args.expression, preset)
    elem = expr_to_ring(expr, preset)
    # the degree of a nonzero homogeneous element; None for any other
    degrees = {preset.monomial_degree(mono) for mono, _ in elem.numerators}
    degree = degrees.pop() if len(degrees) == 1 else None
    result = {"preset": preset.label, "normalized": elem.render(), "degree": degree,
              "value": None, "value_method": None}
    assumptions: list[str] = []
    if degree is None:
        return {"preset": args.preset, "expression": args.expression}, result, assumptions
    if preset.kind == JACOBIAN:
        g, d, r = preset.param("g"), preset.param("d"), preset.param("r")
        generators = elem.generators()
        if "k" in generators:
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
        elif degree == g + 1 and generators <= {"eta", "gamma", "theta"}:
            result["value"] = format_scalar(integrate(elem))
            result["value_method"] = "integrate"
    elif degree == 2:
        result["value"] = format_scalar(integrate(elem))
        result["value_method"] = ("integrate" if preset.kind == SURFACE
                                  else "relative-pushforward (lambda coefficient)")
    return {"preset": args.preset, "expression": args.expression}, result, assumptions


def _run_pic_class(args):
    if args.space is not None and args.name != "k":
        raise UsageError(f"--space applies to --name k only, not to {args.name!r}")
    cls, assumptions = _named_class(args.name, args.g, args.space)
    result = {
        "basis": cls.basis.label,
        "class": cls.render(),
        "coefficients": cls.coefficients_by_name(),
    }
    if args.name in ("bn", "d12"):
        result["slope"] = format_scalar(slope(cls))
    if args.name == "bn":
        exists = picard.bn_divisor_exists(args.g)
        result["divisor_exists"] = exists
        if not exists:
            assumptions.append(
                "g+1 is prime: the class formula has no effective representative"
            )
    inputs = {"g": args.g, "name": args.name}
    if args.space:
        inputs["space"] = args.space
    return inputs, result, assumptions


def _run_pic_pair(args):
    curve = _resolve_curve(args.curve, args.g)
    cls, assumptions = _class_on(args.class_spec, curve.basis)
    value = pair(curve, cls)
    result = {
        "curve": curve.name,
        "basis": curve.basis.label,
        "class": cls.render(),
        "value": format_scalar(value),
    }
    inputs = {"g": args.g, "curve": args.curve, "class": args.class_spec}
    return inputs, result, [*curve.assumed_zero_labels(), *assumptions]


def _run_pic_push_pull(args):
    direction = args.label.split()[-1]
    if (args.expression is None) == (args.class_spec is None):
        raise UsageError("pass exactly one of an expression or --class")
    source_basis = spin_basis(args.g) if direction == "push" else moduli_basis(args.g)
    assumptions = []
    if args.class_spec is not None:
        cls, assumptions = _class_on(args.class_spec, source_basis)
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
    return inputs, result, assumptions


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
    # the spin total is the largest number printed: refuse an unprintable
    # report before building it
    format_scalar(counts.total)
    degrees = {str(i): dict(zip("AB", boundary_degrees(g, i))) for i in range(g // 2 + 1)}
    profile = theta_pencil_profile(g)
    names = profile.curve.basis.names
    result = {
        "g": g,
        "spin_counts": {"even": counts.n_even, "odd": counts.n_odd,
                        "total": counts.total},
        "covering_degree": picard.covering_degree(g),
        "boundary_degrees": degrees,
        "scorza_genus": scorza_genus(g),
        "theta_pencil": {
            "pairings": {names[j]: format_scalar(v) for j, v in profile.curve.pairings},
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


# ---------------------------------------------------------------------------
# The command table and its one reader
# ---------------------------------------------------------------------------

_FORMAT = ("--format", {"choices": ("json", "text"), "default": "text"})
_G = ("--g", {"type": int, "required": True})

# Every leaf command: its label, its handler and its arguments after
# --format, each a name (without a leading '-', the one positional) and its
# keywords: required, type (int; else a str), choices, default, flag (takes
# no value, sets True), dest (else the name without dashes) and help.
_COMMANDS = (
    ("ring eval", _run_ring_eval, (
        ("--preset", {"required": True,
                      "help": "jac:g=<g>,d=<d>,r=<r> | surface:g=<g> | uc:g=<g>"}),
        ("expression", {"required": True}),
    )),
    ("pic class", _run_pic_class, (
        _G, ("--name", {"required": True, "choices": NAMED_CLASSES}),
        ("--space", {"choices": (SPIN, MODULI)}),
    )),
    ("pic pair", _run_pic_pair, (
        _G,
        ("--curve", {"required": True, "help": " | ".join(
            f"{name}:<i>" if name in picard.INDEXED_CURVES else name
            for name in picard.TEST_CURVES)}),
        ("--class", {"dest": "class_spec", "required": True,
                     "help": " | ".join(NAMED_CLASSES) + " | expression in the basis"}),
    )),
    *((label, _run_pic_push_pull, (
        _G, ("expression", {}),
        ("--class", {"dest": "class_spec", "choices": NAMED_CLASSES,
                     "help": "a named class (alternative to an expression)"}),
    )) for label in ("pic push", "pic pull")),
    ("pic solve-zg", _run_pic_solve_zg, (_G,)),
    ("d12 run", _run_d12, (("--dump-intermediates", {"flag": True}),)),
    ("cert", _run_cert, (_G, ("--aux", {"required": True, "choices": ("bn", "d12")}))),
    ("numbers", _run_numbers, (_G,)),
)

_HELP = ("-h", "--help")


def _option_word(word: str) -> bool:
    """A word read as an option, not a value: it begins with '-' and is not
    '-' alone, a negative integer or a word with a space ('-2 * omega')."""
    return word[:1] == "-" and word != "-" and not word[1:].isdecimal() and " " not in word


def _metavar(choices) -> str:
    return "{" + ",".join(choices) + "}"


def _invalid_choice(name: str, value, choices) -> str:
    return (f"argument {name}: invalid choice: {value!r}"
            f" (choose from {', '.join(map(repr, choices))})")


class _Leaf:
    """One leaf of ``_COMMANDS`` as ``_parse`` reads it, worked out once at
    import: each option's dest, type (bool for a flag) and choices, the
    required names, the defaults, the positional and its help's lines."""

    __slots__ = ("words", "options", "required", "defaults", "positional", "usage", "rows")

    def __init__(self, label: str, run, arguments):
        self.words, self.defaults = tuple(label.split()), {"run": run, "label": label}
        self.options, self.required, self.positional = {}, [], None
        usage = [f"oddspin {label} [-h]"]
        self.rows = [("-h, --help", "show this help message and exit")]
        for name, keywords in (_FORMAT, *arguments):
            flag, choices = keywords.get("flag", False), keywords.get("choices")
            dest = keywords.get("dest", name.lstrip("-").replace("-", "_"))
            self.defaults[dest] = False if flag else keywords.get("default")
            if keywords.get("required"):
                self.required.append(name)
            if name[0] != "-":
                self.positional = invocation = name
            else:
                self.options[name] = dest, bool if flag else keywords.get("type", str), choices
                metavar = _metavar(choices) if choices else dest.upper()
                invocation = name if flag else f"{name} {metavar}"
            usage.append(invocation if keywords.get("required") else f"[{invocation}]")
            self.rows.append((invocation, keywords.get("help", "")))
        self.usage = " ".join(usage)

    def read(self, words) -> SimpleNamespace:
        """The handler's namespace for the words after the label: help and
        option errors as met, then what is missing, then what is left over."""
        values, given, extras = dict(self.defaults), set(), []
        slot, after_dashes = self.positional, False
        words = iter(words)
        for word in words:
            name, joined, value = word.partition("=")
            option = None if after_dashes else self.options.get(name)
            if option is not None and not (joined and option[1] is bool):
                if name in given:
                    raise UsageError(f"argument {name}: given more than once")
                given.add(name)
                dest, kind, choices = option
                if kind is bool:
                    values[dest] = True
                    continue
                if not joined:
                    value = next(words, None)
                    if value is None or _option_word(value):
                        raise UsageError(f"argument {name}: expected one argument")
                try:
                    value = kind(value)
                except ValueError:
                    raise UsageError(
                        f"argument {name}: invalid {kind.__name__} value: {value!r}") from None
                if choices is not None and value not in choices:
                    raise UsageError(_invalid_choice(name, value, choices))
                values[dest] = value
            elif after_dashes or not _option_word(word):
                if slot is None:
                    extras.append(word)
                else:
                    values[slot] = word
                    given.add(slot)
                    slot = None
            elif word == "--":  # the first '--': every later word is a value
                after_dashes = True
                if slot is None:
                    extras.append(word)
            elif word in _HELP:
                raise _HelpRequested(_help(self.words))
            else:
                extras.append(word)
        # an expression that begins with '-' was read as an unknown option
        hint = self.positional and next(
            (word for word in extras if word[1:2] != "-" and _option_word(word)), None)
        missing = [name for name in self.required if name not in given]
        if missing:
            message = f"the following arguments are required: {', '.join(missing)}"
            hint = hint if self.positional in missing else None
        elif extras:
            message = f"unrecognized arguments: {' '.join(extras)}"
        else:
            return SimpleNamespace(**values)
        if hint:
            message += f" (an expression that begins with '-' goes after '--', as in: -- {hint})"
        raise UsageError(message)


# every leaf by the words of its label: ("pic", "solve-zg"), ("cert",)
_LEAVES = {leaf.words: leaf for leaf in (_Leaf(*command) for command in _COMMANDS)}


def _below(path: tuple) -> dict:
    """The words that may follow the level ``path``, in table order."""
    return dict.fromkeys(words[len(path)] for words in _LEAVES if words[:len(path)] == path)


def _parse(argv: list) -> SimpleNamespace:
    """The handler's namespace for ``argv``, else ``_HelpRequested`` or
    ``UsageError``.  The leaf that the leading words name reads the rest.
    Any other line goes down the levels above the leaves, and each level
    takes -h, --help or the word of a level or leaf below it."""
    if not all(isinstance(word, str) for word in argv):
        raise UsageError("every word of a command line must be a str")
    leaf = _LEAVES.get(tuple(argv[:2])) or _LEAVES.get(tuple(argv[:1]))
    if leaf is not None:
        return leaf.read(argv[len(leaf.words):])
    path = ()
    for word in argv:
        commands = _below(path)
        if word in _HELP:
            raise _HelpRequested(_help(path))
        if word not in commands:
            raise UsageError(_invalid_choice(_metavar(commands), word, commands))
        path += (word,)
    raise UsageError(f"the following arguments are required: {_metavar(_below(path))}")


def _help(path: tuple) -> str:
    """The help of the leaf or level ``path``: a leaf's arguments, or the
    usage of each leaf below a level (the top one after this docstring
    but its last paragraph)."""
    leaf = _LEAVES.get(path)
    if leaf is not None:
        return f"usage: {leaf.usage}\n\narguments:\n" + "\n".join(
            f"  {invocation:<21} {text}".rstrip() for invocation, text in leaf.rows)
    about = "" if path else __doc__.rpartition("\n\n")[0] + "\n\n"
    return (f"usage: {' '.join(('oddspin', *path))} [-h] {_metavar(_below(path))} ...\n\n"
            f"{about}commands:\n" + "\n".join(
                f"  {leaf.usage}" for words, leaf in _LEAVES.items() if words[:len(path)] == path))


def run_command(argv) -> CommandOutcome:
    """Execute one command line; returns help, reports and engine errors
    as an outcome and never raises for them."""
    started = time.monotonic_ns()
    try:
        args = _parse(list(argv))
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
    try:
        if outcome.stdout:
            print(outcome.stdout, flush=True)
    except BrokenPipeError:  # the reader left: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if outcome.stderr:
        print(outcome.stderr, file=sys.stderr)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
