"""Regenerate ``reports.jsonl``, the golden report corpus.

Each line records one command line of ``grid()`` run in process through
``oddspin.cli.run_command``: its argv, its exit code, the sha256 of its
stdout (without the text-mode ``elapsed:`` line, the one part of a report
that changes between runs) and its stderr verbatim.  ``tests/test_golden.py``
re-runs every line and names the first argv whose record differs.

The file is rewritten only by running this script by hand, from the root
of a source checkout:

    PYTHONPATH=src python tests/golden/regen.py

``--check`` compares the corpus with fresh runs without rewriting it, names
the first argv that differs and exits 1 on a difference; it needs no
pytest, so any interpreter can run the corpus:

    PYTHONPATH=src python tests/golden/regen.py --check

A changed line is a behaviour change; say which and why wherever the
change is recorded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shlex
import sys
from pathlib import Path

CORPUS = Path(__file__).with_name("reports.jsonl")
FORMATS = ("json", "text")

# ring eval, per preset: top degree, off degree, mixed, k present, c present
# and refused Brill-Noether contexts, then malformed expressions.
RING_EVALS = {
    "jac:g=3,d=2,r=0": (
        "eta*theta^3", "gamma*theta^3", "theta^4", "gamma^2*theta^2",
        "(eta + gamma + theta)^4", "3/4*eta*theta^3 - gamma*theta^3",
        "theta", "theta^2", "eta*theta^5", "eta*theta^3 + theta", "eta + theta^2",
        "k*eta*theta^2", "k*theta", "eta*c1^2", "eta*c1*theta", "c1*theta^3",
        "(eta + c1)^3", "eta*+theta", "theta^", "Delta", "",
        # a one-term power whose monomial truncates: its coefficient is never raised
        "(3*theta)^1000000",
    ),
    "jac:g=11,d=14,r=4": (
        "eta*theta^11", "gamma^2*theta^10", "theta^12", "eta*theta^6",
        "eta*c1^6", "eta*c2*c1^4", "eta*c5*theta", "eta*theta^11 + theta",
        "k*eta*theta^5", "c1*theta^11", "(eta + gamma)^2*theta^9",
    ),
    # g - d + r < 0: the Brill-Noether context is refused
    "jac:g=5,d=7,r=1": ("eta*c1^7", "eta*theta^7", "eta*theta^5", "theta^6"),
    # rho < 0: the context is refused
    "jac:g=3,d=3,r=2": ("eta*theta^3", "eta*c1", "c3*theta"),
    "surface:g=3": (
        "Delta^2", "F1*F2", "F1^2", "F2^2", "(F1 + F2)*Delta",
        "(2*F1 + 2*F2 + Delta)^2", "F1", "2*(F1 + F2) + Delta", "Delta^2 + F1",
        "F1^3", "1", "eta", "k", "c1*Delta", "F1*(F2",
    ),
    "surface:g=20": ("Delta^2", "(19*F1 + 19*F2 + Delta)^2", "Delta", "Delta^2 - Delta"),
    "uc:g=3": (
        "omega^2", "omega*lambda", "lambda^2", "(omega + lambda)^2",
        "3/4*omega^2 - 2*omega*(-1/4*lambda)", "omega", "omega^2 + omega",
        "omega^3", "1", "k", "c1", "Delta*omega",
        # signed, zero and unreduced literals, constant powers, a zero
        # denominator; the command line takes a leading '-' for an option,
        # and a leading space gets the same expression past it
        "4/6*omega^2", "0/5*omega^2 + lambda^2", "omega^2 + -0*omega",
        "-12/8*omega*lambda", " -12/8*omega*lambda", "(2/4*omega + 3/6)^3",
        "2^3*omega^2", "0^0*omega^2", "1/0*omega",
        # one-term powers whose coefficient power passes the digit limit
        "(3*omega)^1000000", "(1/3*omega)^1000000",
    ),
    "uc:g=5": ("3/4*omega^2 - 2*omega*(-1/4*lambda)", "lambda^2 - omega*lambda", "lambda"),
}

# malformed, unknown, missing, repeated and out-of-range preset specs, each
# with an expression its kind would accept
PRESET_SPECS = (
    ("jac:g=5,d=4", "theta"), ("jac:g", "theta"), ("jac:g=x,d=1,r=0", "theta"),
    ("jac", "theta"), ("jac:g=0,d=1,r=0", "theta"), ("jac:g=3,d=2,r=0,x=1", "theta"),
    ("jac:g=3,d=2,r=0,r=0", "theta"), ("jac:g=3,g=4,d=2,r=0", "eta*theta^3"),
    ("torus:g=3", "theta"), ("surface:g=x", "Delta^2"), ("surface:g=1", "Delta^2"),
    ("surface:g=3,r=9", "Delta^2"), ("surface:g=3,g=3", "Delta^2"),
    ("uc:h=3", "omega^2"), ("uc:g=3,g=5", "omega^2"), ("uc:g=3,h=1", "omega^2"),
    ("uc:", "omega^2"), (":g=3", "theta"),
    # only ASCII digits with an optional minus sign make a parameter value;
    # a negative one reaches the builder's own range check
    ("surface:g=1_0", "Delta^2"), ("surface:g= 3", "Delta^2"), ("surface:g=+3", "Delta^2"),
    ("surface:g=\u0663", "Delta^2"), ("surface:g=3 ", "Delta^2"), ("surface:g=-3", "Delta^2"),
    ("jac:g=-1,d=1,r=0", "theta"), ("uc:g=-0", "omega^2"),
)

# the Picard commands run over these genera, every named class and one
# expression in each basis
PIC_GENERA = (3, 4, 5, 10, 11, 12, 13)
PIC_EXPRESSIONS = {"spin": "13*lambda - 2*alpha0 + 1/3*beta0 - 3/2*alpha1",
                   "moduli": "13*lambda - 7/6*delta0 + 3*delta1"}


# curve-index spellings that int() reads as plain integers, and unknown
# curves with and without an index (``X:1`` pins the order of the checks)
CURVE_SPELLINGS = ("F:+2", "F: 2", "F:0_2", "F:\u0663", "X", "X:1")

# --g spellings that int() reads as plain integers; cert refuses
# g = 3 itself, so it spells 13 instead
G_SPELLINGS = ("\u0663", "1_0", " 3", "+3")
CERT_G_SPELLINGS = ("\u0661\u0663", "1_3", " 13", "+13")

# every leaf command
LEAF_COMMANDS = (
    ("ring", "eval"), ("pic", "class"), ("pic", "pair"), ("pic", "push"), ("pic", "pull"),
    ("pic", "solve-zg"), ("cert",), ("d12", "run"), ("numbers",),
)

# -h at every level of the command tree and at every leaf
HELP_COMMANDS = ((), ("ring",), ("pic",), ("d12",), *LEAF_COMMANDS)

# usage errors: a missing required option, an invalid choice, an invalid
# int and a missing expression
USAGE_ERRORS = (
    ("pic", "solve-zg"), ("cert", "--g", "12", "--aux", "xyz"), ("numbers", "--g", "x"),
    ("ring", "eval", "--preset", "uc:g=3"),
)

# command lines recorded as given, without an appended --format: options
# abbreviated, joined by '=' and repeated (an abbreviation or a repeat
# exits 2), and a bare class name where push and pull read an expression
AS_GIVEN = (
    ("pic", "solve-zg", "--g", "5", "--form", "json"), ("numbers", "--g=5", "--f", "text"),
    ("cert", "--g", "13", "--a", "bn"), ("pic", "class", "--g", "5", "--n", "zg"),
    ("pic", "solve-zg", "--g", "5", "--format", "json", "--g", "6"),
    ("pic", "push", "--g", "3", "zg"), ("pic", "pull", "--g", "5", "k"),
)

# parser edges, recorded as given: help ahead of a bad value, '--',
# expressions and values that begin with '-', abbreviated, joined and
# repeated options, a missing value, and words that name no command
EDGE_ARGVS = (
    *((*words, "--help", "--g", "x") for words in LEAF_COMMANDS),
    ("ring", "eval", "--preset", "uc:g=3", "--", "-2*omega^2"),
    ("ring", "eval", "--preset", "uc:g=3", "-omega"),
    ("ring", "eval", "--preset", "uc:g=3", "-2*omega^2"),
    ("ring", "eval", "--preset", "uc:g=3", "omega^2", "-x", "--", "-y"),
    ("ring", "eval", "-x", "--format", "json"),
    ("pic", "pull", "--g", "5", "-1/2*lambda"),
    ("pic", "push", "--g", "5", "--", "-lambda", "-x"),
    ("pic", "push", "--g", "-5", "lambda"),
    ("ring", "eval", "--", "--preset", "uc:g=3"),
    ("ring", "eval", "--pre", "uc:g=3", "omega^2", "--form", "json"),
    ("ring", "eval", "--preset=uc:g=3", "omega^2"),
    ("pic", "class", "--g", "3", "--na", "zg", "--sp", "spin"),
    ("pic", "push", "--g", "3", "--cl", "zg"),
    ("pic", "solve-zg", "--he"),
    ("pic", "solve-zg", "-hx"),
    ("pic", "solve-zg", "--g=3"),
    ("pic", "solve-zg", "--g", "3", "--"),
    ("pic", "solve-zg", "--g", "3", "--", "--g"),
    ("pic", "solve-zg", "--g", "3", "extra", "words"),
    ("d12", "run", "--dump"),
    ("d12", "run", "--format"),
    ("cert", "--g", "12", "--aux", "d12", "--format", "xml"),
    ("cert", "--g", "12"),
    ("numbers", "--g", "-3"),
    ("numbers", "--g", "3", "--g", "4"),
    ("numbers",),
    (), ("--help",), ("pic",), ("pic", "bogus"), ("bogus",),
    ("pic", "--format", "json", "class", "--g", "3", "--name", "zg"),
    ("--", "numbers", "--g", "3"), ("-x", "cert"), ("eval", "ring"), ("run",),
)


def pic_curves(g: int) -> list[str]:
    """Every test-curve spec of genus g: each family index, one past the
    end, and the pencil with an index it refuses."""
    indexed = [f"{name}:{i}" for name in ("F", "G") for i in range(1, g // 2 + 2)]
    return indexed + ["F", "H0", "H", "F0", "G0", "C0", "C1", "R", "P", "P:1"]


def pic_argvs(g: int) -> list[list[str]]:
    """pic class, pair, push and pull in genus g."""
    classes = ("zg", "k", "bn", "d12")
    head = ["--g", str(g)]
    argvs = [["pic", "class", *head, "--name", name] for name in classes]
    argvs += [["pic", "class", *head, "--name", "k", "--space", space]
              for space in ("spin", "moduli")]
    argvs += [["pic", "pair", *head, "--curve", curve, "--class", cls]
              for curve in pic_curves(g)
              for cls in (*classes, *PIC_EXPRESSIONS.values())]
    for direction, source in (("push", "spin"), ("pull", "moduli")):
        argvs += [["pic", direction, *head, "--class", name] for name in classes]
        argvs += [["pic", direction, *head, expr] for expr in PIC_EXPRESSIONS.values()]
    return argvs


def spelled_g_argvs(g: str) -> list[list[str]]:
    """One run of each command but solve-zg and cert with --g spelled g."""
    head = ["--g", g]
    return [["pic", "class", *head, "--name", "zg"],
            ["pic", "pair", *head, "--curve", "F:1", "--class", "zg"],
            ["pic", "push", *head, "--class", "zg"], ["pic", "pull", *head, "--class", "k"],
            ["numbers", *head]]


def grid() -> list[list[str]]:
    """Every command line of the corpus, in file order: each report in both
    formats, then each help once, then each usage error, each ``AS_GIVEN``
    and each ``EDGE_ARGVS`` line once."""
    argvs = [["ring", "eval", "--preset", preset, expr]
             for preset, exprs in RING_EVALS.items() for expr in exprs]
    argvs += [["ring", "eval", "--preset", spec, expr] for spec, expr in PRESET_SPECS]
    argvs += [["pic", "solve-zg", "--g", str(g)] for g in range(2, 41)]
    argvs += [["pic", "solve-zg", "--g", g] for g in ("100", "1000", *G_SPELLINGS)]
    argvs += [["d12", "run"], ["d12", "run", "--dump-intermediates"]]
    argvs += [["cert", "--g", str(g), "--aux", aux]
              for g in range(10, 31) for aux in ("bn", "d12")]
    # 7143: the spin total is too long to print
    argvs += [["numbers", "--g", str(g)] for g in (*range(0, 31), 7143)]
    argvs += [argv for g in PIC_GENERA for argv in pic_argvs(g)]
    argvs += [["pic", "pair", "--g", "7", "--curve", curve, "--class", "zg"]
              for curve in CURVE_SPELLINGS]
    argvs += [argv for g in G_SPELLINGS for argv in spelled_g_argvs(g)]
    argvs += [["cert", "--g", g, "--aux", "bn"] for g in CERT_G_SPELLINGS]
    return ([argv + ["--format", fmt] for argv in argvs for fmt in FORMATS]
            + [[*words, "-h"] for words in HELP_COMMANDS]
            + [list(argv) for argv in (*USAGE_ERRORS, *AS_GIVEN, *EDGE_ARGVS)])


def record(argv: list[str]) -> dict:
    """The corpus line of one run of ``argv``."""
    from oddspin.cli import run_command

    outcome = run_command(argv)
    stdout = "\n".join(line for line in outcome.stdout.split("\n")
                       if not line.startswith("elapsed: "))
    return {
        "argv": argv,
        "exit_code": outcome.exit_code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr": outcome.stderr,
    }


def first_difference() -> str | None:
    """None when every corpus line matches a fresh run of its argv, else
    what differs first."""
    lines = CORPUS.read_text().splitlines()
    if [json.loads(line)["argv"] for line in lines] != grid():
        return "the corpus and the grid disagree: run tests/golden/regen.py"
    for line in lines:
        want = json.loads(line)
        if record(want["argv"]) != want:
            return f"first differing run: oddspin {shlex.join(want['argv'])}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the corpus with fresh runs; rewrite nothing")
    if parser.parse_args().check:
        difference = first_difference()
        print(difference or f"every run matches {CORPUS}")
        return 1 if difference else 0
    lines = [json.dumps(record(argv), sort_keys=True) for argv in grid()]
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} runs to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
