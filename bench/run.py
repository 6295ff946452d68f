"""The oddspin benchmark.

    python3 bench/run.py --workload <session|bn_ladder|ring_fuzz>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the engine is imported from its
``src``.  Each repetition of the workload runs in a fresh worker process
(one at a time), so the engine's caches start empty every time.

``--trace 0`` measures set-up time and then repeats the workload untraced
until ``--seconds`` is used up, and reports the end-to-end metrics.
``--trace 1`` makes one tracemalloc repetition, then alternates untraced
and traced repetitions, and reports the per-layer metrics.  Every
repetition checks every answer exactly; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are medians in nominal seconds, which the host's changing speed
does not move (``hostspeed.py``).  See bench/README.md for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed  # beside this script, so first on sys.path
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))

PER_LAYER = (
    ("cli.run_command.calls", "count"),
    ("cli.run_command.self_s", "s"),
    ("exprparse.parse_expression.s", "s"),
    ("exprparse.self_s", "s"),
    ("ring.mul.calls", "count"),
    ("ring.mul.s", "s"),
    ("ring.mul.terms_out", "count"),
    ("ring.element.calls", "count"),
    ("ring.pow.s", "s"),
    ("ring.self_s", "s"),
    ("bn.evaluate_taut.calls", "count"),
    ("bn.evaluate_taut.s", "s"),
    ("bn.evaluate_taut_recursion.s", "s"),
    ("bn.expand_c_monomial.terms", "count"),
    ("bn.ht_value.calls", "count"),
    ("bn.ht_value.nonzero_ratio", "ratio"),
    ("bn.self_s", "s"),
    ("linalg.det.calls", "count"),
    ("linalg.det.s", "s"),
    ("linalg.det_per_ht_value", "ratio"),
    ("linalg.solve_linear.calls", "count"),
    ("linalg.solve_linear.s", "s"),
    ("genus12.d12_coefficients.s", "s"),
    ("genus12.self_s", "s"),
    ("picard.solve_zg.s", "s"),
    ("picard.certificate.s", "s"),
    ("picard.self_s", "s"),
    ("numerics.self_s", "s"),
    ("retained_kb", "KiB"),
    ("trace_overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(raw: dict) -> dict:
    """Per-layer metrics of one traced repetition from the tracer's output.

    Every cli span nests inside ``run_command``, so the cli layer's self
    time is the time ``run_command`` spends outside every other layer.
    """
    out = {name: raw.get(name, 0) for name, _ in PER_LAYER}
    out["cli.run_command.self_s"] = raw.get("cli.self_s", 0.0)
    out["bn.ht_value.nonzero_ratio"] = _ratio(raw.get("bn.ht_value.nonzero", 0),
                                              raw.get("bn.ht_value.calls", 0))
    out["linalg.det_per_ht_value"] = _ratio(raw.get("linalg.det.calls", 0),
                                            raw.get("bn.ht_value.calls", 0))
    return out


def _child_env() -> dict:
    # bytecode caches are written as for an installed package, whatever
    # the caller's environment says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


SETUP_CHILD = (
    "import oddspin.cli, time; t = time.monotonic_ns(); import sys;"
    " sys.path.insert(0, sys.argv[1]); import hostspeed; hostspeed.reference();"
    " print(t, hostspeed.reference_ns(3))"
)


def spawn_setup() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to ``import oddspin.cli``
    returning (the child reads the same monotonic clock), as wall time and
    in nominal seconds.  The host's speed is the reference loop timed here
    before the spawn and in the child after the import."""
    ref_before = hostspeed.reference_ns(3)
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(BENCH)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"importing oddspin.cli failed:\n{done.stderr}")
    imported, ref_after = (int(x) for x in done.stdout.split())
    took = imported - start
    return took / 1e9, hostspeed.nominal_s(took, ref_before, ref_after)


def run_worker(workload: str, seed: int, mode: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(seconds: float, make_rep) -> list:
    """Call ``make_rep`` at least once, and again while another call of
    the longest duration seen so far still ends within ``seconds``."""
    deadline = time.monotonic() + seconds
    results, longest = [], 0.0
    while not results or time.monotonic() + longest <= deadline:
        start = time.monotonic()
        results.append(make_rep())
        longest = max(longest, time.monotonic() - start)
    return results


def measure_end_to_end(workload: str, seed: int, seconds: float):
    """Repeat the workload, each repetition after one set-up spawn, so that
    both samples spread over the whole run.  Times are medians of nominal
    seconds (see ``hostspeed``)."""
    start = time.monotonic()
    hostspeed.reference()
    spawn_setup()  # writes the bytecode caches; users do not pay this per run
    setup = []

    def rep():
        setup.append(spawn_setup())
        return run_worker(workload, seed, "plain")

    reps = repeat(seconds - (time.monotonic() - start), rep)
    print(f"setup spawns {len(setup)}: wall median {statistics.median(s for s, _ in setup):.6g} s,"
          f" nominal median {statistics.median(n for _, n in setup):.6g} s")
    metrics = {
        "setup_s": statistics.median(n for _, n in setup),
        "wall_s": statistics.median(r["nominal_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, reps


def measure_layers(workload: str, seed: int, seconds: float):
    start = time.monotonic()
    memory = run_worker(workload, seed, "memory")
    pairs = repeat(seconds - (time.monotonic() - start),
                   lambda: (run_worker(workload, seed, "plain"),
                            run_worker(workload, seed, "spans")))
    plain = [p for p, _ in pairs]
    spans = [s for _, s in pairs]
    per_rep = [layer_values(s["layers"]) for s in spans]
    metrics = {name: statistics.median(v[name] for v in per_rep) for name, _ in PER_LAYER}
    metrics["retained_kb"] = memory["retained_kb"]
    metrics["trace_overhead_ratio"] = (statistics.median(s["nominal_s"] for s in spans)
                                       / statistics.median(p["nominal_s"] for p in plain))
    return metrics, [memory, *plain, *spans]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).exists():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oddspin" / "__init__.py").is_file():
        print(f"error: no oddspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("provenance " + json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": {name: workloads.build(name, args.seed).attempted
                       for name in workloads.WORKLOADS},
    }), flush=True)

    try:
        if args.trace:
            metrics, reps = measure_layers(args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, reps = measure_end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for failure in sorted(set(failures))[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for mode in ("memory", "plain", "spans"):
        mine = [r for r in reps if r["mode"] == mode]
        if mine:
            print(f"{mode} repetitions {len(mine)}: wall median"
                  f" {statistics.median(r['wall_s'] for r in mine):.6g} s, nominal median"
                  f" {statistics.median(r['nominal_s'] for r in mine):.6g} s, nominal each "
                  + " ".join(f"{r['nominal_s']:.4f}" for r in mine))
    for name, unit in units:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {_ratio(len(failures), attempted):.6g} "
          f"({len(failures)} of {attempted} operations failed)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
