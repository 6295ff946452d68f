"""Run one workload once in this fresh process and print one JSON line.

    python3 bench/worker.py <workload> <seed> <plain|spans|memory>

``plain`` times the operations, ``spans`` times them under the tracer, and
``memory`` runs them under tracemalloc to measure what the engine still
holds afterwards.  ``run.py`` starts one worker per repetition, so every
repetition starts with empty engine caches.
"""
from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def import_engine():
    """Import the package from this checkout's ``src``, and nowhere else."""
    import oddspin
    import oddspin.cli  # noqa: F401 - loads every layer module

    source = Path(oddspin.__file__).resolve()
    if source.parent.parent != ROOT / "src":
        raise ImportError(f"oddspin was imported from {source}, not from {ROOT / 'src'}")
    return oddspin


def run_workload(workload, oddspin) -> dict:
    """Run every operation in the workload's order and check it.

    An operation fails on a wrong exit code or value or an uncaught
    exception; each failure is counted and never stops the run.  The time
    measured is the engine's: checks run outside the timed calls.  Each
    call is timed between two reference loops, so the result carries
    both its wall time and its time in nominal seconds (``hostspeed``).
    """
    transcript = {}
    failures = []
    elapsed = 0
    nominal = 0.0
    hostspeed.reference()
    ref_after = hostspeed.reference_ns()
    for index in workload.order:
        op = workload.ops[index]
        ref_before = ref_after
        start = time.perf_counter_ns()
        try:
            outcome = op.run(oddspin)
            reason = None
        except Exception as err:  # a crash of one operation is a counted failure
            reason = f"uncaught {type(err).__name__}: {err}"
        took = time.perf_counter_ns() - start
        ref_after = hostspeed.reference_ns()
        elapsed += took
        nominal += hostspeed.nominal_s(took, ref_before, ref_after)
        if reason is None:
            transcript[index] = getattr(outcome, "stdout", "")
            try:
                reason = op.check(outcome)
            except Exception as err:  # malformed output is a failure, not a crash
                reason = f"unreadable output: {type(err).__name__}: {err}"
        if reason:
            failures.append(f"{op.label}: {reason}")
    if workload.digest is not None:
        digest = hashlib.sha256(
            "".join(transcript.get(i, "") for i in range(len(workload.ops))).encode()
        ).hexdigest()
        if digest != workload.digest:
            failures.append(f"stdout digest {digest} differs from the recorded one")
    return {"wall_s": elapsed / 1e9, "nominal_s": nominal,
            "attempted": workload.attempted, "failures": failures}


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    oddspin = import_engine()
    workload = workloads.build(name, seed)
    gc.collect()
    if mode == "plain":
        out = run_workload(workload, oddspin)
    elif mode == "spans":
        with Tracer() as tracer:
            out = run_workload(workload, oddspin)
        out["layers"] = tracer.layer_metrics()
    elif mode == "memory":
        tracemalloc.start()
        out = run_workload(workload, oddspin)
        gc.collect()
        out["retained_kb"] = tracemalloc.get_traced_memory()[0] / 1024
        tracemalloc.stop()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["mode"] = mode
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
