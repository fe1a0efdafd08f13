"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/one_pass.py --workload scan --seed 1 --trace 0

Imports the library from ``src/`` of the checkout this file sits in, builds
the inputs, times the workload's calls, checks their outputs, and prints one
JSON line with the timings, counts and failures.  A traced pass also writes
its spans to ``.bench_out/<workload>.spans.jsonl``.  ``run.py`` runs passes
and aggregates them; each pass is a new process so that the library's
module-level caches start cold, as they do for a command-line user.

``--record`` stores the checked outputs in ``reference.json`` instead of
comparing against it; use it only on the commit the reference comes from.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MAX_REPORTED_FAILURES = 10


def _cpu_s() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "subsets", "growth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="self-test: make one expected value wrong")
    parser.add_argument("--record", action="store_true",
                        help="store outputs as the reference instead of comparing")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import cayleyiso

    if Path(cayleyiso.__file__).resolve().parent != SRC / "cayleyiso":
        print(f"one_pass: imported cayleyiso from {cayleyiso.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    from tracing import Recorder

    make_inputs, run, check, extras = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(workloads.SIZES[args.profile][args.workload], args.seed)
    rec = Recorder(traced=bool(args.trace))

    cpu0 = _cpu_s()
    timed_start = time.monotonic()
    t0 = time.perf_counter()
    with rec.span("pass", args.workload):
        outputs = run(rec, inputs)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    if args.trace and extras is not None:
        with rec.span("traced-only"):
            extras(rec, inputs)

    reference = workloads.Reference(args.profile, args.workload, recording=args.record)
    check(rec, outputs, reference, inject_wrong=args.inject_wrong)
    if args.record:
        reference.save()

    summary = {
        "timed_start": timed_start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": [rec.failures[op] for op in sorted(rec.failures)][:MAX_REPORTED_FAILURES],
        "counters": outputs["counters"],
    }
    if args.trace:
        summary["layers"] = rec.layer_summary()
        OUT_DIR.mkdir(exist_ok=True)
        prefix = "" if args.profile == "full" else f"{args.profile}-"
        rec.write_spans(OUT_DIR / f"{prefix}{args.workload}.spans.jsonl")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
