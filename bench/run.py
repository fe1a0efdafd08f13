"""Benchmark runner for cayleyiso: run one workload for a fixed time, report metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --selftest

Runs passes of the workload one after another (a closed loop with one
client), each in a fresh interpreter (``one_pass.py``), until the next pass
would overrun ``--seconds``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``.  A traced run alternates untraced and traced passes, so
that it can also report the tracing overhead.  A readable table goes to
standard error, and the whole record, environment included, to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.

``--selftest`` runs every workload at tiny sizes, traced and untraced, and
once with a deliberately wrong expected value that must register as exactly
one failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "cayleyiso"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("scan", "subsets", "growth")
# every run must end within this many seconds, passes included
RUN_LIMIT_S = 170


class PassError(RuntimeError):
    """A pass did not finish and report; the run has no result."""


def run_pass(workload, seed, traced, profile="full", inject_wrong=False, timeout=RUN_LIMIT_S):
    """Run one pass in a new interpreter and return its summary.

    ``setup_s`` is measured from just before the process is started to the
    first timed call, which covers interpreter start, ``import cayleyiso``
    and input generation.
    """
    cmd = [sys.executable, str(BENCH_DIR / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--profile", profile]
    if inject_wrong:
        cmd.append("--inject-wrong")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass did not finish within {timeout:.0f} s") from exc
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with code {proc.returncode}")
    summary = json.loads(lines[-1])
    summary["setup_s"] = summary["timed_start"] - spawned
    summary["pass_s"] = ended - spawned
    summary["traced"] = traced
    return summary


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def per_layer_values(p) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    layers, counters = p["layers"], p["counters"]

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    def busy(name):
        return get(name, "busy_s")

    values = {
        "balls.enumerate_ball.busy_s": busy("balls.enumerate_ball"),
        "balls.elements": counters.get("elements", 0),
        "balls.elements_per_s": _rate(counters.get("elements", 0), busy("balls.enumerate_ball")),
        "balls.table_for_volume.busy_s": busy("balls.table_for_volume"),
        "folner.min_ratio_table.busy_s": busy("folner.min_ratio_table"),
        "folner.adjacency_index.busy_s": busy("folner.adjacency_index"),
        "folner.sets": counters.get("sets", 0),
        "folner.sets_per_s": _rate(counters.get("sets", 0), busy("folner.min_ratio_table")),
        "folner.folner_exact.busy_s": busy("folner.folner_exact"),
        "transport.pairs": counters.get("pairs", 0),
        "transport.pairs_per_s": _rate(counters.get("pairs", 0), busy("transport.build_ledger")),
        "transport.verify_lemma.busy_s": busy("transport.verify_lemma"),
        "isoperimetry.FiniteSubset.busy_s": busy("isoperimetry.FiniteSubset"),
        "constants.certify_ball_subsets.busy_s": busy("constants.certify_ball_subsets"),
        "constants.masks": counters.get("masks", 0),
        "constants.masks_per_s": _rate(counters.get("masks", 0),
                                       busy("constants.certify_ball_subsets")),
        "constants.certify_connected.busy_s": busy("constants.certify_connected"),
    }
    for name in ("transport.build_ledger", "isoperimetry.check_inequality"):
        for field in ("calls", "busy_s", "p50_us", "p99_us"):
            values[f"{name}.{field}"] = get(name, field)
    return values


def aggregate(passes, traced_run) -> dict:
    """Metric values of a run: medians over its passes."""
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    if not traced_run:
        return {
            "wall_s": wall,
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "peak_rss_mb": _peak_rss_mb(),
        }
    traced = [p for p in passes if p["traced"]]
    per_pass = [per_layer_values(p) for p in traced]
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    values["run.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    values["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / wall - 1
    return values


def _environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(args):
    """Run passes until the next one would overrun ``args.seconds``; return them."""
    started = time.monotonic()
    passes = []
    while True:
        # a traced run alternates plain and traced passes, plain first
        traced = bool(args.trace) and len(passes) % 2 == 1
        elapsed = time.monotonic() - started
        passes.append(run_pass(args.workload, args.seed, traced, timeout=RUN_LIMIT_S - elapsed))
        elapsed = time.monotonic() - started
        enough = any(not p["traced"] for p in passes) and (
            not args.trace or any(p["traced"] for p in passes))
        if enough and elapsed + statistics.median(p["pass_s"] for p in passes) > args.seconds:
            break
    return passes


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no library source at {PACKAGE}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    try:
        passes = measure(args)
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    units = _units()["per_layer" if args.trace else "end_to_end"]
    values = aggregate(passes, bool(args.trace))
    if set(values) != set(units):
        print(f"run.py: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    env = _environment(args)
    record = {"environment": env, "result": result,
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
              "layers": [p["layers"] for p in passes if p["traced"]]}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} operations failed; "
          f"nproc={env['nproc']} python={env['python']} commit={env['commit']}",
          file=sys.stderr)
    for p in passes:
        for reason in p["failures"]:
            print(f"  failure: {reason}", file=sys.stderr)
    for name in units:
        print(f"  {name:40s} {values[name]:16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def selftest() -> int:
    """Tiny sizes, every workload: no failures, except the one planted."""
    cases = [(workload, traced, False, 0) for workload in WORKLOADS for traced in (False, True)]
    cases.append(("scan", False, True, 1))  # one expected scan count made wrong
    ok = True
    for workload, traced, planted, expected in cases:
        p = run_pass(workload, seed=7, traced=traced, profile="tiny", inject_wrong=planted)
        good = p["failed"] == expected and p["attempted"] > 0
        ok &= good
        print(f"selftest {workload:8s} traced={int(traced)} planted={int(planted)}: "
              f"{p['failed']}/{p['attempted']} failed, expected {expected}: "
              f"{'ok' if good else 'UNEXPECTED'}")
        for reason in p["failures"]:
            print(f"  failure: {reason}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
