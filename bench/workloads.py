"""The benchmark's workloads: timed calls into the library, then output checks.

Each workload has three parts.  ``inputs_*`` builds the inputs from the seed
before the timer starts.  ``run_*`` makes every timed call through a
:class:`tracing.Recorder` and keeps a compact record of the outputs plus
exact work counters.  ``check_*`` runs after the timer stops and compares the
record with independent oracles (see ``oracles.py``) and with values recorded
from a reference commit (``reference.json``).  A mismatch is charged to the
call whose output it concerns.

Only ``subsets`` draws its instances from the seed.  The cost of ``scan``
and ``growth`` is set by their (group, size) pairs, so their inputs are
fixed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import cayleyiso as ci
from cayleyiso.folner import adjacency_index

import oracles

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Sizes are scaled so that one pass takes a few seconds on one core; see
# README.md for the full-size timings they were scaled from.  The "tiny"
# profile is the harness self-test.
SIZES = {
    "full": {
        "scan": {"groups": (("lamplighter", 7), ("heis", 9), ("z:2", 9), ("free:2", 7))},
        "subsets": {
            # (group, ball radius, number of subsets sampled, or None for all)
            "exhaustive": (("z:1", 2, None), ("z:2", 2, 1536)),
            "random_max_size": 12,
            "random_max_radius": 3,
            "certify": ("heis", "free:2"),
            "certify_radius": 2,
        },
        "growth": {
            "balls": (("heis", 20), ("free:2", 9), ("z:3", 24), ("lamplighter", 10)),
            "volume": ("z:2", 5000),
        },
    },
    "tiny": {
        "scan": {"groups": (("lamplighter", 4), ("heis", 4), ("z:2", 4), ("free:2", 4))},
        "subsets": {
            "exhaustive": (("z:1", 1, None), ("z:2", 1, None)),
            "random_max_size": 3,
            "random_max_radius": 1,
            "certify": ("heis", "free:2"),
            "certify_radius": 1,
        },
        "growth": {
            "balls": (("heis", 3), ("free:2", 3), ("z:3", 3), ("lamplighter", 3)),
            "volume": ("z:2", 50),
        },
    },
}

ALL_GROUPS = ("z:1", "z:2", "free:2", "dinf", "heis", "lamplighter")
CERT_BOUND = ci.CscBound(Fraction(3, 4), Fraction(3))
FOLNER_N = (2, 3, 4, 5, 6)
LEDGER_RADIUS = 2
LEDGER_LEMMAS = ("counting", "transport", "fiber")
# Table radius for the exhaustive subsets: large enough that the growth
# inverse of every form's volume stays inside the table on z:1 and z:2.
SUBSET_TABLE_RADIUS = 20
RANDOM_TABLE_RADIUS = 4


def _battery_forms():
    """The eleven inequality forms of the acceptance battery, with labels."""
    forms = [("csc-original", {})]
    forms += [("avg-growth", {"alpha": a}) for a in (Fraction(1, 2), Fraction(1), Fraction(2))]
    forms += [("growth-cor", {"alpha": a}) for a in (Fraction(1, 2), Fraction(1), Fraction(2))]
    forms += [("epsilon", {"eps": e}) for e in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    forms += [("pete-correia", {})]
    return [(form, params, form + "".join(f" {k}={v}" for k, v in params.items()))
            for form, params in forms]


FORMS = _battery_forms()


class Reference:
    """Outputs recorded from a reference commit, keyed by a path string.

    With ``recording`` set, :meth:`matches` stores the value instead of
    comparing, and :meth:`save` writes the file back.
    """

    def __init__(self, profile: str, workload: str, recording: bool):
        self._all = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
        self.values = self._all.setdefault(profile, {}).setdefault(workload, {})
        self.recording = recording

    def matches(self, key: str, actual) -> bool:
        actual = json.loads(json.dumps(actual))
        if self.recording:
            self.values[key] = actual
            return True
        return key in self.values and self.values[key] == actual

    def save(self):
        REFERENCE_PATH.write_text(json.dumps(self._all, indent=1, sort_keys=True) + "\n")


def _check_ref(rec, ref, op, key, actual):
    rec.check(op, ref.matches(key, actual), f"{key} = {str(actual)[:120]} differs from reference")


def _expected_ball(rec, ref, op, key, descriptor, b):
    """Closed-form ball sizes where one exists, else the reference values."""
    expected = oracles.ball_sizes(descriptor, len(b) - 1)
    if expected is None:
        _check_ref(rec, ref, op, key, b)
        return list(b)
    rec.check(op, list(b) == expected, f"{key} = {b} differs from the closed form")
    return expected


# --------------------------------------------------------------------------
# scan: the connected-subset scan behind Folner values and certificates


def inputs_scan(sizes, seed):
    return [(ci.make_group(desc), k) for desc, k in sizes["groups"]]


def run_scan(rec, inputs):
    out = {"cases": [], "counters": {"sets": 0}}
    for group, k in inputs:
        with rec.span("case:scan", f"{group.descriptor} k={k}"):
            table = rec.call("folner.min_ratio_table", ci.min_ratio_table, group, k)
            cert = rec.call("constants.certify_connected", ci.certify_at_scale,
                            group, CERT_BOUND, ci.ConnectedScope(k))
            records = [rec.call("folner.folner_exact", ci.folner_exact, group, n, k)
                       for n in FOLNER_N]
        if table[1] is not None:
            out["counters"]["sets"] += sum(table[1].count)
        out["cases"].append((group, k, table, cert, records))
    return out


def extras_scan(rec, inputs):
    """Traced passes only: the adjacency index alone, on the same inputs, so
    that the scan's own time is the difference."""
    for group, k in inputs:
        with rec.span("case:index", f"{group.descriptor} k={k}"):
            rec.call("folner.adjacency_index", adjacency_index, group, k)


_COUNT_ORACLES = {
    "z:2": oracles.z2_connected_counts,
    "free:2": oracles.free2_connected_counts,
}


def check_scan(rec, out, ref, inject_wrong=False):
    for group, k, (t_op, table), (c_op, cert), records in out["cases"]:
        desc = group.descriptor
        key = f"{desc}/k={k}"
        if table is not None:
            oracle = _COUNT_ORACLES.get(desc)
            if oracle is not None:
                expected = oracle(k)
                if inject_wrong and desc == "z:2":
                    expected[2] += 1  # the self-test's deliberately wrong value
                rec.check(t_op, table.count == expected,
                          f"{key} counts {table.count[1:]} differ from oracle {expected[1:]}")
            _check_ref(rec, ref, t_op, f"{key}/count", table.count)
            _check_ref(rec, ref, t_op, f"{key}/min_boundary", table.min_boundary)
            _check_ref(rec, ref, t_op, f"{key}/witness",
                       [table.witness_subset(m).keys() for m in range(1, k + 1)])
        if cert is not None:
            _check_ref(rec, ref, c_op, f"{key}/certificate", cert.to_json_dict())
            if table is not None:
                rec.check(c_op, cert.checked_sets == sum(table.count),
                          f"{key} certificate checked {cert.checked_sets} sets, "
                          f"scan counted {sum(table.count)}")
        for n, (f_op, record) in zip(FOLNER_N, records):
            if record is not None:
                _check_ref(rec, ref, f_op, f"{key}/folner n={n}", record.to_json_dict())


# --------------------------------------------------------------------------
# subsets: many small exact checks on ledgers, inequalities and certificates


def inputs_subsets(sizes, seed):
    rng = random.Random(seed)
    exhaustive = []
    for desc, radius, sample in sizes["exhaustive"]:
        n = oracles.ball_sizes(desc, radius)[radius]
        masks = range(1, 1 << n)
        if sample is not None:
            masks = sorted(rng.sample(masks, sample))
        exhaustive.append((ci.make_group(desc), radius, list(masks)))
    # one random instance per (group, radius, size) stratum keeps the amount
    # of work the same for every seed; only the chosen elements vary
    strata = [(r, size, rng.getrandbits(64))
              for r in range(1, sizes["random_max_radius"] + 1)
              for size in range(1, sizes["random_max_size"] + 1)]
    randomized = [(ci.make_group(desc), strata) for desc in ALL_GROUPS]
    certify = [(ci.make_group(desc), sizes["certify_radius"]) for desc in sizes["certify"]]
    return {"exhaustive": exhaustive, "random": randomized, "certify": certify}


def _subset_case(rec, out, group, elements, table, r, forms):
    omega = rec.call("isoperimetry.FiniteSubset", ci.FiniteSubset, group, elements)
    if omega[1] is None:
        return
    ledger = rec.call("transport.build_ledger", ci.build_ledger, omega[1], table, r)
    lemmas = []
    if ledger[1] is not None:
        out["counters"]["pairs"] += len(omega[1]) * table.b[r]
        lemmas = [rec.call("transport.verify_lemma", ci.verify_lemma, which, ledger=ledger[1])
                  for which in LEDGER_LEMMAS]
        ledger = (ledger[0], (ledger[1].sum_omega_g, ledger[1].sum_rays))
    inequalities = [rec.call("isoperimetry.check_inequality", ci.check_inequality,
                             omega[1], table, form, **params)
                    for form, params, _ in forms]
    out["cases"].append((group, tuple(elements), table, r, omega, ledger, lemmas, inequalities))


def run_subsets(rec, inputs):
    out = {"tables": [], "cases": [], "certs": [],
           "counters": {"elements": 0, "pairs": 0, "masks": 0}}

    def table_for(group, radius):
        with rec.span("case:table", f"{group.descriptor} r={radius}"):
            op, table = rec.call("balls.enumerate_ball", ci.enumerate_ball, group, radius)
        out["tables"].append((group, op, table))
        if table is not None:
            out["counters"]["elements"] += table.b[-1]
        return table

    for group, radius, masks in inputs["exhaustive"]:
        table = table_for(group, SUBSET_TABLE_RADIUS)
        if table is None:
            continue
        members = table.members(radius)
        for mask in masks:
            with rec.span("case:subset", f"{group.descriptor} mask={mask}"):
                elements = [x for i, x in enumerate(members) if mask >> i & 1]
                _subset_case(rec, out, group, elements, table, LEDGER_RADIUS, FORMS)

    for group, strata in inputs["random"]:
        table = table_for(group, RANDOM_TABLE_RADIUS)
        if table is None:
            continue
        pool = table.members(RANDOM_TABLE_RADIUS - 1)
        for r, size, sub_seed in strata:
            with rec.span("case:ledger", f"{group.descriptor} r={r} size={size}"):
                elements = random.Random(sub_seed).sample(pool, min(size, len(pool)))
                _subset_case(rec, out, group, elements, table, r, ())

    for group, radius in inputs["certify"]:
        with rec.span("case:certify", f"{group.descriptor} B({radius})"):
            op, cert = rec.call("constants.certify_ball_subsets", ci.certify_at_scale,
                                group, CERT_BOUND, ci.BallSubsetsScope(radius))
        out["certs"].append((group, radius, op, cert))
        if cert is not None:
            out["counters"]["masks"] += cert.checked_sets
    return out


def check_subsets(rec, out, ref, inject_wrong=False):
    for group, op, table in out["tables"]:
        if table is not None:
            _expected_ball(rec, ref, op, f"{group.descriptor}/b r={table.max_radius}",
                           group.descriptor, table.b)
    for group, elements, table, r, (w_op, omega), ledger, lemmas, inequalities in out["cases"]:
        desc = group.descriptor
        expected = frozenset(elements)
        rec.check(w_op, omega.elements == expected, f"{desc} subset holds other elements")
        l_op, sums = ledger
        if sums is not None:
            pairs = oracles.translate_pair_count(group, expected, table.members(r))
            rec.check(l_op, sums == (pairs, pairs),
                      f"{desc} |W|={len(expected)} r={r}: ledger sums {sums}, recount {pairs}")
        for which, (op, report) in zip(LEDGER_LEMMAS, lemmas):
            if report is not None:
                rec.check(op, report.holds, f"{desc} lemma {which} fails: {report.detail}")
        if not inequalities:
            continue
        lhs = Fraction(oracles.inner_boundary_size(group, expected), len(expected))
        for (form, params, label), (op, report) in zip(FORMS, inequalities):
            if report is None:
                continue
            rhs = oracles.inequality_rhs(desc, form, len(expected), **params)
            rec.check(op, report.holds and (report.lhs, report.rhs) == (lhs, rhs),
                      f"{desc} |W|={len(expected)} {label}: holds={report.holds}, "
                      f"sides {report.lhs}, {report.rhs}, expected {lhs}, {rhs}")
    for group, radius, op, cert in out["certs"]:
        if cert is not None:
            _check_ref(rec, ref, op, f"{group.descriptor}/certificate B({radius})",
                       cert.to_json_dict())


# --------------------------------------------------------------------------
# growth: a few large BFS balls and the quantities read off them


def inputs_growth(sizes, seed):
    desc, volume = sizes["volume"]
    return {"balls": [(ci.make_group(d), r) for d, r in sizes["balls"]],
            "volume": (ci.make_group(desc), volume)}


def _table_queries(rec, table):
    """phi on both sides of every ball size, every average length, the growth
    estimate; returns the outputs, so that the table itself can be freed."""
    top = table.max_radius
    phis = [(v, rec.call("balls.phi", ci.phi, table, v))
            for r in range(top) for v in (table.b[r] - 1, table.b[r])]
    avgs = [rec.call("balls.average_length", ci.average_length, table, r)
            for r in range(top + 1)]
    growth = rec.call("balls.growth_rate_upper", ci.growth_rate_upper, table, top)
    return {"b": list(table.b), "phi": phis, "avg": avgs, "growth": growth}


def run_growth(rec, inputs):
    out = {"cases": [], "counters": {"elements": 0}}
    for group, radius in inputs["balls"]:
        with rec.span("case:ball", f"{group.descriptor} r={radius}"):
            op, table = rec.call("balls.enumerate_ball", ci.enumerate_ball, group, radius)
            if table is not None:
                out["counters"]["elements"] += table.b[-1]
                out["cases"].append((group, op, _table_queries(rec, table)))
            del table
    group, volume = inputs["volume"]
    with rec.span("case:volume", f"{group.descriptor} v={volume}"):
        op, table = rec.call("balls.table_for_volume", ci.table_for_volume, group, volume)
        if table is not None:
            out["volume"] = (group, volume, op, _table_queries(rec, table))
        del table
    return out


def _check_queries(rec, ref, key, group, op, q):
    b = _expected_ball(rec, ref, op, f"{key}/b", group.descriptor, q["b"])
    for v, (p_op, r) in q["phi"]:
        if r is not None:
            expected = next(i for i, size in enumerate(b) if size > v)
            rec.check(p_op, r == expected, f"{key} phi({v}) = {r}, expected {expected}")
    length_sum = 0
    for r, (a_op, avg) in enumerate(q["avg"]):
        length_sum += r * (b[r] - (b[r - 1] if r else 0))
        if avg is not None:
            rec.check(a_op, avg == Fraction(length_sum, b[r]),
                      f"{key} average length at r={r} is {avg}")
    g_op, growth = q["growth"]
    if growth is not None:
        top = len(b) - 1
        per_n = tuple(math.log(b[n]) / n for n in range(1, top + 1))
        rec.check(g_op, growth.per_n == per_n and growth.fekete_inf == min(per_n),
                  f"{key} growth estimate {growth.fekete_inf} differs from min ln(b_n)/n")
        _check_ref(rec, ref, g_op, f"{key}/exponential evidence", growth.is_exponential_evidence)


def check_growth(rec, out, ref, inject_wrong=False):
    for group, op, q in out["cases"]:
        _check_queries(rec, ref, f"{group.descriptor}/r={len(q['b']) - 1}", group, op, q)
    if "volume" in out:
        group, volume, op, q = out["volume"]
        # table_for_volume starts at radius 4 and doubles it until b_R > volume;
        # the volume workload uses a group with a closed-form ball size
        radius = 4
        while oracles.ball_sizes(group.descriptor, radius)[-1] <= volume:
            radius *= 2
        rec.check(op, len(q["b"]) - 1 == radius,
                  f"table_for_volume({volume}) has radius {len(q['b']) - 1}, expected {radius}")
        _check_queries(rec, ref, f"{group.descriptor}/volume={volume}", group, op, q)


WORKLOADS = {
    "scan": (inputs_scan, run_scan, check_scan, extras_scan),
    "subsets": (inputs_subsets, run_subsets, check_subsets, None),
    "growth": (inputs_growth, run_growth, check_growth, None),
}
