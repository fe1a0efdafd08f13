"""Acceptance battery: one function per criterion, shared by tests and the CLI.

Every criterion is an exact computation (integer or rational comparisons)
plus, where stated, independent oracles: brute-forced word norms, the exact
tree recursion for free-group spheres, and a windowed whole-subset search for
small Folner values on the line.

Determinism contract: no wall-clock text, all randomness drawn from fixed
seeds, all iteration orders canonical, so ``run_suite`` renders the same
bytes on every run.  Connected-subset scans use every CPU of the affinity
mask, and criterion 10 checks that their results do not depend on it: it
scans a fixed scope sequentially and with 8 forked workers, whatever the
mask, and compares the counts, minima and witnesses of both scans with
those of the battery's own ``min_ratio_table``.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .balls import enumerate_ball, table_for_volume
from .constants import (
    BallSubsetsScope,
    ConnectedScope,
    CscBound,
    FolnerBound,
    certify_at_scale,
    check_folner_form,
    csc_to_folner,
    folner_to_csc,
    quotient_estimate,
)
from .folner import _scan, folner_exact, min_ratio_table
from .groups import make_group
from .isoperimetry import FiniteSubset, boundary_ratio, check_inequality
from .transport import build_ledger, verify_lemma

__all__ = ["CriterionResult", "run_battery", "run_suite", "render"]

GROUP_DESCRIPTORS = ("z:1", "z:2", "free:2", "dinf", "heis", "lamplighter")

_SEED_TRANSPORT = 20260808
_SEED_BATTERY = 0xA5CE55
_SEED_REDUCTION = 0xF01E


class CriterionResult:
    __slots__ = ("index", "name", "passed", "details", "elapsed")

    def __init__(self, index: int, name: str, passed: bool, details: tuple, elapsed: float):
        self.index = index
        self.name = name
        self.passed = passed
        self.details = details
        self.elapsed = elapsed  # seconds; never rendered (reports must be byte-stable)


class _Run:
    """State shared by the criteria of one battery run: the largest ball
    table built so far per descriptor, and the transport result of criteria
    3 and 4.  Groups are not kept: they are immutable, cheap to build and
    equal when their descriptors are."""

    def __init__(self):
        self.tables = {}
        self.transport = None

    def table(self, desc: str, radius: int):
        existing = self.tables.get(desc)
        if existing is None or existing.max_radius < radius:
            self.tables[desc] = enumerate_ball(make_group(desc), radius)
        return self.tables[desc]


# --------------------------------------------------------------------------
# criterion 1: growth exactness against closed forms and brute-forced words


def _brute_word_norms(group, max_len: int) -> dict:
    """Word norms by exhausting every generator word up to ``max_len``.

    Independent of the BFS: no frontier, no dedup during generation; the
    first (shortest) length at which an element appears is its norm.
    """
    norms = {group.identity: 0}
    for length in range(1, max_len + 1):
        for word in itertools.product(group.generators, repeat=length):
            x = group.identity
            for letter in word:
                x = group.mul(x, letter)
            if x not in norms:
                norms[x] = length
    return norms


def _growth_exact(run: _Run):
    details = []
    ok = True

    tz = run.table("z:1", 20)
    ok_z = tz.b == [2 * r + 1 for r in range(21)]
    tz2 = run.table("z:2", 20)
    ok_z2 = tz2.b == [2 * r * r + 2 * r + 1 for r in range(21)]
    tf = run.table("free:2", 8)
    ok_f = tf.b == [2 * 3 ** r - 1 for r in range(9)]
    ok &= ok_z and ok_z2 and ok_f
    details.append(f"z:1 b_20={tz.b[20]}, z:2 b_20={tz2.b[20]}, free:2 b_8={tf.b[8]}")

    for desc in ("z:1", "z:2", "free:2"):
        group = make_group(desc)
        table = run.table(desc, 4)
        brute = _brute_word_norms(group, 4)
        in_ball = {x: n for x, n in table.norm_of.items() if n <= 4}
        agree = brute == in_ball
        ok &= agree
        details.append(f"{desc}: brute-force words to length 4 {'match' if agree else 'DIFFER'} "
                       f"({len(brute)} elements)")
    return ok, details


# --------------------------------------------------------------------------
# criterion 2: sphere/ball growth bounds on all five kinds


def _free_counts_by_recursion(rank: int, radius: int):
    """Exact sphere counts for a free group: reduced words form a tree, so
    s_1 = 2 rank and s_r = (2 rank - 1) s_{r-1}; no enumeration needed."""
    s = [1, 2 * rank]
    for _ in range(2, radius + 1):
        s.append((2 * rank - 1) * s[-1])
    b = [1]
    for r in range(1, radius + 1):
        b.append(b[-1] + s[r])
    return b, s


def _growth_bounds(run: _Run):
    details = []
    ok = True
    for desc, radius in (("z:1", 20), ("z:2", 20), ("dinf", 20), ("heis", 8), ("lamplighter", 6)):
        table = run.table(desc, radius)
        spheres = verify_lemma("spheres", table=table)
        balls = verify_lemma("balls", table=table)
        ok &= spheres.holds and balls.holds
        details.append(f"{desc} (r<={radius}): spheres {spheres.holds}, balls {balls.holds}")

    b, s = _free_counts_by_recursion(2, 20)
    size = 4
    free_ok = all(s[r] <= (size - 1) * s[r - 1] and b[r] <= size * b[r - 1]
                  for r in range(2, 21))
    cross = run.table("free:2", 8).b[:9] == b[:9]
    ok &= free_ok and cross
    details.append(f"free:2 (r<=20): bounds {free_ok}, tree recursion matches search to r=8: {cross}")
    return ok, details


# --------------------------------------------------------------------------
# criteria 3 and 4: transport identities on one shared instance set


def _transport_results(run: _Run) -> dict:
    if run.transport is not None:
        return run.transport
    counting_ok = True
    transport_ok = True
    fiber_ok = True
    exhaustive = 0
    randomized = 0

    for desc in ("z:1", "z:2"):
        group = make_group(desc)
        table = run.table(desc, 20)
        members = table.members(2)
        n = len(members)
        for mask in range(1, 1 << n):
            omega = FiniteSubset(group, [members[i] for i in range(n) if mask >> i & 1])
            ledger = build_ledger(omega, table, 2)
            counting_ok &= verify_lemma("counting", ledger=ledger).holds
            transport_ok &= verify_lemma("transport", ledger=ledger).holds
            fiber_ok &= verify_lemma("fiber", ledger=ledger).holds
            exhaustive += 1

    rng = random.Random(_SEED_TRANSPORT)
    for i in range(200):
        desc = GROUP_DESCRIPTORS[i % len(GROUP_DESCRIPTORS)]
        group = make_group(desc)
        table = run.table(desc, 4)
        pool = table.members(3)
        size = min(rng.randint(1, 12), len(pool))
        omega = FiniteSubset(group, rng.sample(pool, size))
        r = rng.randint(1, 3)
        ledger = build_ledger(omega, table, r)
        counting_ok &= verify_lemma("counting", ledger=ledger).holds
        transport_ok &= verify_lemma("transport", ledger=ledger).holds
        fiber_ok &= verify_lemma("fiber", ledger=ledger).holds
        randomized += 1

    run.transport = {
        "counting": counting_ok,
        "transport": transport_ok,
        "fiber": fiber_ok,
        "exhaustive": exhaustive,
        "randomized": randomized,
    }
    return run.transport


def _counting(run: _Run):
    res = _transport_results(run)
    details = (
        f"exhaustive instances (all subsets of B(2) in z:1 and z:2 at r=2): {res['exhaustive']}",
        f"randomized instances (|W|<=12, r<=3, fixed seed): {res['randomized']}",
    )
    return res["counting"], details


def _transport_bounds(run: _Run):
    res = _transport_results(run)
    return res["transport"] and res["fiber"], (
        "|W_g| <= |g| |bd W| and fiber <= |g| on the criterion-3 instance set",)


# --------------------------------------------------------------------------
# criterion 5: the inequality battery


def _battery_forms():
    alphas = (Fraction(1, 2), Fraction(1), Fraction(2))
    epses = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    forms = [("csc-original", {})]
    forms += [("avg-growth", {"alpha": a}) for a in alphas]
    forms += [("growth-cor", {"alpha": a}) for a in alphas]
    forms += [("epsilon", {"eps": e}) for e in epses]
    forms += [("pete-correia", {})]
    return forms


def _random_connected(group, rng, size: int) -> FiniteSubset:
    current = {group.identity}
    while len(current) < size:
        candidates = sorted(
            {group.mul(x, s) for x in current for s in group.generators} - current,
            key=group.key,
        )
        current.add(candidates[rng.randrange(len(candidates))])
    return FiniteSubset(group, current)


def _inequalities(run: _Run):
    forms = _battery_forms()
    details = []
    ok = True

    # (a) every non-empty subset of B(2), directly
    for desc in ("z:1", "z:2"):
        group = make_group(desc)
        table = run.table(desc, 20)
        members = table.members(2)
        n = len(members)
        checked = 0
        for mask in range(1, 1 << n):
            omega = FiniteSubset(group, [members[i] for i in range(n) if mask >> i & 1])
            for form, params in forms:
                ok &= check_inequality(omega, table, form, **params).holds
            checked += 1
        details.append(f"{desc}: all {checked} subsets of B(2) x {len(forms)} forms")

    # (b) every connected subset containing e with size <= 9.  The right-hand
    # side of every form depends on a subset only through its cardinality, so
    # holding at the per-size minimum ratio is equivalent to holding on every
    # set; the minimum is attained by the stored witness, which is checked
    # through the ordinary checker.
    rng = random.Random(_SEED_BATTERY)
    for desc in ("dinf", "heis", "lamplighter"):
        group = make_group(desc)
        mrt = min_ratio_table(group, 9)
        vt = table_for_volume(group, 36)
        for m in range(1, 10):
            witness = mrt.witness_subset(m)
            attained = boundary_ratio(witness) == mrt.min_ratio(m)
            ok &= attained
            for form, params in forms:
                ok &= check_inequality(witness, vt, form, **params).holds
        sampled = 0
        for _ in range(50):
            omega = _random_connected(group, rng, rng.randint(2, 9))
            for form, params in forms:
                ok &= check_inequality(omega, vt, form, **params).holds
            sampled += 1
        total = sum(mrt.count[1:])
        details.append(f"{desc}: {total} connected sets reduced to 9 per-size minima, "
                       f"{sampled} sampled sets checked directly")
    return ok, details


# --------------------------------------------------------------------------
# criterion 6: Folner exactness with an independent windowed oracle


def _line_window_folner(n: int, half_width: int = 7, max_size: int = 12):
    """Minimum size of ANY subset of a line window with ratio <= 1/n.

    Arbitrary subsets (not only connected) of the integer window
    [-half_width, half_width]; combined with the component/translation
    reduction this pins the true line value for sizes <= max_size.
    """
    width = 2 * half_width + 1
    best = None
    for mask in range(1, 1 << width):
        size = mask.bit_count()
        if size > max_size or (best is not None and size >= best):
            continue
        bcount = 0
        m = mask
        while m:
            low = m & (-m)
            i = low.bit_length() - 1
            m ^= low
            left = i > 0 and (mask >> (i - 1)) & 1
            right = i < width - 1 and (mask >> (i + 1)) & 1
            if not (left and right):
                bcount += 1
        if bcount * n <= size:
            best = size
    return best


def _folner_values(run: _Run):
    details = []
    ok = True

    for desc in GROUP_DESCRIPTORS:
        group = make_group(desc)
        record = folner_exact(group, 1, 4)
        good = record.value == 1 and boundary_ratio(record.witness) <= 1
        ok &= good
    details.append("fol(1) = 1 with verified witness on all six groups")

    for desc in ("z:1", "dinf"):
        group = make_group(desc)
        values = []
        for n in range(2, 7):
            record = folner_exact(group, n, 14)
            good = (
                record.value == 2 * n
                and record.witness is not None
                and boundary_ratio(record.witness) <= Fraction(1, n)
            )
            ok &= good
            values.append(record.value)
        details.append(f"{desc}: fol(2..6) = {values}, witnesses verified, search cap 14")

    oracle = [(n, _line_window_folner(n)) for n in range(2, 7)]
    oracle_ok = all(v == 2 * n for n, v in oracle)
    ok &= oracle_ok
    details.append(f"windowed whole-subset oracle on the line agrees: {oracle}")
    return ok, details


# --------------------------------------------------------------------------
# criterion 7: both conversion directions validated at scale


def _conversions(run: _Run):
    details = []
    ok = True

    inner = csc_to_folner(CscBound(Fraction(1, 2), Fraction(1)), Fraction(1))
    for desc in ("z:1", "dinf"):
        group = make_group(desc)
        table = run.table(desc, 20)
        records = [folner_exact(group, n, 14) for n in range(1, 7)]
        report = check_folner_form(inner, table, records)
        good = report.holds and report.indeterminate == 0
        ok &= good
        details.append(f"{desc}: folner(n) >= |B(n/2 - 1)|/2 on exact records n<=6: {good}")

    outer = folner_to_csc(FolnerBound(Fraction(1), Fraction(0), Fraction(0)), 2)
    expected = CscBound(Fraction(1), Fraction(1))
    ok &= outer == expected
    cert = certify_at_scale(make_group("z:1"), outer, BallSubsetsScope(2))
    ok &= cert.holds
    details.append(f"inflation 2^1: ratio >= 1/Phi[2|W|] over all B(2) subsets of z:1: {cert.holds}")
    return ok, details


# --------------------------------------------------------------------------
# criterion 8: scoped certificates and the uncertified quotient report


def _certificates(run: _Run):
    details = []
    ok = True
    bound = CscBound(Fraction(3, 4), Fraction(3))

    for desc in ("z:1", "z:2"):
        cert = certify_at_scale(make_group(desc), bound, BallSubsetsScope(2))
        ok &= cert.holds
        details.append(f"{desc}: c=3/4, alpha=3 over all B(2) subsets: {cert.holds}")
    for desc in ("free:2", "dinf", "heis", "lamplighter"):
        cert = certify_at_scale(make_group(desc), bound, ConnectedScope(9))
        ok &= cert.holds
        details.append(f"{desc}: c=3/4, alpha=3 over connected sets <= 9: {cert.holds}")

    group = make_group("lamplighter")
    table = run.table("lamplighter", 8)
    records = [folner_exact(group, n, 9) for n in range(1, 9)]
    estimate = quotient_estimate(group, 8, records, table)
    uncertified = estimate.certified_interval is None and len(estimate.caveats) > 0
    ok &= uncertified
    ok &= estimate.denominator_upper > 0
    ok &= estimate.numerator_upper is not None
    upper = "none" if estimate.numerator_upper is None else f"{estimate.numerator_upper:.4f}"
    details.append(
        "lamplighter quotient report: window interval "
        f"[{estimate.numerator_lower:.4f}, {upper}] / "
        f"{estimate.denominator_upper:.4f}, nothing certified: {uncertified}"
    )
    return ok, details


# --------------------------------------------------------------------------
# criterion 9: soundness of the connected-search reduction


def _components(group, omega: FiniteSubset):
    remaining = set(omega.elements)
    parts = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for s in group.generators:
                y = group.mul(x, s)
                if y in remaining:
                    remaining.discard(y)
                    comp.add(y)
                    stack.append(y)
        parts.append(FiniteSubset(group, comp))
    return parts


def _reduction(run: _Run):
    rng = random.Random(_SEED_REDUCTION)
    ok = True
    per_group = 500
    for desc in GROUP_DESCRIPTORS:
        group = make_group(desc)
        table = run.table(desc, 4)
        pool = table.members(4)
        translate_pool = table.members(3)
        for _ in range(per_group):
            size = min(rng.randint(1, 10), len(pool))
            omega = FiniteSubset(group, rng.sample(pool, size))
            ratio = boundary_ratio(omega)
            parts = _components(group, omega)
            best = min(parts, key=boundary_ratio)
            ok &= boundary_ratio(best) <= ratio and len(best) <= len(omega)
            # boundaries decompose exactly over components
            ok &= sum(len(p.boundary_set()) for p in parts) == len(omega.boundary_set())
            g = translate_pool[rng.randrange(len(translate_pool))]
            shifted = omega.translate(g)
            ok &= boundary_ratio(shifted) == ratio
            expected = frozenset(group.mul(g, x) for x in omega.boundary_set())
            ok &= shifted.boundary_set() == expected
    return ok, (f"{per_group} random component/translation checks per group, fixed seed",)


# --------------------------------------------------------------------------
# criterion 10: the parallel scan reproduces the sequential one


def _scans_agree():
    ok = True
    # under a second of scans in all, each deep enough to split into tasks
    # and settled within its first task, so the later tasks are forked
    for desc, size in (("heis", 9), ("z:2", 9), ("lamplighter", 7)):
        table = min_ratio_table(make_group(desc), size)
        # counts, minima and witness index tuples, on the table's own index;
        # 8 workers are forked whatever the affinity mask, and a scan that
        # forked none (as beside another thread) would check nothing
        for workers in (1, 8):
            *scan, processes = _scan(table.index.adj, size, workers=workers)
            ok &= scan == [table.count, table.min_boundary, table.witness]
            ok &= (processes > 1) == (workers > 1)
    return ok, ()


# --------------------------------------------------------------------------
# battery, rendering, suite


#: index, name and check of each criterion; a check returns (passed, details)
_CRITERIA = (
    (1, "growth counts match closed forms (z:1, z:2, free:2; words brute-forced to r=4)",
     _growth_exact),
    (2, "sphere and ball growth bounds hold on all five built-in kinds", _growth_bounds),
    (3, "ray and translate countings agree exactly on every instance", _counting),
    (4, "translate-set and exit-fiber bounds hold on the same instances", _transport_bounds),
    (5, "isoperimetric inequality battery holds on exhaustive and connected scopes",
     _inequalities),
    (6, "Folner values exact: fol(1)=1 everywhere, fol(n)=2n on z:1 and dinf for n=2..6",
     _folner_values),
    (7, "bound conversions validated in both directions at scale", _conversions),
    (8, "scoped certificates pass at c=3/4, alpha=3; quotient report stays uncertified",
     _certificates),
    (9, "connected-search reduction is sound (components and translations)", _reduction),
    (10, "suite reports byte-identical for thread counts 1 and 8", _scans_agree),
)


def _run_criterion(index: int, name: str, check, *args) -> CriterionResult:
    """Run one check and time it."""
    t0 = time.monotonic()
    passed, details = check(*args)
    return CriterionResult(index, name, passed, tuple(details), time.monotonic() - t0)


def run_battery():
    """Run criteria 1..9 once, on one shared run context; return the results."""
    run = _Run()
    return [_run_criterion(*criterion, run) for criterion in _CRITERIA[:9]]


def _criterion_10() -> CriterionResult:
    """The determinism criterion, which needs no run context."""
    return _run_criterion(*_CRITERIA[9])


def render(results) -> str:
    lines = ["cayleyiso acceptance suite", "=" * 26]
    for res in results:
        lines.append(f"[{res.index:2d}] {'PASS' if res.passed else 'FAIL'} {res.name}")
        for detail in res.details:
            lines.append(f"      - {detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"summary: {passed}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"


def run_suite():
    """Criteria 1..9 and the determinism criterion; returns (text, all_passed)."""
    results = run_battery() + [_criterion_10()]
    return render(results), all(r.passed for r in results)
