import itertools
import os
import random
import signal
import threading
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cayleyiso.balls import INFINITE, enumerate_ball
from cayleyiso.errors import BadParams, NoFamilyForKind
from cayleyiso.folner import (
    LowerBound,
    _scan,
    adjacency_index,
    connected_subsets,
    folner_exact,
    folner_family_upper,
    min_ratio_table,
)
from cayleyiso.groups import make_group
from cayleyiso.isoperimetry import FiniteSubset, boundary_ratio

from conftest import BUILTIN_DESCRIPTORS


# ------------------------------------------------------- connected_subsets

def test_connected_subsets_line_size3_exact_order():
    z = make_group("z:1")
    got = [s.elements for s in connected_subsets(z, 3)]
    expected = [
        {(0,)},
        {(0,), (1,)},
        {(-1,), (0,)},
        {(0,), (1,), (2,)},
        {(-1,), (0,), (1,)},
        {(-2,), (-1,), (0,)},
    ]
    assert got == [frozenset(e) for e in expected]


def test_connected_subsets_size_one():
    for desc in ("z:2", "lamplighter"):
        g = make_group(desc)
        sets = list(connected_subsets(g, 1))
        assert len(sets) == 1
        assert sets[0].elements == frozenset({g.identity})


def test_connected_subsets_z2_size2():
    z2 = make_group("z:2")
    sets = list(connected_subsets(z2, 2))
    assert len(sets) == 5
    assert sets[0].elements == frozenset({(0, 0)})
    for s in sets[1:]:
        assert (0, 0) in s.elements and len(s) == 2


def _uf_connected(group, elements):
    elements = list(elements)
    parent = {x: x for x in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    inside = set(elements)
    for x in elements:
        for s in group.generators:
            y = group.mul(x, s)
            if y in inside:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
    return len({find(x) for x in elements}) == 1


@pytest.mark.parametrize("desc,size", [
    ("z:2", 4), ("dinf", 5), ("lamplighter", 3), ("heis", 4), ("free:2", 4),
])
def test_connected_subsets_match_brute_force(desc, size):
    group = make_group(desc)
    emitted = [s.elements for s in connected_subsets(group, size)]
    # no duplicates, all connected (independent union-find), all contain e
    assert len(emitted) == len(set(emitted))
    for elems in emitted:
        assert group.identity in elems
        assert _uf_connected(group, elems)
    # brute force: every subset of B(size-1) containing e, filtered connected
    ball = enumerate_ball(group, size).members(size - 1)
    rest = [x for x in ball if x != group.identity]
    brute = set()
    count = [0] * (size + 1)
    min_boundary = [None] * (size + 1)
    for k in range(0, size):
        for combo in itertools.combinations(rest, k):
            cand = frozenset(combo) | {group.identity}
            if _uf_connected(group, cand):
                brute.add(cand)
                count[k + 1] += 1
                b = len(FiniteSubset(group, cand).boundary_set())
                if min_boundary[k + 1] is None or b < min_boundary[k + 1]:
                    min_boundary[k + 1] = b
    assert set(emitted) == brute
    table = min_ratio_table(group, size, use_cache=False)
    assert table.count == count
    assert table.min_boundary == min_boundary


def _series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


def _series_pow(a, e, order):
    out = [1] + [0] * order
    for _ in range(e):
        out = _series_mul(out, a, order)
    return out


def _free2_rooted_subtrees(order):
    # coefficients of T = x(1+U)^4 where U = x(1+U)^3: subtrees of the
    # 4-regular tree containing a fixed vertex, by number of vertices
    u = [0] * (order + 1)
    for _ in range(order):
        u = [0] + _series_pow([1 + u[0]] + u[1:], 3, order)[:order]
    return [0] + _series_pow([1 + u[0]] + u[1:], 4, order)[:order]


def test_connected_counts_known_sequences():
    # rooted square-lattice animal counts and the 4-regular-tree closed form
    # fixed polyominoes (OEIS A001168); a rooted animal of n cells is one of
    # them with one of its n cells at the identity
    fixed_polyominoes = [1, 2, 6, 19, 63, 216, 760, 2725, 9910]
    z2 = min_ratio_table(make_group("z:2"), 9, use_cache=False)
    assert z2.count == [0] + [n * a for n, a in enumerate(fixed_polyominoes, 1)]
    free = min_ratio_table(make_group("free:2"), 7, use_cache=False)
    assert free.count == _free2_rooted_subtrees(7)
    line = min_ratio_table(make_group("z:1"), 10, use_cache=False)
    assert line.count == [0] + list(range(1, 11))


def test_min_ratio_witness_attains_minimum():
    # every built-in group; on lamplighter the leaf bound skips the leaves
    # of nearly every leaf parent
    sizes = {"z:1": 6, "z:2": 6, "dinf": 6, "free:2": 5, "heis": 6, "lamplighter": 6}
    for desc in BUILTIN_DESCRIPTORS:
        group = make_group(desc)
        size = sizes[desc]
        table = min_ratio_table(group, size, use_cache=False)
        # the witness is the first set in canonical order attaining the minimum
        first = {}
        for subset in connected_subsets(group, size):
            m = len(subset)
            if m not in first and len(subset.boundary_set()) == table.min_boundary[m]:
                first[m] = subset.elements
        for m in range(1, size + 1):
            witness = table.witness_subset(m)
            assert len(witness) == m
            assert boundary_ratio(witness) == table.min_ratio(m)
            assert witness.elements == first[m]


def test_min_ratio_line_values():
    table = min_ratio_table(make_group("z:1"), 8, use_cache=False)
    assert table.min_boundary[1] == 1
    for m in range(2, 9):
        assert table.min_boundary[m] == 2
    assert table.min_ratio(4) == Fraction(1, 2)


# ------------------------------------------------------------ parallel scan

# sizes of at least 5, where the scan splits at size 3 into subtrees
PARALLEL_SIZES = {"z:1": 9, "z:2": 7, "dinf": 9, "free:2": 6, "heis": 7, "lamplighter": 6}


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_parallel_scan_equals_sequential(desc):
    size = PARALLEL_SIZES[desc]
    adj = adjacency_index(make_group(desc), size).adj
    sequential = _scan(adj, size, workers=1)
    # one task per set of size 3; 100 workers is more than any group has
    assert sequential[0][3] < 100
    for workers in (2, 3, 100):
        assert _scan(adj, size, workers=workers) == sequential
    assert _scan(adj, size) == sequential


class _FailsInChild(tuple):
    """Adjacency that behaves in the process that made it and fails in any
    process forked from it: ``raise`` raises, ``exit`` ends the process."""

    def __new__(cls, adj, how):
        obj = super().__new__(cls, adj)
        obj.parent = os.getpid()
        obj.how = how
        return obj

    def __getitem__(self, i):
        if os.getpid() != self.parent:
            if self.how == "exit":
                os._exit(3)
            raise ValueError("injected failure")
        return tuple.__getitem__(self, i)


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("how,message", [
    ("raise", "failed: ValueError: injected failure"),
    ("exit", "exited with code 3"),
])
def test_parallel_scan_worker_failure_raises(how, message):
    adj = _FailsInChild(adjacency_index(make_group("z:2"), 6).adj, how)
    with _time_limit(60):
        with pytest.raises(RuntimeError, match=message):
            _scan(adj, 6, workers=3)
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_does_not_fork_beside_other_threads():
    adj = adjacency_index(make_group("z:2"), 6).adj
    sequential = _scan(adj, 6, workers=1)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        # a forked worker would fail on this adjacency
        assert _scan(_FailsInChild(adj, "raise"), 6, workers=3) == sequential
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()


# ------------------------------------------------------------ folner_exact

def test_folner_n1_everywhere():
    for desc in BUILTIN_DESCRIPTORS:
        record = folner_exact(make_group(desc), 1, 3)
        assert record.value == 1
        assert record.witness.elements == frozenset({make_group(desc).identity})
        assert record.kind == "exact"


def test_folner_line_small_values():
    z = make_group("z:1")
    record = folner_exact(z, 2, 8)
    assert record.value == 4
    assert boundary_ratio(record.witness) <= Fraction(1, 2)
    assert record.witness.elements == frozenset({(0,), (1,), (2,), (3,)})
    for n in range(2, 7):
        assert folner_exact(z, n, 14).value == 2 * n


def test_folner_dinf_matches_line():
    d = make_group("dinf")
    assert folner_exact(d, 3, 14).value == 6
    for n in range(2, 7):
        rec = folner_exact(d, n, 14)
        assert rec.value == 2 * n
        assert boundary_ratio(rec.witness) <= Fraction(1, n)


def test_folner_lower_bound_when_cap_too_small():
    record = folner_exact(make_group("z:1"), 3, 4)  # true value 6
    assert record.kind == "lower"
    assert record.value == LowerBound(5)
    assert record.witness is None


def test_folner_nonamenable_configuration():
    f2 = make_group("free:2")
    assert folner_exact(f2, 1, 3).value == 1
    record = folner_exact(f2, 2, 3)
    assert record.value is INFINITE
    assert record.kind == "infinite"
    # rank 1 is the infinite cyclic group: amenable, never infinite
    f1 = make_group("free:1")
    assert not f1.is_nonamenable
    assert folner_exact(f1, 2, 8).value == 4


def test_folner_record_serialization():
    record = folner_exact(make_group("z:1"), 2, 8)
    assert record.csv_row() == (2, "4", "exact", 4, 4)
    payload = record.to_json_dict()
    assert payload["value_or_bound"] == "4"
    assert payload["kind"] == "exact"
    assert payload["witness"] == ["0", "1", "2", "3"]
    assert payload["family_upper"] == 4


def test_folner_bad_params():
    z = make_group("z:1")
    with pytest.raises(BadParams):
        folner_exact(z, 0, 5)
    with pytest.raises(BadParams):
        folner_exact(z, 2, 0)
    with pytest.raises(BadParams):
        min_ratio_table(z, 0)


# ------------------------------------------------------ folner_family_upper

def test_family_upper_examples():
    assert folner_family_upper(make_group("z:1"), 5) == 10
    assert folner_family_upper(make_group("z:2"), 2) == 49
    assert folner_family_upper(make_group("dinf"), 4) == 8
    assert folner_family_upper(make_group("lamplighter"), 2) == 64
    for desc in ("z:1", "z:2", "dinf", "lamplighter"):
        assert folner_family_upper(make_group(desc), 1) == 1


def test_family_upper_no_family():
    with pytest.raises(NoFamilyForKind):
        folner_family_upper(make_group("free:2"), 2)
    with pytest.raises(NoFamilyForKind):
        folner_family_upper(make_group("heis"), 1)


def test_family_upper_dominates_exact_values():
    z = make_group("z:1")
    for n in range(1, 7):
        record = folner_exact(z, n, 14)
        assert record.family_upper is not None
        assert record.value <= record.family_upper


def test_folner_monotone_in_n():
    z = make_group("z:1")
    values = [folner_exact(z, n, 14).value for n in range(1, 7)]
    assert values == sorted(values)


# ------------------------------------------- reduction soundness, spot check

def test_component_reduction_spot_check():
    rng = random.Random(77)
    z2 = make_group("z:2")
    t = enumerate_ball(z2, 4)
    pool = t.members(4)
    for _ in range(100):
        omega = FiniteSubset(z2, rng.sample(pool, rng.randint(1, 10)))
        ratio = boundary_ratio(omega)
        # split into graph components by flooding
        remaining = set(omega.elements)
        best = None
        while remaining:
            seed = remaining.pop()
            comp = {seed}
            stack = [seed]
            while stack:
                x = stack.pop()
                for s in z2.generators:
                    y = z2.mul(x, s)
                    if y in remaining:
                        remaining.discard(y)
                        comp.add(y)
                        stack.append(y)
            part = FiniteSubset(z2, comp)
            if best is None or boundary_ratio(part) < boundary_ratio(best):
                best = part
        assert boundary_ratio(best) <= ratio
        assert len(best) <= len(omega)
