import functools
import itertools
import math
import os
import random
import signal
import threading
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cayleyiso import folner
from cayleyiso.balls import INFINITE, enumerate_ball, table_for_volume
from cayleyiso.constants import (BallSubsetsScope, CscBound, FolnerBound, certify_at_scale,
                                 folner_to_csc)
from cayleyiso.errors import BadParams, InvalidParams, MemoryBudgetExceeded, NoFamilyForKind
from cayleyiso.folner import (
    LowerBound,
    _scan,
    _size_floors,
    _workers,
    adjacency_index,
    connected_subsets,
    folner_exact,
    folner_family_upper,
    min_ratio_table,
)
from cayleyiso.groups import make_group
from cayleyiso.isoperimetry import _BIT_CAP, FiniteSubset, boundary_ratio

from conftest import (
    BUILTIN_DESCRIPTORS,
    DIGIT_LIMITS,
    KERNEL_GROUPS,
    SEARCHED_GROUPS,
    CyclicStub,
    _DoubledLine,
    _LoopedLine,
    _OneWayCycle,
    digit_limit,
)


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


def test_connected_subsets_streams():
    # 118,020 sets at size 9 on z:2; the first must come without building them
    z2 = make_group("z:2")
    tracemalloc.start()
    try:
        first = next(connected_subsets(z2, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.elements == frozenset({(0, 0)})
    assert peak < 1 << 20, f"traced peak {peak} bytes before the first set"


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
    table = min_ratio_table(group, size)
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
    z2 = min_ratio_table(make_group("z:2"), 9)
    assert z2.count == [0] + [n * a for n, a in enumerate(fixed_polyominoes, 1)]
    free = min_ratio_table(make_group("free:2"), 7)
    assert free.count == _free2_rooted_subtrees(7)
    line = min_ratio_table(make_group("z:1"), 10)
    assert line.count == [0] + list(range(1, 11))


def test_min_ratio_witness_attains_minimum(monkeypatch):
    # every group the scan accepts, each against connected_subsets, a plain
    # enumerator that shares no code with the scan's kernel and yields every
    # set; on lamplighter nearly every leaf parent is counted only, and on
    # z:1 and dinf from size 6 on the packing search gives up and the floors
    # above size 3 are 0, so those sizes never settle and every leaf is
    # examined
    sizes = {"z:1": 9, "dinf": 9, "free:2": 5, "lamplighter": 6, "z:3": 6, "free:3": 6}
    for name in SEARCHED_GROUPS:
        group = KERNEL_GROUPS[name]()
        size = sizes.get(name, 7)
        table = min_ratio_table(group, size)
        # the witness is the first set in canonical order attaining the minimum
        first = [None] * (size + 1)
        least = [None] * (size + 1)
        count = [0] * (size + 1)
        for subset in connected_subsets(group, size):
            m = len(subset)
            b = len(subset.boundary_set())
            count[m] += 1
            if least[m] is None or b < least[m]:
                least[m] = b
                first[m] = subset.elements
        assert (table.count, table.min_boundary) == (count, least), name
        for m in range(1, size + 1):
            if not count[m]:  # the cyclic stub has 5 elements
                continue
            witness = table.witness_subset(m)
            assert len(witness) == m
            assert boundary_ratio(witness) == table.min_ratio(m)
            assert witness.elements == first[m]
        # floors of 0 hold for any set; with them a size settles only at
        # minimum 0, so every leaf is examined, and the results must not move
        with monkeypatch.context() as patch:
            patch.setattr(folner, "_size_floors", lambda adj, k: [0] * (k + 1))
            examined = _scan(table.index.adj, size, workers=1)[:3]
        assert examined == (table.count, table.min_boundary, table.witness), name


def _grown_connected_sets(root, neighbors, size):
    """Connected sets containing ``root``, per size up to ``size``: grown from
    ``root`` by every neighbor of every member, as listed by ``neighbors``,
    and de-duplicated as frozensets."""
    levels = [set(), {frozenset([root])}]
    for _ in range(size - 1):
        levels.append({s | {y} for s in levels[-1] for x in s
                       for y in neighbors(x) if y not in s})
    return levels


@pytest.mark.parametrize("desc,size", [
    # at size 5 the parallel split level is also the two-level counting level;
    # z:2 at 5 and free:2 at 6 meet the size floor at deg+1 = 5
    ("lamplighter", 5), ("lamplighter", 6), ("heis", 7), ("z:2", 5), ("free:2", 6),
])
def test_scan_matches_grown_sets(desc, size, monkeypatch):
    group = make_group(desc)
    # neighbors by the checked ``mul``
    levels = _grown_connected_sets(
        group.identity, lambda x: [group.mul(x, g) for g in group.generators], size)
    count = [len(level) for level in levels]
    min_boundary = [None] + [
        min(len(FiniteSubset(group, s).boundary_set()) for s in level)
        for level in levels[1:]
    ]
    index = adjacency_index(group, size)
    for workers in (1, 2, 3):
        got_count, got_min, witness, _ = _scan(index.adj, size, workers=workers)
        assert got_count == count
        assert got_min == min_boundary
        for m in range(1, size + 1):
            elems = frozenset(index.elements[i] for i in witness[m])
            assert elems in levels[m]
            assert len(FiniteSubset(group, elems).boundary_set()) == min_boundary[m]
    # floors at the minima, the tightest sound ones: each size settles at its
    # first minimizer, the most the floors can skip, and nothing may move
    with monkeypatch.context() as patch:
        patch.setattr(folner, "_size_floors", lambda adj, k: [0] + min_boundary[1:])
        for workers in (1, 2, 3):
            assert _scan(index.adj, size, workers=workers)[:3] == (count, min_boundary, witness)
    # the leaf size settled from the root (floor size + 1) and every smaller
    # size open throughout (floor one below its minimum): leaf parents are
    # peeked and never materialized from the first node on, so a skipped
    # minimizer of the leaf parents' size would lose that size's minimum or
    # its first achiever
    floors = [0] + [b - 1 for b in min_boundary[1:size]] + [size + 1]
    with monkeypatch.context() as patch:
        patch.setattr(folner, "_size_floors", lambda adj, k: floors)
        peeked_count, peeked_min, peeked_witness, _ = _scan(index.adj, size, workers=1)
    assert peeked_count == count
    assert peeked_min[1:size] == min_boundary[1:size]
    assert peeked_witness[:size] == witness[:size]


def test_scan_on_circulants_matches_grown_sets(monkeypatch):
    # circulants, the Cayley graphs of Z/n with a symmetric step set: finite
    # dense graphs where large sets have small or empty boundaries; with the
    # floors at the minima, every size settles at its first minimizer
    for n in range(5, 10):
        for adj in _circulants(n):
            size = min(n, 7)
            levels = _grown_connected_sets(0, adj.__getitem__, size)
            count = [len(level) for level in levels]
            min_boundary = [None] + [
                min((_row_boundary(adj, s) for s in level), default=None)
                for level in levels[1:]
            ]
            for workers in (1, 2):
                got_count, got_min, _, _ = _scan(adj, size, workers=workers)
                assert (got_count, got_min) == (count, min_boundary), adj[0]
            # a size with no sets has nothing to settle
            floors = [0] + [b or 0 for b in min_boundary[1:]]
            with monkeypatch.context() as patch:
                patch.setattr(folner, "_size_floors", lambda adj, k: floors)
                for workers in (1, 2):
                    got_count, got_min, _, _ = _scan(adj, size, workers=workers)
                    assert (got_count, got_min) == (count, min_boundary), adj[0]


def _circulants(n):
    """Rows of the Cayley graphs of Z/n for every symmetric step set."""
    for r in range(1, n // 2 + 1):
        for half in itertools.combinations(range(1, n // 2 + 1), r):
            steps = sorted({s % n for h in half for s in (h, -h)})
            yield tuple(tuple((i + s) % n for s in steps) for i in range(n))


def _row_boundary(adj, members):
    """Members of the set ``members`` with a neighbor outside it, by rows."""
    return sum(1 for x in members if any(y not in members for y in adj[x]))


# ------------------------------------------ size floors and settled subtrees

# the largest size at which a group's sets are enumerated one at a time; at
# size 7 these have 0.2-0.9 million sets, and the lamplighter (degree 8) no
# interior member
ENUMERATED_SIZE = {"lamplighter": 5, "z:3": 6, "free:3": 6}


@functools.lru_cache(maxsize=None)
def _tally(name):
    """Counts and least inner boundaries per size of the sets that
    ``connected_subsets`` yields, up to the group's enumerated size."""
    group = KERNEL_GROUPS[name]()
    size = ENUMERATED_SIZE.get(name, 7)
    count = [0] * (size + 1)
    least = [None] * (size + 1)
    for subset in connected_subsets(group, size):
        m = len(subset)
        b = len(subset.boundary_set())
        count[m] += 1
        if least[m] is None or b < least[m]:
            least[m] = b
    return count, least


@pytest.mark.parametrize("name", SEARCHED_GROUPS)
def test_size_floors_below_least_boundaries(name):
    # a floor above some set's boundary would let the scan skip a minimizer
    group = KERNEL_GROUPS[name]()
    _, least = _tally(name)
    size = len(least) - 1
    floors = _size_floors(adjacency_index(group, size).adj, size)
    assert len(floors) == size + 1
    for m in range(1, size + 1):
        if least[m] is not None:
            assert floors[m] <= least[m], m


def test_size_floors_on_circulants_below_every_set():
    # finite graphs, where the packing also counts components that wrap
    # around; every set of each size, connected or not
    for n in range(5, 10):
        for adj in _circulants(n):
            floors = _size_floors(adj, n)
            for m in range(1, n + 1):
                least = min(_row_boundary(adj, set(s))
                            for s in itertools.combinations(range(n), m))
                assert floors[m] <= least, (adj[0], m)


def test_size_floors_pinned_values():
    # on the bench's degree-4 cases the floors are the least boundaries
    for desc, size, floors in [
        ("heis", 9, [1, 2, 3, 4, 4, 5, 6, 6, 7]),
        ("z:2", 9, [1, 2, 3, 4, 4, 5, 6, 6, 7]),
        ("free:2", 7, [1, 2, 3, 4, 4, 5, 6]),
    ]:
        group = make_group(desc)
        assert _size_floors(adjacency_index(group, size).adj, size)[1:] == floors
        assert min_ratio_table(group, size).min_boundary[1:] == floors
    # two lamplighter vertices whose closed neighborhoods cover 10 vertices
    lamplighter = adjacency_index(make_group("lamplighter"), 10).adj
    assert _size_floors(lamplighter, 10)[1:] == [1, 2, 3, 4, 5, 6, 7, 8, 8, 8]


def _tree_least_boundary(rank, m):
    """Least inner boundary of a connected m-set in the 2r-regular tree
    (free:r).  For m >= 2 the set spans a subtree with m - 1 edges, so its
    degree sum 2(m - 1) is at least 2r I + (m - I) for I interior members:
    I <= (m - 2)/(2r - 1), and a caterpillar attains it."""
    return 1 if m == 1 else m - (m - 2) // (2 * rank - 1)


@pytest.mark.parametrize("rank, size", [(2, 9), (3, 6)])
def test_tree_minima_and_floors_match_the_closed_form(rank, size):
    group = make_group(f"free:{rank}")
    oracle = [_tree_least_boundary(rank, m) for m in range(1, size + 1)]
    assert min_ratio_table(group, size).min_boundary[1:] == oracle
    floors = _size_floors(adjacency_index(group, size).adj, size)
    assert all(floor <= least for floor, least in zip(floors[1:], oracle, strict=True))


@pytest.mark.parametrize("desc", ["z:1", "dinf"])
def test_size_floor_search_is_bounded(desc):
    # on a path the components of interior members grow exponentially with
    # the size; past len(adj) of them every size above deg gets floor 0
    group = make_group(desc)
    with _time_limit(20):
        start = time.perf_counter()
        adj = adjacency_index(group, 40).adj
        floors = _size_floors(adj, 40)
        count, min_boundary, _, _ = _scan(adj, 40)
        assert time.perf_counter() - start < 2
    assert floors[:4] == [0, 1, 2, 0]
    assert count == [0] + list(range(1, 41))
    assert min_boundary == [None, 1] + [2] * 39


@pytest.mark.parametrize("name", SEARCHED_GROUPS)
def test_counts_only_path_counts_every_set(name, monkeypatch):
    # floors above any boundary settle every size from the root on, so the
    # whole tree is counted by the counts-only recursion and the shared pair
    # arithmetic; with 2 workers the top of the tree is still expanded, and
    # from size 5 on every node of size 3 is deferred to the count shares
    group = KERNEL_GROUPS[name]()
    count, _ = _tally(name)
    for size in range(1, 8):
        adj = adjacency_index(group, size).adj
        scanned = _scan(adj, size, workers=1)[0]
        with monkeypatch.context() as patch:
            patch.setattr(folner, "_size_floors", lambda adj, k: [k + 1] * (k + 1))
            counted, min_boundary, witness, _ = _scan(adj, size, workers=1)
            shared, _, _, processes = _scan(adj, size, workers=2)
        assert counted == shared == scanned, size
        if size < len(count):
            assert counted == count[:size + 1], size
        # no set was examined
        assert min_boundary == [size + 1 if c else None for c in counted]
        assert witness == [None] * (size + 1)
        assert processes == (min(2, counted[3]) if size >= 5 else 1)




@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_adjacency_index_matches_ball_and_checked_mul(desc):
    # the one-pass graph against the BFS of ``enumerate_ball`` and the
    # checked public ``mul``, and its budget error against the ball's
    group = make_group(desc)
    for k in range(4, 8):
        index = adjacency_index(group, k)
        table = enumerate_ball(group, k)
        assert index.elements == table.elements
        position = {x: i for i, x in enumerate(index.elements)}
        for x, row in zip(index.elements, index.adj):
            if table.norm(x) < k:
                assert row == tuple(position[group.mul(x, g)] for g in group.generators)
            else:
                assert row is None
        for budget in (0, 1, table.b[k - 1], table.b[k] - 1):
            errors = []
            for build in (adjacency_index, enumerate_ball):
                with pytest.raises(MemoryBudgetExceeded) as caught:
                    build(group, k, max_elements=budget)
                errors.append((str(caught.value), caught.value.last_completed_radius))
            assert errors[0] == errors[1]


@pytest.mark.parametrize("group_type", [_DoubledLine, _LoopedLine, _OneWayCycle])
def test_adjacency_index_rejects_repeated_or_identity_generators(group_type):
    # a repeated neighbor would be counted once per repeat, the floors
    # assume distinct neighbors other than the vertex itself, and the scan's
    # boundary updates assume symmetric rows: on the one-way cycle they gave
    # the whole group 3 boundary members where it has none
    group = group_type()
    problem = {_DoubledLine: "repeat", _LoopedLine: "include the identity",
               _OneWayCycle: "are not symmetric"}[group_type]
    message = f"^generators of {group.descriptor} {problem}$"
    for size, budget in ((4, None), (0, None), (4, 0), (4, 2)):
        # at every size, and before the element budget can run out
        with pytest.raises(InvalidParams, match=message):
            adjacency_index(group, size, max_elements=budget)
    # the ball searches apply the same rule, with the same text
    for search in (enumerate_ball, table_for_volume):
        for size, budget in ((0, None), (4, 0)):
            with pytest.raises(InvalidParams, match=message):
                search(group, size, max_elements=budget)
    # the group of the same descriptor with a valid generating set; its
    # memoized scan must not answer
    min_ratio_table(CyclicStub(7) if group_type is _OneWayCycle else make_group("z:1"), 4)
    with pytest.raises(InvalidParams):
        min_ratio_table(group, 4)
    with pytest.raises(InvalidParams):
        list(connected_subsets(group, 4))
    with pytest.raises(InvalidParams):
        certify_at_scale(group, CscBound(Fraction(1, 4), Fraction(1)), BallSubsetsScope(1))


def test_min_ratio_table_accessors_reject_sizes_without_sets():
    # a size outside 1..max_size, or one with no sets, has no minimum or
    # witness; Python indexing would read -1 as the top size
    line = min_ratio_table(make_group("z:1"), 5)
    stub = min_ratio_table(CyclicStub(5), 7)  # 5 elements: no sets of size 6 or 7
    for table, size in ((line, -1), (line, 0), (line, 6), (line, 1.5), (stub, 6), (stub, 7)):
        for accessor in (table.min_ratio, table.witness_subset):
            with pytest.raises(BadParams):
                accessor(size)
    assert line.min_ratio(5) == Fraction(2, 5)
    assert stub.min_ratio(5) == 0 and len(stub.witness_subset(5)) == 5


def test_min_ratio_line_values():
    table = min_ratio_table(make_group("z:1"), 8)
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
    *sequential, processes = _scan(adj, size, workers=1)
    assert processes == 1
    # one task per set of size 3; 100 workers is more than any group has
    tasks = sequential[0][3]
    assert tasks < 100
    for workers in (2, 3, 100, None):
        *parallel, processes = _scan(adj, size, workers=workers)
        assert parallel == sequential
        if desc in ("z:1", "dinf"):
            # the floors above size 3 are 0, so the scan never settles and
            # forks nothing
            assert processes == 1
        else:
            # every size settles within the first task, and the later nodes
            # of size 3 are dealt to the workers
            assert processes == min(workers or _workers(), tasks - 1)


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
    with pytest.raises(BadParams):
        list(connected_subsets(z, 0))
    with pytest.raises(BadParams):
        folner_family_upper(z, 0)
    for bad in (1.5, "2"):
        for call in (lambda: folner_exact(z, bad, 5), lambda: folner_exact(z, 2, bad),
                     lambda: min_ratio_table(z, bad), lambda: list(connected_subsets(z, bad)),
                     lambda: folner_family_upper(z, bad)):
            with pytest.raises(BadParams):
                call()


# ------------------------------------------------------ folner_family_upper

def test_family_upper_examples():
    assert folner_family_upper(make_group("z:1"), 5) == 10
    assert folner_family_upper(make_group("z:2"), 2) == 49
    assert folner_family_upper(make_group("dinf"), 4) == 8
    assert folner_family_upper(make_group("lamplighter"), 2) == 64
    for desc in ("z:1", "z:2", "dinf", "lamplighter"):
        assert folner_family_upper(make_group(desc), 1) == 1


def _stepped_family_upper(d, n):
    """The family bound on Z^d by the earlier loop, one side m at a time."""
    m = 2
    while True:
        size = m ** d
        boundary = size - max(m - 2, 0) ** d
        if boundary * n <= size:
            return size
        m += 1


def test_family_upper_on_z_d_bisects():
    # the stepping loop takes about 2dn steps; the bisection must agree with
    # it and answer a huge n at once
    for d in (1, 2, 3):
        group = make_group(f"z:{d}")
        for n in range(2, 201):
            assert folner_family_upper(group, n) == _stepped_family_upper(d, n), (d, n)
        with _time_limit(10):
            start = time.perf_counter()
            folner_family_upper(group, 10 ** 12)
            assert time.perf_counter() - start < 1
    # the path segment of 2n vertices has two boundary members
    assert folner_family_upper(make_group("z:1"), 10 ** 12) == 2 * 10 ** 12


def test_family_upper_no_family():
    with pytest.raises(NoFamilyForKind):
        folner_family_upper(make_group("free:2"), 2)
    with pytest.raises(NoFamilyForKind):
        folner_family_upper(make_group("heis"), 1)


# the longest side of a z:32 box within the cap (floor roots compose)
_SIDE = math.isqrt(math.isqrt(math.isqrt(math.isqrt(math.isqrt(2 ** _BIT_CAP - 1)))))

# the least n whose family bound is longer than the cap
_FAMILY_EDGES = {
    "lamplighter": 7136,  # m 2^m with m = 2n has m + 14 bits, 14284 at n = 7135
    "dinf": 2 ** (_BIT_CAP - 1),  # 2n has 14284 bits below this n
    "z:1": 2 ** (_BIT_CAP - 1),  # the same segments, found by bisection
    # a box of side m serves every n <= m^32 / (m^32 - (m-2)^32), which grows with m
    "z:32": _SIDE ** 32 // (_SIDE ** 32 - (_SIDE - 2) ** 32) + 1,
}


@pytest.mark.parametrize("descriptor", list(_FAMILY_EDGES))
def test_family_upper_refused_exactly_past_the_cap(descriptor):
    # the same answers under every digit limit, and the last bound let
    # through prints under the default one
    assert 2 ** _BIT_CAP < 10 ** 4300 < 2 ** (_BIT_CAP + 1)
    group = make_group(descriptor)
    edge = _FAMILY_EDGES[descriptor]
    last = set()
    for limit in DIGIT_LIMITS:
        with digit_limit(limit):
            last.add(folner_family_upper(group, edge - 1))
            with pytest.raises(BadParams, match="^the family upper bound has more than 14284 bits"):
                folner_family_upper(group, edge)
    assert len(last) == 1 and last.pop() < 10 ** 4300


def _uncapped_family_upper(descriptor, n):
    # the lamplighter's m 2^m with m = 2n built past the cap; the other
    # families' bounds near the limits below fit it
    if descriptor == "lamplighter":
        return 2 * n << 2 * n
    return folner_family_upper(make_group(descriptor), n)


def _least_n_with_digits_over(descriptor, limit):
    # the bound grows with n: double, then bisect on bound >= 10^limit
    def past(n):
        return _uncapped_family_upper(descriptor, n) >= 10 ** limit
    hi = 1
    while not past(hi):
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if past(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("descriptor, limit", [
    *(("lamplighter", limit) for limit in (640, 641, 665, 1000, 4300, 5000)),
    *((d, limit) for d in ("dinf", "z:40", "z:100") for limit in (640, 1000))])
def test_family_upper_refused_exactly_past_the_digit_limit(descriptor, limit):
    # the interpreter's limit moves no edge: around the least n whose bound
    # has more than ``limit`` digits, a bound is returned whole when it fits
    # the cap and refused when it does not, under that limit as with it off;
    # the cap's edge is the default limit's (lamplighter, 4300)
    group = make_group(descriptor)
    edge = _least_n_with_digits_over(descriptor, limit)
    window = range(max(1, edge - 20), edge + 20)
    expected = {n: _uncapped_family_upper(descriptor, n) for n in window}
    assert expected[edge - 1] < 10 ** limit <= expected[edge]
    if limit == 4300:
        assert expected[edge - 1].bit_length() <= _BIT_CAP < expected[edge].bit_length()
    for set_to in ((limit, 0) if DIGIT_LIMITS != (None,) else (None,)):
        with digit_limit(set_to):
            for n in window:
                if expected[n].bit_length() <= _BIT_CAP:
                    assert folner_family_upper(group, n) == expected[n]
                else:
                    with pytest.raises(BadParams, match="^the family upper bound has more "
                                                        "than 14284 bits"):
                        folner_family_upper(group, n)


def test_family_upper_refused_before_it_is_built():
    # with the digit limit off, m 2^m with m = 2 10^12 would take 250 GB, the factor
    # 3^(10^12) of folner_to_csc 198 GB, and the z:40 side search minutes
    tracemalloc.start()
    try:
        with digit_limit(DIGIT_LIMITS[0]), _time_limit(10):
            start = time.perf_counter()
            for call in (lambda: folner_family_upper(make_group("lamplighter"), 10 ** 12),
                         lambda: folner_family_upper(make_group("z:40"), 10 ** 4299),
                         lambda: folner_to_csc(FolnerBound(10 ** 12, 0, 0), 3)):
                with pytest.raises(BadParams, match="decimal digits"):
                    call()
            elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 1 << 20, f"{elapsed} s, traced peak {peak} bytes"


def test_folner_exact_refuses_an_unprintable_family_bound():
    # before the scan: a record whose bound could not be printed or encoded
    with _time_limit(10), pytest.raises(BadParams, match="bound has more than 14284 bits"):
        folner_exact(make_group("lamplighter"), 10000, 9)


def _family_member(group, side):
    """The closed-family member of the given side that
    :func:`folner_family_upper` sizes: a Z^2 box, a dinf path segment, or a
    lamplighter rectangle (walker and lamps in 0..side-1)."""
    cells = range(side)
    if group.descriptor == "lamplighter":
        lampsets = [frozenset(lamps) for k in range(side + 1)
                    for lamps in itertools.combinations(cells, k)]
        return FiniteSubset(group, [(p, lamps) for p in cells for lamps in lampsets])
    if group.descriptor == "dinf":
        # both generators are involutions, so alternating them never turns back
        path = [group.identity]
        while len(path) < side:
            path.append(group.mul(path[-1], group.generators[len(path) % 2]))
        return FiniteSubset(group, path)
    return FiniteSubset(group, list(itertools.product(cells, repeat=group.d)))


@pytest.mark.parametrize("desc, n, side, boundary", [
    ("lamplighter", 2, 4, 32), ("lamplighter", 3, 6, 128),
    ("z:2", 2, 7, 24), ("z:2", 3, 11, 40), ("z:2", 4, 15, 56),
    *(("dinf", n, 2 * n, 2) for n in range(2, 7)),
])
def test_family_members_have_the_bound_size_and_ratio(desc, n, side, boundary):
    # the member behind the bound, built: its size is the bound, and its
    # ratio is at most 1/n
    group = make_group(desc)
    member = _family_member(group, side)
    assert len(member) == folner_family_upper(group, n)
    assert len(member.boundary_set()) == boundary
    assert boundary_ratio(member) <= Fraction(1, n)


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
