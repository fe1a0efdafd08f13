"""Folner function search by canonical enumeration of connected subsets.

The engine enumerates connected subsets of the Cayley graph that contain the
identity, in a canonical order, each exactly once.  Restricting to such sets
is sound for boundary-ratio minimization: left translation preserves size and
boundary size, and if a set splits into graph components, its boundary is the
disjoint union of the component boundaries, so the component of smallest
ratio does at least as well with fewer elements.  Hence some minimizer is
connected and can be translated to contain the identity.  That reduction is
property-tested rather than assumed (see the test suite).

Enumeration scheme: grow a connected set one adjacent vertex at a time; when
a candidate is expanded, all candidates listed before it become permanently
banned in that branch, which makes every connected superset reachable exactly
once.  Fresh neighbors of the newly added vertex are explored first.

Leaf bound: sets of the top size k are never expanded, so they are counted
by arithmetic in the loop of their parent S (|S| = k-1) and scanned only
when one could set a new minimum.  Adding a vertex v to S changes the
inner-boundary count by [v keeps an outside neighbor] minus the number of
members of S adjacent to v whose only outside neighbor was v.  The Cayley
graph is regular of degree deg, and its neighbors are distinct when the
generators are, because x*g == x*h only for g == h (the scan checks this at
the identity and scans every leaf otherwise); so v has at most |S| neighbors
in S, and the first term is 1 whenever |S| < deg.  The second term is at
most ones(S), the number of members with exactly one outside neighbor.
Every leaf below S
therefore has at least bcount(S) + [|S| < deg] - ones(S) boundary members.
When that floor is not below the current minimum, no leaf of S is a strict
improvement, and the scan of S stops as soon as a leaf reaches the floor.
Only strict improvements replace the witness, so the first achiever in
canonical order, and every count and minimum, are those of the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .balls import INFINITE, BallTable, enumerate_ball
from .errors import BadParams, NoFamilyForKind
from .groups import DihedralInfinite, Group, LamplighterZ2, ZPowerD
from .isoperimetry import FiniteSubset

__all__ = [
    "LowerBound",
    "FolnerRecord",
    "MinRatioTable",
    "adjacency_index",
    "connected_subsets",
    "min_ratio_table",
    "folner_exact",
    "folner_family_upper",
]


@dataclass(frozen=True)
class LowerBound:
    """Search exhausted the size cap: the true value is >= ``bound``."""

    bound: int

    def __repr__(self):
        return f">={self.bound}"


@dataclass(frozen=True)
class AdjacencyIndex:
    """Vertices of B(max_size) in discovery order with neighbor index tuples.

    ``adj[i]`` is None for vertices on the outermost sphere; those are never
    expanded because a connected set of size k containing the identity stays
    inside B(k-1).
    """

    group: Group
    max_size: int
    table: BallTable
    adj: tuple


def adjacency_index(group: Group, max_size: int) -> AdjacencyIndex:
    table = enumerate_ball(group, max_size)
    index = {e: i for i, e in enumerate(table.elements)}
    adj = []
    limit = max_size - 1
    mul = group._mul
    gens = group.generators
    for x in table.elements:
        if table.norm_of[x] <= limit:
            adj.append(tuple(index[mul(x, g)] for g in gens))
        else:
            adj.append(None)
    return AdjacencyIndex(group, max_size, table, tuple(adj))


def _scan(adj, max_size, buckets=None):
    """Run the canonical enumeration up to ``max_size`` and tally it by size.

    Returns ``(count, min_boundary, witness)``: per size, the number of
    connected sets containing vertex 0, their least inner-boundary count
    (None where there are no sets) and the member tuple of the first set in
    canonical order attaining it.  If ``buckets`` is given (``max_size + 1``
    lists), every set is also appended to ``buckets[size]`` as a tuple of
    vertex indices, in canonical order.

    Sets of the top size (leaves) are handled in the loop of their parent:
    counted by arithmetic, and scanned only when one of them could set a new
    minimum (see the module docstring).
    """
    n = len(adj)
    leaf_parent = max_size - 1
    in_set = bytearray(n)
    occupied = bytearray(n)
    outdeg = [0] * n
    members = []
    count = [0] * (max_size + 1)
    best = [max_size + 1] * (max_size + 1)  # above any boundary count
    witness = [None] * (max_size + 1)
    collect = buckets is not None
    root_adj = adj[0]
    deg = len(root_adj)
    # x*g == x*h only if g == h, so distinct neighbors of the identity mean
    # distinct neighbors everywhere, which the leaf bound needs
    use_bound = not collect and len(set(root_adj)) == deg
    outside = 1 if leaf_parent < deg else 0

    def rec(cands, size, bcount, ones):
        # ``ones`` is the number of members with exactly one outside neighbor
        nsize = size + 1
        for i, v in enumerate(cands):
            av = adj[v]
            od = 0
            bc = bcount
            o1 = ones
            for u in av:
                if in_set[u]:
                    d = outdeg[u] - 1
                    outdeg[u] = d
                    if d == 0:
                        bc -= 1
                        o1 -= 1
                    elif d == 1:
                        o1 += 1
                else:
                    od += 1
            outdeg[v] = od
            in_set[v] = 1
            if od:
                bc += 1
                if od == 1:
                    o1 += 1
            members.append(v)
            count[nsize] += 1
            if bc < best[nsize]:
                best[nsize] = bc
                witness[nsize] = tuple(members)
            if collect:
                buckets[nsize].append(tuple(members))
            if nsize == leaf_parent:
                new = [u for u in av if not occupied[u]]
                count[max_size] += len(new) + len(cands) - i - 1
                # every leaf below has at least ``floor`` boundary members
                floor = bc + outside - o1 if use_bound else -1
                least = best[max_size]
                if floor < least:
                    leaves = new + cands[i + 1:]
                    for w in leaves:
                        b = bc
                        out = False
                        for u in adj[w]:
                            if in_set[u]:
                                if outdeg[u] == 1:
                                    b -= 1
                            else:
                                out = True
                        if out:
                            b += 1
                        if b < least:
                            least = b
                            witness[max_size] = (*members, w)
                            if b <= floor:
                                break
                    best[max_size] = least
                    if collect:
                        buckets[max_size].extend([(*members, w) for w in leaves])
            elif nsize < leaf_parent:
                new = [u for u in av if not occupied[u]]
                for u in new:
                    occupied[u] = 1
                rec(new + cands[i + 1:], nsize, bc, o1)
                for u in new:
                    occupied[u] = 0
            members.pop()
            in_set[v] = 0
            for u in av:
                if in_set[u]:
                    outdeg[u] += 1

    # the identity is the one child of the empty set
    occupied[0] = 1
    rec([0], 0, 0, 0)
    min_boundary = [b if c else None for b, c in zip(best, count)]
    return count, min_boundary, witness


@dataclass
class MinRatioTable:
    """Per-size minimum boundary counts over connected sets containing e.

    ``min_boundary[m]`` is the smallest inner-boundary cardinality among
    connected m-sets containing the identity (None if m is 0), ``witness[m]``
    the first achiever in canonical enumeration order, ``count[m]`` the number
    of such sets.  ``min_boundary[m] / m`` is therefore the exact minimum
    boundary ratio at size m, over arbitrary finite sets as well (see module
    docstring for the reduction).
    """

    group: Group
    max_size: int
    min_boundary: list
    witness: list
    count: list
    index: AdjacencyIndex

    def min_ratio(self, size: int) -> Fraction:
        return Fraction(self.min_boundary[size], size)

    def witness_subset(self, size: int) -> FiniteSubset:
        elems = [self.index.table.elements[i] for i in self.witness[size]]
        return FiniteSubset(self.group, elems)


_scan_cache: dict = {}


def min_ratio_table(group: Group, max_size: int, use_cache: bool = True) -> MinRatioTable:
    """Exhaustively scan connected subsets up to ``max_size`` (cached)."""
    if not isinstance(max_size, int) or max_size < 1:
        raise BadParams(f"max_size must be a positive integer, got {max_size!r}")
    cache_key = (group.descriptor, max_size)
    if use_cache and cache_key in _scan_cache:
        return _scan_cache[cache_key]
    index = adjacency_index(group, max_size)
    count, minb, witness = _scan(index.adj, max_size)
    result = MinRatioTable(group, max_size, minb, witness, count, index)
    if use_cache:
        _scan_cache[cache_key] = result
    return result


def connected_subsets(group: Group, max_size: int):
    """Yield every connected subset containing e of size <= max_size, exactly
    once, in increasing cardinality (canonical order within each size)."""
    if not isinstance(max_size, int) or max_size < 1:
        raise BadParams(f"max_size must be a positive integer, got {max_size!r}")
    index = adjacency_index(group, max_size)
    elements = index.table.elements
    buckets = [[] for _ in range(max_size + 1)]
    _scan(index.adj, max_size, buckets)
    for bucket in buckets:
        for ids in bucket:
            yield FiniteSubset(group, [elements[i] for i in ids])


@dataclass(frozen=True)
class FolnerRecord:
    """One Folner-function data point.

    ``value`` is an exact integer, a :class:`LowerBound`, or the infinite
    sentinel (configured non-amenable groups only).  ``witness`` achieves the
    minimum when the value is exact.
    """

    n: int
    value: object
    witness: object
    search_cap: int
    family_upper: object = None

    @property
    def kind(self) -> str:
        if self.value is INFINITE:
            return "infinite"
        if isinstance(self.value, LowerBound):
            return "lower"
        return "exact"

    def value_text(self) -> str:
        if self.value is INFINITE:
            return "infinite"
        if isinstance(self.value, LowerBound):
            return str(self.value.bound)
        return str(self.value)

    def csv_row(self):
        return (
            self.n,
            self.value_text(),
            self.kind,
            len(self.witness) if self.witness is not None else "",
            self.family_upper if self.family_upper is not None else "",
        )

    def to_json_dict(self):
        return {
            "n": self.n,
            "value_or_bound": self.value_text(),
            "kind": self.kind,
            "witness": self.witness.keys() if self.witness is not None else None,
            "family_upper": self.family_upper,
            "search_cap": self.search_cap,
        }


def folner_exact(group: Group, n: int, cap: int) -> FolnerRecord:
    """Minimal size of a set with boundary ratio <= 1/n, searched up to ``cap``.

    Returns an exact value with witness when the search succeeds, a
    :class:`LowerBound` of cap+1 when it exhausts the cap, and the infinite
    sentinel for n >= 2 on groups configured non-amenable.
    """
    if not isinstance(n, int) or n < 1:
        raise BadParams(f"n must be a positive integer, got {n!r}")
    if not isinstance(cap, int) or cap < 1:
        raise BadParams(f"cap must be a positive integer, got {cap!r}")
    family = _family_upper_or_none(group, n)
    if n == 1:
        # every non-empty set has ratio <= 1 and the singleton attains it
        return FolnerRecord(1, 1, FiniteSubset(group, [group.identity]), cap, family)
    if group.is_nonamenable:
        return FolnerRecord(n, INFINITE, None, cap, family)
    table = min_ratio_table(group, cap)
    for size in range(1, cap + 1):
        minb = table.min_boundary[size]
        if minb is not None and minb * n <= size:
            return FolnerRecord(n, size, table.witness_subset(size), cap, family)
    return FolnerRecord(n, LowerBound(cap + 1), None, cap, family)


def _family_upper_or_none(group: Group, n: int):
    try:
        return folner_family_upper(group, n)
    except NoFamilyForKind:
        return None


def folner_family_upper(group: Group, n: int) -> int:
    """Size of the smallest closed-family member with boundary ratio <= 1/n.

    Families: boxes in Z^d (side m, ratio (m^d - (m-2)^d)/m^d), path segments
    in the dihedral path graph (ratio 2/m), and position-interval-with-lamps
    rectangles in the lamplighter (size m 2^m, ratio 2/m).  The singleton is a
    degenerate member of every family, which settles n = 1.  Always an upper
    bound for the Folner value; never claimed minimal.
    """
    if not isinstance(n, int) or n < 1:
        raise BadParams(f"n must be a positive integer, got {n!r}")
    if n == 1:
        if isinstance(group, (ZPowerD, DihedralInfinite, LamplighterZ2)):
            return 1
        raise NoFamilyForKind(f"no candidate family for {group.descriptor}")
    if isinstance(group, ZPowerD):
        d = group.d
        m = 2
        while True:
            size = m ** d
            boundary = size - max(m - 2, 0) ** d
            if boundary * n <= size:
                return size
            m += 1
    if isinstance(group, DihedralInfinite):
        return 2 * n
    if isinstance(group, LamplighterZ2):
        m = 2 * n
        return m * 2 ** m
    raise NoFamilyForKind(f"no candidate family for {group.descriptor}")
