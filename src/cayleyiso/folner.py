"""Folner function search by canonical enumeration of connected subsets.

The engine enumerates connected subsets of the Cayley graph that contain the
identity, in a canonical order, each exactly once.  Restricting to such sets
is sound for boundary-ratio minimization: left translation preserves size and
boundary size, and if a set splits into graph components, its boundary is the
disjoint union of the component boundaries, so the component of smallest
ratio does at least as well with fewer elements.  Hence some minimizer is
connected and can be translated to contain the identity.  That reduction is
property-tested rather than assumed (see the test suite).

The graph: ``adjacency_index`` builds B(max_size) and the neighbor index
rows of its inner vertices in one breadth-first search, in the discovery
order of ``enumerate_ball``.  It rejects generating sets that repeat, include
the identity or are not symmetric, so every row lists deg distinct vertices
other than its own (x*g == x*h only for g == h, and x*g == x only for
g == e), and y is in the row of x exactly when x is in the row of y.  The
scan relies on the last when adding a vertex updates the outside-neighbor
counts of the members in its own row.

Enumeration scheme: grow a connected set one adjacent vertex at a time; when
a candidate is expanded, all candidates listed before it become permanently
banned in that branch, which makes every connected superset reachable exactly
once.  Fresh neighbors of the newly added vertex are explored first.

Two-level count, the step after Redelmeier ("Counting polyominoes: yet
another attack", Discrete Math. 36, 1981) of counting below the last
expanded node by arithmetic: sets of the top size k are never expanded, and
a node S with |S| = k-2 handles its children S+v (the leaf parents) and the
leaves S+v+w below them in one loop.  Child S+v adds one set of size k-1 and
fresh(v) + (the number of candidates after v) leaves, where fresh(v) counts
the neighbors of v not yet occupied, read without any write.

Size floor: a member x of a set T is interior only if its closed
neighborhood N[x] = {x} + {x*g} lies in T; N[x] has deg+1 distinct vertices.
Let I be the interior members of T and N[I] the union of their closed
neighborhoods, so |N[I]| <= |T|.  Split I into components J, two members
falling in one component when their closed neighborhoods meet; then the
sets N[J] of different components are disjoint, and the sizes |N[J]| sum to
|N[I]|.  Left translation is an automorphism of the Cayley graph, so each J
may be moved to contain the identity.  With c(t) the largest |J| over
components containing the identity with |N[J]| = t, a set of s vertices has
at most M(s) interior members, where M is the unbounded knapsack
M(s) = max(M(s-1), max_t c(t) + M(s-t)), and at least s - M(s) boundary
members.  c comes from a complete search of those components up to
|N[J]| <= k, by the enumeration scheme above on the graph whose edges join
vertices with meeting closed neighborhoods: N[J] is then connected and holds
the identity, so it lies in B(k-1), where every row is known.  The rows
are symmetric, so that graph joins x to the closed neighborhoods of its
neighbors.  Where the search would visit more components than the index
has vertices (on a path their number grows exponentially), the floor keeps
only what holds for any rows: a set of at most deg vertices has no interior
member, so its floor is its size, and every larger size gets the trivial
floor 0.  The floors of all sizes are computed once per scan, and they are
the scan's only bound.

Settled subtrees: size m is settled once its current minimum is at most its
size floor, as no set of size m can then be a strict improvement.  Minima
only fall, so a settled size stays settled, and the largest unsettled size
is tracked as minima fall.  Before each child of a node of size s, if every
size above s is settled, no set below the remaining children can change a
minimum or a witness, and they are counted instead of scanned: a recursion
that keeps only the occupied vertices and adds one set per child, down to
the nodes of size k-2, which count their children and leaves by the
arithmetic above.  While size k-1 is open, a node of size k-2 peeks at each
child: its bcount comes from the reads of the add step without its writes,
and a strict improvement at size k-1 is recorded.  The child is
materialized and its leaves examined only while size k is open, and that
stops as soon as size k settles.  Only strict improvements replace a
witness, so the first achiever in canonical order, and every count and
minimum, are those of the full scan.

Parallel scan, after Mertens and Lautenbacher ("Counting lattice animals: a
parallel attack", J. Stat. Phys. 66, 1992).  Split: the caller's process
enumerates the sets of size up to 3 and tallies them itself; each node of
size 3 becomes a task instead of being expanded, and the tasks are kept in
canonical (depth-first) order.  Run: worker w of W, one per CPU of the
affinity mask, runs tasks w, w+W, ... in increasing order; worker 0 is the
caller, the others are forked.  Merge: per task in order, counts are added,
and a task's minimum replaces the running one only if strictly lower.  A set
larger than 3 lies below exactly one node of size 3, and the tasks partition
the canonical order into consecutive runs, so this keeps the first achiever.
Carry-over: a worker seeds each task's minimum of every size with the least
boundary of that size it found in its own earlier tasks.  Those tasks all
precede the current one, so a set of the current task that is not strictly
below the seed of its size is not the first achiever of the global minimum,
and the floors may skip it or settle the size; a task reports a minimum only
when it is strictly below its seed, and then with its own first achiever.
The seed is no lower than the running merged minimum before the task, so a
task that found nothing new never wins the merge.  Counts, minima and
witnesses are therefore those of the sequential scan, whatever the number of
workers.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from fractions import Fraction

from .balls import INFINITE, _budget_exceeded, _checked_sphere_counts, _search_budget
from .errors import BadParams, NoFamilyForKind
from .groups import DihedralInfinite, Group, LamplighterZ2, ZPowerD, _check_generators
from .isoperimetry import FiniteSubset, _check_positive_int

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


class _Value:
    """Base of the immutable value records (:class:`LowerBound`, and the
    bounds and scopes of :mod:`cayleyiso.constants`): equal and hashed by the
    fields ``__slots__`` lists, which ``__init__`` sets once through
    ``object.__setattr__``."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class LowerBound(_Value):
    """Search exhausted the size cap: the true value is >= ``bound``."""

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        object.__setattr__(self, "bound", bound)

    def __repr__(self):
        return f">={self.bound}"


class AdjacencyIndex:
    """Vertices of B(max_size) in discovery order with neighbor index tuples.

    ``elements`` is B(max_size) in the order of :func:`enumerate_ball`.
    ``adj[i]`` lists the indices of ``elements[i] * g`` over the generators
    g, in generator order; its entries are distinct and differ from i, and
    where both rows are listed, j is in ``adj[i]`` exactly when i is in
    ``adj[j]``, as the generators are distinct, differ from the identity and
    include their inverses (see :func:`adjacency_index`).  It is None for
    vertices on the outermost sphere; those are never expanded because a
    connected set of size k containing the identity stays inside B(k-1).
    """

    __slots__ = ("elements", "adj")

    def __init__(self, elements: list, adj: tuple):
        self.elements = elements
        self.adj = adj


def adjacency_index(group: Group, max_size: int,
                    max_elements: int | None = None) -> AdjacencyIndex:
    """Cayley graph of B(max_size), built by one breadth-first search.

    The search visits frontiers and generators in the order of
    :func:`enumerate_ball` and records a vertex's row when it expands the
    vertex, so every product x*g is formed once.  It raises the same
    :class:`RadiusOutOfRange` and :class:`MemoryBudgetExceeded` as
    :func:`enumerate_ball` under the element budget ``max_elements``.
    Before it searches, it raises :class:`InvalidParams` when
    :func:`validate_generators` finds a problem: a repeated generator or the
    identity would make a row repeat an index or contain its own vertex, and
    a generator whose inverse is missing would make the rows asymmetric.
    """
    _check_generators(group)
    budget = _search_budget(group, max_size, max_elements)
    e = group.identity
    elements = [e]
    index = {e: 0}
    adj = []
    b = [1]
    steps = group._right_steps()
    start = 0
    for r in range(1, max_size + 1):
        for x in elements[start:]:
            row = []
            for step in steps:
                y = step(x)
                i = index.get(y)
                if i is None:
                    i = index[y] = len(elements)
                    elements.append(y)
                    if i >= budget:
                        raise _budget_exceeded(group, budget, r)
                row.append(i)
            adj.append(tuple(row))
        start = b[-1]
        b.append(len(elements))
    adj.extend([None] * (len(elements) - len(adj)))
    _checked_sphere_counts(b, len(steps))
    return AdjacencyIndex(elements, tuple(adj))


# canonical-tree depth at which a parallel scan hands subtrees to workers
_SPLIT_SIZE = 3


def _workers() -> int:
    """Number of CPUs this process may run on, 1 where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _size_floors(adj, max_size):
    """Least inner boundary of any set of each size 0..``max_size``, by the
    size floor of the module docstring: s minus the interior packing bound
    where its search stays within budget, else s up to deg and 0 above."""
    deg = len(adj[0])
    floors = list(range(max_size + 1))
    if max_size <= deg:
        return floors
    packing = _interior_packing(adj, max_size)
    if packing is None:
        return floors[:deg + 1] + [0] * (max_size - deg)
    return [s - m for s, m in enumerate(packing)]


def _interior_packing(adj, max_size):
    """Per s <= ``max_size``, the knapsack bound M(s) on the interior members
    of a set of s vertices (module docstring), from a complete search of the
    components containing vertex 0; None when the search would visit more
    than ``len(adj)`` components.  Needs symmetric rows."""
    most = [0] * (max_size + 1)  # most[t]: largest component J with |N[J]| = t
    cover = [0] * len(adj)  # members of J whose closed neighborhood holds the vertex
    seen = bytearray(len(adj))
    seen[0] = 1
    left = len(adj)

    def grow(cands, size, closed):
        # Redelmeier's scheme on the graph where two vertices are adjacent
        # when their closed neighborhoods meet; False once over budget
        nonlocal left
        for i, v in enumerate(cands):
            row = adj[v]
            if row is None:  # on the outer sphere: |N[J]| > max_size
                continue
            hood = (v, *row)
            t = closed + sum(1 for u in hood if not cover[u])
            if t > max_size:  # so has every component with v in it
                continue
            left -= 1
            if left < 0:
                return False
            most[t] = max(most[t], size + 1)
            for u in hood:
                cover[u] += 1
            # the closed neighborhood lies within max_size - 1 of vertex 0,
            # so every z below has its row
            new = []
            for z in hood:
                for y in (z, *adj[z]):
                    if not seen[y]:
                        seen[y] = 1
                        new.append(y)
            if not grow(new + cands[i + 1:], size + 1, t):
                return False
            for y in new:
                seen[y] = 0
            for u in hood:
                cover[u] -= 1
        return True

    if not grow([0], 0, 0):
        return None
    packing = [0] * (max_size + 1)
    for s in range(1, max_size + 1):
        packing[s] = max([packing[s - 1]] + [most[t] + packing[s - t]
                                             for t in range(1, s + 1) if most[t]])
    return packing


def _scan(adj, max_size, workers=None):
    """Run the canonical enumeration up to ``max_size`` and tally it by size.

    Returns ``(count, min_boundary, witness, processes)``: per size, the
    number of connected sets containing vertex 0, their least
    inner-boundary count (None where there are no sets) and the member tuple
    of the first set in canonical order attaining it; then the number of
    processes the scan ran in, this one included.

    Sets of the top two sizes are handled in the loop of the node two levels
    above them: counted by arithmetic, and examined only while their size
    has not reached its size floor.  A subtree whose sizes have all reached
    their size floors is counted without being examined.  With more than one
    worker (default: the CPUs of the affinity mask) the tree is split into
    subtrees that run in forked processes, with the same result (see the
    module docstring).  The scan stays in this process when ``max_size`` is
    below 5 or when the process runs other threads.
    """
    if workers is None:
        workers = _workers()
    # fork only from a single-threaded process: a forked child gets no copy
    # of the other threads, but may inherit locks they held
    parallel = workers > 1 and threading.active_count() == 1
    split = _SPLIT_SIZE if parallel and max_size >= _SPLIT_SIZE + 2 else 0
    tasks = []
    run = _enumerator(adj, max_size, split, tasks)
    count, best, witness = run((), [0], 0, [max_size + 1] * (max_size + 1))
    processes = 1
    if tasks:
        processes = min(workers, len(tasks))
        shares = _run_shares(run, tasks, processes, max_size)
        for t in range(len(tasks)):
            t_count, t_best, t_witness = shares[t % processes][t // processes]
            for m in range(split + 1, max_size + 1):
                count[m] += t_count[m]
                if t_best[m] < best[m]:
                    best[m] = t_best[m]
                    witness[m] = t_witness[m]
    min_boundary = [b if c else None for b, c in zip(best, count)]
    return count, min_boundary, witness, processes


def _enumerator(adj, max_size, split=0, tasks=None):
    """Return ``run(prefix, cands, bcount, least)``.

    ``run`` enumerates the subtree of the canonical tree below the node whose
    members are ``prefix`` (in the order they were added), whose candidate
    list is ``cands`` and whose inner boundary has ``bcount`` members.
    ``least`` seeds the minimum of every size: a set is only recorded when
    it is strictly below the seed of its size, and ``max_size + 1`` is above
    any boundary.  The root is ``run((), [0], 0, [max_size + 1] * (max_size +
    1))``.  It returns per-size lists ``(count, best, witness)`` for the sets
    below the node; ``best`` holds the seed where nothing below it was
    found.  A node of size ``split`` (0: none) is not expanded; its
    ``prefix, cands, bcount`` are appended to ``tasks`` instead.
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
    deg = len(adj[0])
    # nodes of this size count their two lower levels
    pair_size = max_size - 2
    floors = _size_floors(adj, max_size)
    # the largest size whose minimum is above its floor (0: none); every size
    # above it is settled
    open_top = max_size

    def settle():
        # lower ``open_top`` past the sizes whose minimum reached the floor
        nonlocal open_top
        while open_top and best[open_top] <= floors[open_top]:
            open_top -= 1

    def rec(cands, size, bcount):
        if size == pair_size:
            pairs(cands, bcount)
            return
        nsize = size + 1
        for i, v in enumerate(cands):
            if open_top <= size:
                # no set below the remaining children is a strict improvement
                count_only(cands[i:], size)
                return
            av = adj[v]
            od = 0
            bc = bcount
            for u in av:
                if in_set[u]:
                    d = outdeg[u] - 1
                    outdeg[u] = d
                    if d == 0:
                        bc -= 1
                else:
                    od += 1
            outdeg[v] = od
            in_set[v] = 1
            if od:
                bc += 1
            members.append(v)
            count[nsize] += 1
            if bc < best[nsize]:
                best[nsize] = bc
                witness[nsize] = tuple(members)
                settle()
            if nsize < leaf_parent:
                new = [u for u in av if not occupied[u]]
                for u in new:
                    occupied[u] = 1
                if nsize == split:
                    tasks.append((tuple(members), new + cands[i + 1:], bc))
                else:
                    rec(new + cands[i + 1:], nsize, bc)
                for u in new:
                    occupied[u] = 0
            members.pop()
            in_set[v] = 0
            for u in av:
                if in_set[u]:
                    outdeg[u] += 1

    def count_only(cands, size):
        # the subtrees below the children ``cands`` of a node of ``size``,
        # counted with ``occupied`` alone
        if size == pair_size:
            count_pairs(cands)
            return
        nsize = size + 1
        count[nsize] += len(cands)
        if nsize < leaf_parent:
            for i, v in enumerate(cands):
                new = [u for u in adj[v] if not occupied[u]]
                for u in new:
                    occupied[u] = 1
                count_only(new + cands[i + 1:], nsize)
                for u in new:
                    occupied[u] = 0

    def count_pairs(rest):
        # the children S+v, v in ``rest``, of a node S of size max_size - 2 and
        # the leaves below them: S+v has a leaf per candidate after v and per
        # neighbor of v that is not occupied
        left = len(rest)
        count[leaf_parent] += left
        occ = sum([occupied[u] for w in rest for u in adj[w]])
        count[max_size] += left * (left - 1) // 2 + left * deg - occ

    def pairs(cands, bcount):
        # the leaf parents S+v and the leaves below a node S of size
        # max_size - 2, counted by arithmetic once both sizes are settled
        last = len(cands) - 1
        for i, v in enumerate(cands):
            if open_top <= pair_size:
                # no set below the remaining children is a strict improvement
                count_pairs(cands[i:])
                return
            # peek at S+v: the reads of ``rec``'s add loop, without the writes
            av = adj[v]
            od = 0
            fresh = 0
            bc = bcount
            for u in av:
                if in_set[u]:
                    if outdeg[u] == 1:
                        bc -= 1
                else:
                    od += 1
                    if not occupied[u]:
                        fresh += 1
            if od:
                bc += 1
            count[leaf_parent] += 1
            if bc < best[leaf_parent]:
                best[leaf_parent] = bc
                witness[leaf_parent] = (*members, v)
                settle()
            count[max_size] += fresh + last - i
            if open_top == max_size:
                for u in av:
                    if in_set[u]:
                        outdeg[u] -= 1
                outdeg[v] = od
                in_set[v] = 1
                members.append(v)
                scan_leaves([u for u in av if not occupied[u]] + cands[i + 1:], bc)
                members.pop()
                in_set[v] = 0
                for u in av:
                    if in_set[u]:
                        outdeg[u] += 1

    def scan_leaves(leaves, bc):
        # record the least leaf members + [w] below a leaf parent with ``bc``
        # boundary members; stop once that leaf settles size max_size
        least = best[max_size]
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
                if b <= floors[max_size]:
                    break
        if least < best[max_size]:
            best[max_size] = least
            settle()

    def run(prefix, cands, bcount, least):
        nonlocal open_top
        count[:] = [0] * (max_size + 1)
        best[:] = least
        witness[:] = [None] * (max_size + 1)
        open_top = max_size
        settle()
        # replay the additions of the prefix; the occupied vertices of a node
        # are the identity and every neighbor of a member
        occupied[0] = 1
        for v in prefix:
            od = 0
            for u in adj[v]:
                occupied[u] = 1
                if in_set[u]:
                    outdeg[u] -= 1
                else:
                    od += 1
            outdeg[v] = od
            in_set[v] = 1
            members.append(v)
        rec(cands, len(prefix), bcount)
        for v in prefix:
            in_set[v] = 0
            for u in adj[v]:
                occupied[u] = 0
        occupied[0] = 0
        members.clear()
        return list(count), list(best), list(witness)

    return run


def _run_share(run, share, max_size):
    """Run the tasks of ``share`` in order, each seeded with the minima of
    every size found in the tasks before it."""
    results = []
    least = [max_size + 1] * (max_size + 1)
    for prefix, cands, bcount in share:
        result = run(prefix, cands, bcount, least)
        least = result[1]
        results.append(result)
    return results


def _run_shares(run, tasks, workers, max_size):
    """Results of ``tasks[w::workers]`` for every worker w, in that order.

    The caller's process is worker 0; workers 1.. are forked children that
    send their results back through a pipe.  A child that fails or dies makes
    this raise, and every child is reaped before it returns or raises.
    """
    children = []
    try:
        for w in range(1, workers):
            children.append(_fork_share(run, tasks[w::workers], max_size))
        shares = [_run_share(run, tasks[::workers], max_size)]
        replies = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for w, (code, reply) in enumerate(zip(codes, replies), 1):
        if code != 0 or not reply:
            raise RuntimeError(f"scan worker {w} exited with code {code}")
        ok, value = marshal.loads(reply)
        if not ok:
            raise RuntimeError(f"scan worker {w} failed: {value}")
        shares.append(value)
    return shares


def _fork_share(run, share, max_size):
    """Fork a child that runs ``share``; return its pid and the read end of
    the pipe it writes ``(True, results)`` or ``(False, error text)`` to."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child never returns into the caller
        code = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, _run_share(run, share, max_size))
            except Exception as exc:
                reply = (False, f"{type(exc).__name__}: {exc}")
            with open(write_fd, "wb") as pipe:
                marshal.dump(reply, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


class MinRatioTable:
    """Per-size minimum boundary counts over connected sets containing e.

    ``min_boundary[m]`` is the smallest inner-boundary cardinality among
    connected m-sets containing the identity (None if m is 0), ``witness[m]``
    the first achiever in canonical enumeration order, ``count[m]`` the number
    of such sets.  ``min_boundary[m] / m`` is therefore the exact minimum
    boundary ratio at size m, over arbitrary finite sets as well (see module
    docstring for the reduction).
    """

    __slots__ = ("group", "max_size", "min_boundary", "witness", "count", "index")

    def __init__(self, group: Group, max_size: int, min_boundary: list, witness: list,
                 count: list, index: AdjacencyIndex):
        self.group = group
        self.max_size = max_size
        self.min_boundary = min_boundary
        self.witness = witness
        self.count = count
        self.index = index

    def min_ratio(self, size: int) -> Fraction:
        return Fraction(self.min_boundary[self._scanned(size)], size)

    def witness_subset(self, size: int) -> FiniteSubset:
        elems = [self.index.elements[i] for i in self.witness[self._scanned(size)]]
        return FiniteSubset(self.group, elems)

    def _scanned(self, size):
        """``size``; :class:`BadParams` unless the table has sets of that size."""
        _check_positive_int(size, "size")
        if size > self.max_size or not self.count[size]:
            raise BadParams(f"the table up to size {self.max_size} has no sets of size {size}")
        return size


_scan_cache: dict = {}


def min_ratio_table(group: Group, max_size: int,
                    max_elements: int | None = None) -> MinRatioTable:
    """Exhaustively scan connected subsets up to ``max_size``.

    The ball B(max_size) is enumerated under the element budget
    ``max_elements`` (see :func:`enumerate_ball`) before the scan starts.

    Tables are memoized for the life of the process by (descriptor,
    generators, ``max_size``), the library's one memo: the Folner values and
    the connected certificate of a group all read one scan.  A memoized
    table larger than the budget fails as a fresh scan would.
    """
    _check_positive_int(max_size, "max_size")
    budget = _search_budget(group, max_size, max_elements)
    cache_key = (group.descriptor, group.generators, max_size)
    cached = _scan_cache.get(cache_key)
    if cached is not None and len(cached.index.elements) <= budget:
        return cached
    index = adjacency_index(group, max_size, budget)
    count, minb, witness, _ = _scan(index.adj, max_size)
    result = MinRatioTable(group, max_size, minb, witness, count, index)
    _scan_cache[cache_key] = result
    return result


def connected_subsets(group: Group, max_size: int):
    """Yield every connected subset containing e of size <= max_size, exactly
    once, in increasing cardinality (canonical order within each size).

    A plain recursion over the rows of :func:`adjacency_index`, in the
    enumeration scheme of the module docstring with no floors and no
    counting: the reference the scan's counts and witnesses are tested
    against.  Each size is one pass of the recursion cut off at that depth,
    so sets stream out as they are found and none is held.
    """
    _check_positive_int(max_size, "max_size")
    index = adjacency_index(group, max_size)
    adj = index.adj
    occupied = {0}
    members = []

    def grow(cands, size):
        # add each candidate in turn; the ones before it stay out of its branch
        for i, v in enumerate(cands):
            members.append(v)
            if len(members) == size:
                yield FiniteSubset(group, [index.elements[j] for j in members])
            else:
                new = [u for u in adj[v] if u not in occupied]
                occupied.update(new)
                yield from grow(new + cands[i + 1:], size)
                occupied.difference_update(new)
            members.pop()

    for size in range(1, max_size + 1):
        yield from grow([0], size)


class FolnerRecord:
    """One Folner-function data point.

    ``value`` is an exact integer, a :class:`LowerBound`, or the infinite
    sentinel (configured non-amenable groups only).  ``witness`` achieves the
    minimum when the value is exact.
    """

    __slots__ = ("n", "value", "witness", "search_cap", "family_upper")

    def __init__(self, n: int, value, witness, search_cap: int, family_upper=None):
        self.n = n
        self.value = value
        self.witness = witness
        self.search_cap = search_cap
        self.family_upper = family_upper

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


def folner_exact(group: Group, n: int, cap: int,
                 max_elements: int | None = None) -> FolnerRecord:
    """Minimal size of a set with boundary ratio <= 1/n, searched up to ``cap``.

    Returns an exact value with witness when the search succeeds, a
    :class:`LowerBound` of cap+1 when it exhausts the cap, and the infinite
    sentinel for n >= 2 on groups configured non-amenable.  ``max_elements``
    is the element budget of the ball the search runs in.
    """
    family = _family_upper_or_none(group, n)  # checks n
    _check_positive_int(cap, "cap")
    if n == 1:
        # every non-empty set has ratio <= 1 and the singleton attains it
        return FolnerRecord(1, 1, FiniteSubset(group, [group.identity]), cap, family)
    if group.is_nonamenable:
        return FolnerRecord(n, INFINITE, None, cap, family)
    table = min_ratio_table(group, cap, max_elements=max_elements)
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
    _check_positive_int(n, "n")
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
