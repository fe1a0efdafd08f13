"""Mass-transport structures on finite subsets and their counting identities.

For a subset W and radius r the ledger materializes, exhaustively and exactly:

    W_g       elements x of W with x*g outside W, for every g in B(r)
    rays      pairs (x, g) with x in W, |g| <= r, x*g outside W
    exit map  for x in W_g, the first point x*g_k of the chosen geodesic
              of g that lies on the inner boundary of W

The two countings are two index orders of the same pair set, so their totals
agree; that equality is asserted at build time and re-checkable through
:func:`verify_lemma`.

Geodesic choice: the lexicographically smallest letter sequence with respect
to the fixed generator order.  :func:`geodesic_word` finds it by greedy
descent (take the smallest generator index that decreases the word norm).
Any fixed choice works; this one makes ledgers reproducible byte for byte.

The ledger reads the same geodesics off the geodesic tree of B(r) instead.
``BallTable.elements`` is in BFS discovery order: frontier order, then
generator order.  Claim: the first pair (y, s) in that order with y*s = g
gives g's least geodesic as the least geodesic of y followed by s, and the
sphere of radius n is listed in the lexicographic order of its least
geodesics.  By induction on n: the geodesics of g are the words w s with w a
geodesic of some y = g s^-1 of norm n-1.  Comparing two such words compares
w first and the last letter second, so the least one takes the y whose least
geodesic comes first, which by induction is the y listed first in the
frontier, and then the least letter s from that y.  That is exactly the first
(y, s) to reach g, and ordering sphere n by its first reaching pair orders it
lexicographically, which carries the induction.  So the tree whose parent
step of g is its first reaching (y, s) has, as root path of every g, the word
greedy descent picks.

Building the tree costs b_(r-1) |S| products per ledger.  Per x in W each
point is then one product, x*g = (x*parent(g))*s, and the first boundary
point on the path to x*g is inherited: it is the parent's, or x*g itself when
the parent's path has none.  A point outside W is never a boundary point, so
an exiting pair (x, g) reads its exit point straight from its parent.
"""

from __future__ import annotations

from fractions import Fraction

from .balls import INFINITE, BallTable, _degree_bound_violation, _search_budget, phi
from .errors import (
    BadParams,
    EmptySet,
    ExitNotFound,
    HorizonExceeded,
    PreconditionUnmet,
)
from .isoperimetry import FiniteSubset, _check_positive_int, _check_same_group, _exact_alpha

__all__ = [
    "GeodesicWord",
    "TransportLedger",
    "LemmaReport",
    "LEMMAS",
    "geodesic_word",
    "build_ledger",
    "verify_lemma",
]

LEMMAS = ("spheres", "balls", "transport", "counting", "ray-lower", "conclude", "fiber")


class GeodesicWord:
    """A minimal-length expression of ``target`` with its prefix path.

    ``letters[k]`` is a generator index; ``prefixes[k]`` is the product of the
    first k letters, so ``prefixes[0]`` is the identity and ``prefixes[-1]``
    is the target.
    """

    __slots__ = ("target", "letters", "prefixes")

    def __init__(self, target, letters: tuple, prefixes: tuple):
        self.target = target
        self.letters = letters
        self.prefixes = prefixes

    def __len__(self):
        return len(self.letters)


def geodesic_word(table: BallTable, g) -> GeodesicWord:
    """Deterministic minimal-length expression of ``g`` (see module docstring)."""
    group = table.group
    group.check_element(g)
    norm = table.norm(g)  # HorizonExceeded if outside the table
    letters = []
    prefixes = [group.identity]
    rest = g
    rest_norm = norm
    gens = group.generators
    mul = group._mul
    inverses = [group._inv(s) for s in gens]
    while rest_norm > 0:
        for j, s in enumerate(gens):
            shorter = mul(inverses[j], rest)
            if table.norm_of.get(shorter, rest_norm + 1) == rest_norm - 1:
                letters.append(j)
                prefixes.append(mul(prefixes[-1], s))
                rest = shorter
                rest_norm -= 1
                break
        else:  # impossible on a correct table: some first letter must descend
            raise RuntimeError(
                f"no descending generator at {group.format_element(rest)}"
            )
    return GeodesicWord(g, tuple(letters), tuple(prefixes))


class TransportLedger:
    """Exhaustive transport data for one (subset, radius) pair."""

    __slots__ = ("omega", "r", "table", "omega_g", "rays", "exit_fibers", "sum_omega_g",
                 "sum_rays", "max_fiber")

    def __init__(self, omega: FiniteSubset, r: int, table: BallTable, omega_g: dict,
                 rays: dict, exit_fibers: dict, sum_omega_g: int, sum_rays: int,
                 max_fiber: int):
        self.omega = omega
        self.r = r
        self.table = table
        self.omega_g = omega_g
        self.rays = rays
        self.exit_fibers = exit_fibers
        self.sum_omega_g = sum_omega_g
        self.sum_rays = sum_rays
        self.max_fiber = max_fiber

    def to_json_dict(self):
        group = self.omega.group
        return {
            "group": group.descriptor,
            "omega_size": len(self.omega),
            "r": self.r,
            "sum_rays": self.sum_rays,
            "sum_omega_g": self.sum_omega_g,
            "max_fiber": self.max_fiber,
            "boundary_size": len(self.omega.boundary_set()),
        }


def build_ledger(omega: FiniteSubset, table: BallTable, r: int,
                 max_elements: int | None = None) -> TransportLedger:
    """Populate W_g, rays and exit fibers by iterating W x B(r) exhaustively.

    The iteration visits the |W| |B(r)| pairs (x, g) once each.  That count
    is held to the element budget ``max_elements`` (None for the default of
    :func:`enumerate_ball`): a ledger with more pairs raises
    :class:`BadParams` before its loops start.
    """
    if not omega.elements:
        raise EmptySet("transport ledger needs a non-empty subset")
    _check_positive_int(r, "radius")
    if r > table.max_radius:
        raise HorizonExceeded(f"ledger radius {r} beyond table horizon {table.max_radius}")
    group = omega.group
    _check_same_group(group, table.group, "ball table")
    budget = _search_budget(group, r, max_elements)
    pairs = len(omega) * table.b[r]
    if pairs > budget:
        raise BadParams(
            f"the ledger has |W| |B({r})| = {len(omega)} * {table.b[r]} = {pairs} "
            f"pairs, over the element budget of {budget}"
        )
    inside = omega.elements
    boundary = omega.boundary_set()
    norm_of = table.norm_of
    ball = table.members(r)

    # tree[j - 1] = (parent index, step by generator) of ball[j]: its first
    # reaching pair in discovery order, which is the order of ball itself
    tree = []
    reached = set()
    steps = group._right_steps()
    for i, y in enumerate(ball[: table.b[r - 1]]):
        n = norm_of[y] + 1
        for step in steps:
            z = step(y)
            if z not in reached and norm_of.get(z) == n:
                reached.add(z)
                tree.append((i, step))

    exits = [[] for _ in ball]
    rays = {}
    exit_fibers = {}
    for x in omega.sorted_elements():
        points = [x]
        first_exit = [x if x in boundary else None]
        out = []
        for j, (i, step) in enumerate(tree, 1):
            y = step(points[i])
            points.append(y)
            b = first_exit[i]
            if b is None and y in boundary:
                b = y
            first_exit.append(b)
            if y not in inside:
                g = ball[j]
                if b is None:  # impossible: the path leaves W from a boundary point
                    raise ExitNotFound(
                        f"path from {group.format_element(x)} by "
                        f"{group.format_element(g)} never met the boundary"
                    )
                exits[j].append(x)
                out.append(g)
                key = (g, b)
                exit_fibers[key] = exit_fibers.get(key, 0) + 1
        rays[x] = tuple(out)
    omega_g = {g: tuple(xs) for g, xs in zip(ball, exits)}

    sum_omega_g = sum(len(xs) for xs in omega_g.values())
    sum_rays = sum(len(gs) for gs in rays.values())
    # two countings of the same pair set; inequality here is a bug, not data
    assert sum_omega_g == sum_rays
    max_fiber = max(exit_fibers.values(), default=0)
    return TransportLedger(
        omega, r, table, omega_g, rays, exit_fibers, sum_omega_g, sum_rays, max_fiber
    )


class LemmaReport:
    """Outcome of one verifier; a failure names its witness and falsifies the
    implementation, never the statement."""

    __slots__ = ("which", "holds", "witness", "detail")

    def __init__(self, which: str, holds: bool, witness, detail: str):
        self.which = which
        self.holds = holds
        self.witness = witness
        self.detail = detail

    def to_json_dict(self):
        return {
            "which": self.which,
            "holds": self.holds,
            "witness": self.witness,
            "detail": self.detail,
        }


def verify_lemma(which: str, table: BallTable | None = None,
                 ledger: TransportLedger | None = None, alpha=None) -> LemmaReport:
    """Check one counting statement on a concrete table or ledger.

    ``spheres`` and ``balls`` need a table; the rest need a ledger (and
    ``ray-lower`` / ``conclude`` an exact rational ``alpha``).
    """
    if which not in LEMMAS:
        raise BadParams(f"unknown lemma {which!r}; choose from {LEMMAS}")
    if which in ("spheres", "balls"):
        if table is None:
            raise BadParams(f"lemma {which!r} needs a ball table")
        return _verify_counts(which, table)
    if ledger is None:
        raise BadParams(f"lemma {which!r} needs a transport ledger")
    if which == "transport":
        return _verify_transport(ledger)
    if which == "counting":
        return _verify_counting(ledger)
    if which == "fiber":
        return _verify_fiber(ledger)
    if alpha is None:
        raise BadParams(f"lemma {which!r} needs alpha")
    alpha = _exact_alpha(alpha)
    if which == "ray-lower":
        return _verify_ray_lower(ledger, alpha)
    return _verify_conclude(ledger, alpha)


def _verify_counts(which: str, table: BallTable) -> LemmaReport:
    r = _degree_bound_violation(which, table.s, table.b, len(table.group.generators))
    if r is not None:
        return LemmaReport(which, False, {"r": r}, f"violated at radius {r}")
    return LemmaReport(which, True, None,
                       f"radii 2..{table.max_radius} on {table.group.descriptor}")


def _verify_transport(ledger: TransportLedger) -> LemmaReport:
    group = ledger.omega.group
    bsize = len(ledger.omega.boundary_set())
    for g, xs in ledger.omega_g.items():
        if len(xs) > ledger.table.norm_of[g] * bsize:
            return LemmaReport(
                "transport", False, {"g": group.format_element(g)},
                f"|W_g| = {len(xs)} exceeds |g| |bd W| = {ledger.table.norm_of[g] * bsize}",
            )
    return LemmaReport("transport", True, None,
                       f"all {len(ledger.omega_g)} translates within bound")


def _verify_counting(ledger: TransportLedger) -> LemmaReport:
    lhs = sum(len(gs) for gs in ledger.rays.values())
    rhs = sum(len(xs) for xs in ledger.omega_g.values())
    if lhs != rhs:
        return LemmaReport("counting", False, {"sum_rays": lhs, "sum_omega_g": rhs},
                           "the two countings disagree")
    return LemmaReport("counting", True, None, f"both countings equal {lhs}")


def _verify_fiber(ledger: TransportLedger) -> LemmaReport:
    group = ledger.omega.group
    for (g, b), count in ledger.exit_fibers.items():
        if count > ledger.table.norm_of[g]:
            return LemmaReport(
                "fiber", False,
                {"g": group.format_element(g), "b": group.format_element(b)},
                f"fiber of size {count} exceeds |g| = {ledger.table.norm_of[g]}",
            )
    return LemmaReport("fiber", True, None,
                       f"all {len(ledger.exit_fibers)} fibers within bound")


def _verify_ray_lower(ledger: TransportLedger, alpha: Fraction) -> LemmaReport:
    size = len(ledger.omega)
    needed = (1 + alpha) * size
    if ledger.table.b[ledger.r] < needed:
        raise PreconditionUnmet(
            f"|B({ledger.r})| = {ledger.table.b[ledger.r]} < (1+alpha)|W| = {needed}"
        )
    return _ray_floor("ray-lower", ledger, alpha * size, "alpha |W|")


def _verify_conclude(ledger: TransportLedger, alpha: Fraction) -> LemmaReport:
    size = len(ledger.omega)
    r = phi(ledger.table, (1 + alpha) * size)
    if r is INFINITE or r != ledger.r:
        raise PreconditionUnmet(
            f"ledger radius {ledger.r} is not the growth inverse at (1+alpha)|W| "
            f"(got {r!r})"
        )
    floor = alpha / (1 + alpha) * ledger.table.b[r - 1]
    return _ray_floor("conclude", ledger, floor, "(alpha/(1+alpha)) b_(r-1)")


def _ray_floor(which: str, ledger: TransportLedger, floor: Fraction, label: str) -> LemmaReport:
    """Every ray set has at least ``floor`` members; ``label`` names the floor."""
    group = ledger.omega.group
    for x, gs in ledger.rays.items():
        if len(gs) < floor:
            return LemmaReport(
                which, False, {"x": group.format_element(x)},
                f"|rays({group.format_element(x)})| = {len(gs)} below {label} = {floor}",
            )
    return LemmaReport(which, True, None, f"every ray set has size >= {floor}")
