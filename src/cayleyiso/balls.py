"""Breadth-first ball enumeration, exact growth counts and derived quantities.

The central object is :class:`BallTable`: every element of the ball of radius
R around the identity, its exact word norm, and the exact counts b_r (ball),
s_r (sphere) and the sum of norms over each ball.  All counts are Python
integers, hence arbitrary precision by construction.

Frontier expansion follows generator-list order with a FIFO queue, so element
discovery order (and everything derived from it) is reproducible.  The search
right-multiplies by the group's trusted steps and skips, for each element, the
one product that leads back to its parent; :func:`_spheres` proves that the
skipped product is never new.  :func:`table_for_volume` grows one search
through doubling radii instead of restarting it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, count, islice

from .errors import BadParams, HorizonExceeded, MemoryBudgetExceeded, RadiusOutOfRange
from .groups import Group, _check_generators

__all__ = [
    "INFINITE",
    "BallTable",
    "GrowthEstimate",
    "enumerate_ball",
    "phi",
    "average_length",
    "growth_rate_upper",
    "table_for_volume",
]

#: default cap on enumerated elements; CLI can override via flag or environment
DEFAULT_MAX_ELEMENTS = 5_000_000


class _Infinite:
    """Sentinel for a provably infinite value (empty infimum on an exhausted
    group).  Never produced for a merely too-small horizon."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class BallTable:
    """Memoized BFS output for one group up to ``max_radius``.

    ``elements`` lists every member of B(max_radius) in discovery order, so
    ``elements[:b[r]]`` is exactly B(r).  ``norm_of`` maps payload to word
    norm.  Immutable once built; share freely.
    """

    __slots__ = ("group", "max_radius", "elements", "norm_of", "b", "s", "length_sum",
                 "exhausted")

    def __init__(self, group: Group, max_radius: int, elements: list, norm_of: dict,
                 b: list, s: list, length_sum: list, exhausted: bool):
        self.group = group
        self.max_radius = max_radius
        self.elements = elements
        self.norm_of = norm_of
        self.b = b
        self.s = s
        self.length_sum = length_sum
        self.exhausted = exhausted

    def norm(self, a) -> int:
        """Exact word norm of ``a``; HorizonExceeded if outside the table."""
        try:
            return self.norm_of[a]
        except KeyError:
            raise HorizonExceeded(
                f"element {self.group.format_element(a)} outside B({self.max_radius})"
            ) from None

    def __contains__(self, a) -> bool:
        return a in self.norm_of

    def members(self, r: int) -> list:
        """The ball B(r) as a list in discovery order."""
        self._check_radius(r)
        return self.elements[: self.b[r]]

    def volume_at(self, x) -> int:
        """|B(x)| for a rational radius: 0 below zero, floor otherwise."""
        if x < 0:
            return 0
        r = math.floor(x)
        if r <= self.max_radius:
            return self.b[r]
        if self.exhausted:
            return self.b[self.max_radius]
        raise HorizonExceeded(f"radius {x} beyond table horizon {self.max_radius}")

    def _check_radius(self, r):
        if not isinstance(r, int) or r < 0 or r > self.max_radius:
            raise RadiusOutOfRange(f"radius {r!r} not in [0, {self.max_radius}]")

    def csv_rows(self):
        """Rows ``r, b_r, s_r, length_sum_r, avg_len_num, avg_len_den``."""
        rows = []
        for r in range(self.max_radius + 1):
            avg = Fraction(self.length_sum[r], self.b[r])
            rows.append((r, self.b[r], self.s[r], self.length_sum[r], avg.numerator, avg.denominator))
        return rows

    def to_json_dict(self):
        return {
            "group": self.group.descriptor,
            "max_radius": self.max_radius,
            "exhausted": self.exhausted,
            "rows": [
                {
                    "r": r,
                    "b": b,
                    "s": s,
                    "length_sum": ls,
                    "avg_len": {"num": num, "den": den},
                }
                for (r, b, s, ls, num, den) in self.csv_rows()
            ],
        }


def enumerate_ball(group: Group, radius: int, max_elements: int | None = None) -> BallTable:
    """Enumerate B(radius) by breadth-first search from the identity.

    Raises :class:`MemoryBudgetExceeded` (carrying the last completed radius)
    if the ball outgrows ``max_elements``.  The search is :func:`_spheres`.
    """
    _check_generators(group)
    budget = _search_budget(group, radius, max_elements)
    for state in islice(_spheres(group, budget), radius + 1):
        pass
    return _table(group, radius, *state)


def _spheres(group: Group, budget: int):
    """The one ball search.  Yields the state ``(elements, norm_of, b)`` of
    B(0) and again after each completed sphere, the same lists grown in
    place, and returns at the first empty sphere.

    Each frontier element x keeps the letter j by which it was first
    reached, and the search skips the product of x by the inverse of g_j.
    That product is never new: x = p * g_j for an element p of the previous
    sphere, so x * g_j^-1 = p is already in the table.  Every product the
    search forms is formed in the same order as without the skip, so the
    discovery order, the norms and the counts are those of the full search.

    Its callers, like every search, first refuse a generating set that
    repeats, includes the identity or is not symmetric (the skip needs each
    inverse, and the degree bounds of :func:`_checked_sphere_counts` hold
    only then) with :class:`InvalidParams`, before the element budget.

    The budget is checked once per expanded element, so the search raises
    :class:`MemoryBudgetExceeded` at the first sphere whose ball holds more
    than ``budget`` elements.  By then the ball holds at most budget + deg
    elements (deg generators): up to deg - 1 more than the budget + 1 at
    which a check per new element would stop.
    """
    e = group.identity
    elements = [e]
    norm_of = {e: 0}
    b = [1]
    state = elements, norm_of, b
    yield state
    gens = group.generators
    k = len(gens)
    # moves[j]: the (letter, step) pairs tried from an element first reached
    # by letter j, that is every generator but j's inverse; moves[k] has them
    # all, for the identity
    every = tuple(enumerate(group._right_steps()))
    moves = []
    for g in gens:
        inverse = next(h for h, g2 in enumerate(gens) if group._mul(g, g2) == e)
        moves.append(tuple(move for move in every if move[0] != inverse))
    moves.append(every)
    frontier = [e]
    letters = [k]
    for r in count(1):
        new_frontier = []
        new_letters = []
        for x, j in zip(frontier, letters):
            for h, step in moves[j]:
                y = step(x)
                if y not in norm_of:
                    norm_of[y] = r
                    new_frontier.append(y)
                    new_letters.append(h)
            if len(norm_of) > budget:
                raise _budget_exceeded(group, budget, r)
        if not new_frontier:
            return
        elements.extend(new_frontier)
        b.append(len(elements))
        yield state
        frontier = new_frontier
        letters = new_letters


def _table(group: Group, radius: int, elements: list, norm_of: dict, b: list) -> BallTable:
    """The table of B(radius) from a search state that reached it."""
    # b is short of radius + 1 entries only when a sphere came out empty
    exhausted = len(b) <= radius
    b.extend([len(elements)] * (radius + 1 - len(b)))
    s = _checked_sphere_counts(b, len(group.generators))
    length_sum = list(accumulate(r * size for r, size in enumerate(s)))
    return BallTable(group, radius, elements, norm_of, b, s, length_sum, exhausted)


def _search_budget(group: Group, radius, max_elements) -> int:
    """Preamble of every ball search: check the radius, resolve the element
    budget (None for the default) and fail at radius 0 below 1 element."""
    if not isinstance(radius, int) or radius < 0:
        raise RadiusOutOfRange(f"radius must be a non-negative integer, got {radius!r}")
    budget = DEFAULT_MAX_ELEMENTS if max_elements is None else max_elements
    if budget < 1:
        raise _budget_exceeded(group, budget, 0)
    return budget


def _budget_exceeded(group: Group, budget: int, r: int) -> MemoryBudgetExceeded:
    """The error of a BFS whose ball outgrew ``budget`` elements at radius r."""
    return MemoryBudgetExceeded(
        f"ball of {group.descriptor} exceeded {budget} elements at radius {r}",
        last_completed_radius=r - 1,
    )


def _checked_sphere_counts(b: list, k: int) -> list:
    """Sphere counts of the ball counts ``b`` of a search with k symmetric
    generators, after asserting both degree bounds: theorems, so a violation
    means the search is broken."""
    s = [1] + [b[r] - b[r - 1] for r in range(1, len(b))]
    for which in ("spheres", "balls"):
        assert _degree_bound_violation(which, s, b, k) is None
    return s


def _degree_bound_violation(which: str, s: list, b: list, k: int):
    """First radius r >= 2 at which sphere counts ``s`` or ball counts ``b``
    break a degree bound of a Cayley graph with k generators.

    ``which`` is ``"spheres"`` for s_r <= (k-1) s_(r-1) or ``"balls"`` for
    b_r <= k b_(r-1).  Returns None when every radius obeys the bound.
    """
    counts, factor = (s, k - 1) if which == "spheres" else (b, k)
    for r in range(2, len(counts)):
        if counts[r] > factor * counts[r - 1]:
            return r
    return None


def _check_volume(v) -> None:
    """The volume :func:`phi` and :func:`table_for_volume` take: exact, >= 0."""
    if isinstance(v, float):
        raise BadParams("phi takes exact volumes (int or Fraction), not float")
    if v < 0:
        raise BadParams(f"volume must be >= 0, got {v}")


def phi(table: BallTable, v):
    """Least radius whose ball volume strictly exceeds ``v``.

    ``v`` must pass :func:`_check_volume`.  Returns INFINITE only when the
    table shows the group exhausted (the infimum of the empty set); raises
    HorizonExceeded when the horizon is simply too small.
    """
    _check_volume(v)
    # b_r is an integer, so b_r > v exactly when b_r > floor(v)
    r = bisect_right(table.b, math.floor(v))
    if r <= table.max_radius:
        return r
    if table.exhausted:
        return INFINITE
    raise HorizonExceeded(
        f"b_{table.max_radius} = {table.b[-1]} <= {v}; enlarge the table radius"
    )


def average_length(table: BallTable, r: int) -> Fraction:
    """Average word norm over B(r), as an exact rational (always <= r)."""
    table._check_radius(r)
    return Fraction(table.length_sum[r], table.b[r])


class GrowthEstimate:
    """Subadditive upper estimates for the exponential growth rate.

    ``fekete_inf`` = min over 1 <= n <= horizon of ln(b_n)/n, an upper bound
    for the true limit.  ``is_exponential_evidence`` is a heuristic flag only,
    never a proof: it holds when late increments of ln(b_n) stay comparable to
    the mid-horizon ones, compared exactly on the counts b_n.  Polynomial
    growth halves those increments with n, exponential growth keeps them
    essentially constant.
    """

    __slots__ = ("horizon", "per_n", "fekete_inf", "is_exponential_evidence")

    def __init__(self, horizon: int, per_n: tuple, fekete_inf: float,
                 is_exponential_evidence: bool):
        self.horizon = horizon
        self.per_n = per_n
        self.fekete_inf = fekete_inf
        self.is_exponential_evidence = is_exponential_evidence


# Increment-flatness threshold: from horizon 6 on, the polynomial built-ins
# (Z^d up to d = 4, dinf, heis) stay at or below ~0.63 and the exponential
# ones (free:2, free:3, lamplighter) at or above ~0.74.  Below horizon 6 heis
# reaches 0.73 and the lamplighter falls to 0.53, so no horizon below 6 is
# evidence.
_EVIDENCE_RATIO = Fraction(7, 10)
_EVIDENCE_MIN_HORIZON = 6


def growth_rate_upper(table: BallTable, horizon: int) -> GrowthEstimate:
    """Per-n values ln(b_n)/n and their running minimum at the horizon."""
    if not isinstance(horizon, int) or horizon < 1 or horizon > table.max_radius:
        raise RadiusOutOfRange(f"horizon {horizon!r} not in [1, {table.max_radius}]")
    b = table.b
    per_n = tuple(math.log(b[n]) / n for n in range(1, horizon + 1))
    # two-step log-increments, late = ln(b_h / b_(h-2)) and mid =
    # ln(b_half / b_(half-2)), damp parity wobbles.  late > 0 and
    # late >= p/q * mid are decided on integers, the latter as
    # b_h^q b_(half-2)^p >= b_(h-2)^q b_half^p.  fekete_inf > 0 needs no
    # test: b_1 = 1 means b is constant, and then b_h > b_(h-2) fails.
    h, half = horizon, (horizon + 1) // 2
    p, q = _EVIDENCE_RATIO.numerator, _EVIDENCE_RATIO.denominator
    evidence = (h >= _EVIDENCE_MIN_HORIZON and b[h] > b[h - 2]
                and b[h] ** q * b[half - 2] ** p >= b[h - 2] ** q * b[half] ** p)
    return GrowthEstimate(horizon, per_n, min(per_n), evidence)


def table_for_volume(group: Group, volume, max_elements: int | None = None,
                     start_radius: int = 4) -> BallTable:
    """Smallest-effort table with b_R > volume (or the group exhausted).

    Grows one search through the radii start_radius, twice that, and so on,
    and returns the table of the first with b_R > volume, so callers can
    evaluate the growth inverse without guessing a horizon.
    """
    _check_volume(volume)
    _check_generators(group)
    radius = max(1, start_radius)
    budget = _search_budget(group, radius, max_elements)
    for state in _spheres(group, budget):
        b = state[2]
        if len(b) - 1 == radius:
            if b[-1] > volume:
                break
            radius *= 2
    return _table(group, radius, *state)
