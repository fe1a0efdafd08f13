"""Bound conversions between the two inequality shapes, and scoped certificates.

Two parameter shapes describe one lower bound each:

    CscBound(c, alpha):       for all finite non-empty W,
                              |bd W| / |W| >= c / Phi[(1+alpha) |W|]
    FolnerBound(c, alpha, rho): for all n >= 1,
                              folner(n) >= |B(c n - rho)| / (1 + alpha)

The conversions are parameter passthrough one way and a volume inflation by
|S|^ceil(rho+c) the other way.  Certification is always scoped: a certificate
records the finite family of sets it actually checked and never claims more.
A failing certificate, by contrast, is a genuine disproof with a witness.

The quotient estimate divides window statistics of ln(folner(n))/n by the
subadditive growth-rate minimum.  A lower limit of a sequence cannot be
bounded from finite data, so the estimate reports labeled window statistics
and an always-empty certified interval, with explicit caveats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .balls import INFINITE, BallTable, _search_budget, growth_rate_upper, phi, table_for_volume
from .errors import BadParams, EmptyGeneratingSet, InsufficientData, NotApplicable
from .folner import LowerBound, _Value, adjacency_index, min_ratio_table
from .groups import Group
from .isoperimetry import FiniteSubset, _as_fraction, _check_same_group, _exact_alpha

__all__ = [
    "CscBound",
    "FolnerBound",
    "BallSubsetsScope",
    "ConnectedScope",
    "Certificate",
    "FolnerFormCheck",
    "QuotientEstimate",
    "csc_to_folner",
    "folner_to_csc",
    "check_folner_form",
    "certify_at_scale",
    "quotient_estimate",
]


class _Bound(_Value):
    """Parameters checked when the bound is built: every field becomes an
    exact rational (ints convert, anything else raises BadParams), and alpha
    must be >= 0."""

    __slots__ = ()

    def params_dict(self):
        return {name: str(getattr(self, name)) for name in self.__slots__}


class CscBound(_Bound):
    """Outer-constant shape: ratio >= c / Phi[(1+alpha)|W|] for all W."""

    __slots__ = ("c", "alpha")

    def __init__(self, c, alpha):
        object.__setattr__(self, "c", _as_fraction(c, "c"))
        object.__setattr__(self, "alpha", _exact_alpha(alpha))


class FolnerBound(_Bound):
    """Inner-constant shape: folner(n) >= |B(c n - rho)| / (1+alpha) for all n."""

    __slots__ = ("c", "alpha", "rho")

    def __init__(self, c, alpha, rho):
        object.__setattr__(self, "c", _as_fraction(c, "c"))
        object.__setattr__(self, "alpha", _as_fraction(alpha, "alpha"))
        object.__setattr__(self, "rho", _as_fraction(rho, "rho"))
        _exact_alpha(self.alpha)


def csc_to_folner(bound: CscBound, rho) -> FolnerBound:
    """Outer-to-inner direction: same (c, alpha), any strictly positive rho."""
    inner = FolnerBound(bound.c, bound.alpha, rho)
    if inner.c <= 0:
        raise BadParams(f"conversion requires c > 0, got {inner.c}")
    if inner.rho <= 0:
        raise BadParams(f"conversion requires rho > 0, got {inner.rho}")
    return inner


def folner_to_csc(bound: FolnerBound, generating_set_size: int) -> CscBound:
    """Inner-to-outer direction: volume inflation |S|^ceil(rho+c) (1+alpha).

    The returned shape keeps c and absorbs the inflation into the effective
    alpha, so its Phi argument is |S|^ceil(rho+c) (1+alpha) |W|.
    """
    if bound.c <= 0:
        raise BadParams(f"conversion requires c > 0, got {bound.c}")
    if bound.rho < 0:
        raise BadParams(f"rho must be >= 0, got {bound.rho}")
    if not isinstance(generating_set_size, int) or generating_set_size < 1:
        raise EmptyGeneratingSet(
            f"conversion needs a non-empty generating set, got size {generating_set_size!r}"
        )
    exponent = math.ceil(bound.rho + bound.c)
    inflation = Fraction(generating_set_size) ** exponent * (1 + bound.alpha)
    return CscBound(bound.c, inflation - 1)


class BallSubsetsScope(_Value):
    """Every non-empty subset of the ball of the given radius."""

    __slots__ = ("radius",)

    def __init__(self, radius: int = 2):
        object.__setattr__(self, "radius", radius)

    def describe(self):
        return f"all non-empty subsets of B({self.radius})"


class ConnectedScope(_Value):
    """Every connected subset containing the identity, up to the given size."""

    __slots__ = ("max_size",)

    def __init__(self, max_size: int):
        object.__setattr__(self, "max_size", max_size)

    def describe(self):
        return f"connected subsets containing e with size <= {self.max_size}"


# Guard for the exponential subset scope; 2^20 masks is already generous.
_MAX_SUBSET_SCOPE_BITS = 20


class Certificate:
    """Result of checking a CscBound over a stated finite scope.

    A pass is evidence at scale only; a fail carries a concrete witness and
    disproves the bound outright.
    """

    __slots__ = ("group", "bound", "scope", "holds", "witness", "checked_sets",
                 "derived_bounds")

    def __init__(self, group: str, bound: CscBound, scope, holds: bool, witness,
                 checked_sets: int, derived_bounds: dict):
        self.group = group
        self.bound = bound
        self.scope = scope
        self.holds = holds
        self.witness = witness
        self.checked_sets = checked_sets
        self.derived_bounds = derived_bounds

    def to_json_dict(self):
        return {
            "form": "csc",
            "params": self.bound.params_dict(),
            "scope": self.scope.describe(),
            "group": self.group,
            "holds": self.holds,
            "witness": self.witness.keys() if self.witness is not None else None,
            "checked_sets": self.checked_sets,
            "derived_bounds": self.derived_bounds,
        }


def _rhs_by_size(group: Group, bound: CscBound, max_size: int, max_elements=None):
    """rhs(m) = c / Phi[(1+alpha) m]; zero where Phi is the infinite sentinel."""
    table = table_for_volume(group, (1 + bound.alpha) * max_size, max_elements=max_elements)
    rhs = [None] * (max_size + 1)
    for m in range(1, max_size + 1):
        r = phi(table, (1 + bound.alpha) * m)
        rhs[m] = Fraction(0) if r is INFINITE else bound.c / Fraction(r)
    return rhs


def certify_at_scale(group: Group, bound: CscBound, scope,
                     max_elements: int | None = None) -> Certificate:
    """Check the outer-shape bound over every set in the scope, exactly."""
    if bound.c < 0:
        raise BadParams(f"c must be >= 0, got {bound.c}")
    if isinstance(scope, BallSubsetsScope):
        return _certify_ball_subsets(group, bound, scope, max_elements)
    if isinstance(scope, ConnectedScope):
        return _certify_connected(group, bound, scope, max_elements)
    raise BadParams(f"unknown scope {scope!r}")


def _certify_ball_subsets(group, bound, scope, max_elements):
    budget = _search_budget(group, scope.radius, max_elements)
    # B(radius) leads the elements of B(radius + 1), and only its vertices have rows
    index = adjacency_index(group, scope.radius + 1, budget)
    rows = [row for row in index.adj if row is not None]
    n = len(rows)
    members = index.elements[:n]
    if n > _MAX_SUBSET_SCOPE_BITS:
        raise BadParams(
            f"B({scope.radius}) has {n} elements; 2^{n} subsets is beyond the "
            f"exhaustive scope limit (2^{_MAX_SUBSET_SCOPE_BITS})"
        )
    rhs = _rhs_by_size(group, bound, n, max_elements)
    # Member i is on the inner boundary of a mask when it has a neighbor
    # outside B(radius) (bit i of ``edge``) or a neighbor j outside the mask
    # (bit i of ``touch[j]``).  So the boundary of a mask is
    #     mask & (edge | OR of touch[j] over j not in mask),
    # and the union is read from two tables indexed by the low and the high
    # half of the complement's bits (at most 2^10 entries each).
    edge = 0
    touch = [0] * n
    for i, row in enumerate(rows):
        for j in row:
            if j >= n:
                edge |= 1 << i
            else:
                touch[j] |= 1 << i
    half = n // 2
    low_bits = (1 << half) - 1
    low_union = _union_table(touch[:half])
    high_union = _union_table(touch[half:])
    full = (1 << n) - 1
    # ratios compare as bcount * q < p * size against rhs = p / q; the
    # running minimum is the pair (bcount, size), starting from 1/0 = infinity
    rhs_pq = [None] + [(f.numerator, f.denominator) for f in rhs[1:]]
    best_b, best_size = 1, 0
    for mask in range(1, full + 1):
        size = mask.bit_count()
        outside = full ^ mask
        bcount = (mask & (edge | low_union[outside & low_bits]
                          | high_union[outside >> half])).bit_count()
        if bcount * best_size < best_b * size:
            best_b, best_size = bcount, size
        p, q = rhs_pq[size]
        if bcount * q < p * size:
            witness = FiniteSubset(group, [members[i] for i in range(n) if mask >> i & 1])
            return Certificate(
                group.descriptor, bound, scope, False, witness, mask,
                {"failing_size": size, "lhs": str(Fraction(bcount, size)),
                 "rhs": str(rhs[size])},
            )
    return Certificate(
        group.descriptor, bound, scope, True, None, full,
        {"min_ratio_seen": str(Fraction(best_b, best_size))},
    )


def _union_table(masks):
    """``table[sub]`` is the OR of ``masks[j]`` over the set bits j of sub."""
    table = [0] * (1 << len(masks))
    for sub in range(1, len(table)):
        low = sub & -sub
        table[sub] = table[sub ^ low] | masks[low.bit_length() - 1]
    return table


def _certify_connected(group, bound, scope, max_elements):
    # rhs depends on a set only through its cardinality, so checking the
    # per-size minimum ratio is exactly equivalent to checking every set
    rhs = _rhs_by_size(group, bound, scope.max_size, max_elements)
    table = min_ratio_table(group, scope.max_size, max_elements=max_elements)
    per_size = {}
    for m in range(1, scope.max_size + 1):
        if table.min_boundary[m] is None:
            continue
        lhs = table.min_ratio(m)
        per_size[m] = str(lhs)
        if lhs < rhs[m]:
            return Certificate(
                group.descriptor, bound, scope, False, table.witness_subset(m),
                sum(table.count[1 : m + 1]),
                {"failing_size": m, "lhs": str(lhs), "rhs": str(rhs[m])},
            )
    return Certificate(
        group.descriptor, bound, scope, True, None, sum(table.count),
        {"per_size_min_ratio": per_size},
    )


class FolnerFormCheck:
    """Evaluation of an inner-shape bound against Folner records.

    Rows are ``(n, value_text, rhs, status)`` with status one of ``holds``,
    ``fails``, ``indeterminate`` (a lower-bound record too weak to decide).
    """

    __slots__ = ("bound", "rows", "holds", "indeterminate")

    def __init__(self, bound: FolnerBound, rows: list, holds: bool, indeterminate: int):
        self.bound = bound
        self.rows = rows
        self.holds = holds
        self.indeterminate = indeterminate

    def to_json_dict(self):
        return {
            "params": self.bound.params_dict(),
            "holds": self.holds,
            "indeterminate": self.indeterminate,
            "rows": [
                {"n": n, "value": v, "rhs": str(r), "status": s}
                for (n, v, r, s) in self.rows
            ],
        }


def check_folner_form(bound: FolnerBound, table: BallTable, records) -> FolnerFormCheck:
    """Compare folner(n) records against |B(c n - rho)| / (1+alpha), exactly."""
    rows = []
    holds = True
    indeterminate = 0
    for record in sorted(records, key=lambda rec: rec.n):
        radius = bound.c * record.n - bound.rho
        rhs = table.volume_at(radius) / (1 + bound.alpha)
        value = record.value
        if value is INFINITE:
            status = "holds"
        elif isinstance(value, LowerBound):
            if value.bound >= rhs:
                status = "holds"
            else:
                status = "indeterminate"
                indeterminate += 1
        else:
            status = "holds" if value >= rhs else "fails"
        if status == "fails":
            holds = False
        rows.append((record.n, record.value_text(), rhs, status))
    return FolnerFormCheck(bound, rows, holds, indeterminate)


class QuotientEstimate:
    """Window statistics toward the optimal-constant quotient.

    Every numeric field carries its bound direction in the name; nothing is
    certified (``certified_interval`` stays None at any finite horizon) and
    ``caveats`` spells out why.  Logarithms force floats here; all inequality
    checking elsewhere stays exact.
    """

    __slots__ = ("group", "horizon", "window", "numerator_lower", "numerator_upper",
                 "denominator_upper", "c_lower", "certified_interval", "caveats")

    def __init__(self, group: str, horizon: int, window: tuple, numerator_lower: float,
                 numerator_upper, denominator_upper: float, c_lower: float,
                 certified_interval, caveats: tuple):
        self.group = group
        self.horizon = horizon
        self.window = window
        self.numerator_lower = numerator_lower
        self.numerator_upper = numerator_upper
        self.denominator_upper = denominator_upper
        self.c_lower = c_lower
        self.certified_interval = certified_interval
        self.caveats = caveats

    def to_json_dict(self):
        def num(x):
            if x is None:
                return None
            if math.isinf(x):
                return "infinite"
            return x

        return {
            "group": self.group,
            "horizon": self.horizon,
            "window": list(self.window),
            "numerator_lower": num(self.numerator_lower),
            "numerator_upper": num(self.numerator_upper),
            "denominator_upper": self.denominator_upper,
            "c_lower": num(self.c_lower),
            "certified_interval": self.certified_interval,
            "caveats": list(self.caveats),
        }


def quotient_estimate(group: Group, horizon: int, records, table: BallTable) -> QuotientEstimate:
    """Divide Folner window statistics by the growth-rate upper estimate.

    Requires heuristic evidence of exponential growth at the horizon
    (NotApplicable otherwise) and at least one record in the back-half window
    (InsufficientData otherwise).
    """
    _check_same_group(group, table.group, "ball table")
    growth = growth_rate_upper(table, horizon)
    if not growth.is_exponential_evidence:
        raise NotApplicable(
            f"no exponential-growth evidence for {group.descriptor} at horizon {horizon}"
        )
    lo = math.ceil(horizon / 2)
    window = {rec.n: rec for rec in records if lo <= rec.n <= horizon}
    if not window:
        raise InsufficientData(
            f"no Folner records in the window [{lo}, {horizon}]"
        )
    lower_stats = []
    upper_stats = []
    for n, rec in sorted(window.items()):
        value = rec.value
        if value is INFINITE:
            lower_stats.append(math.inf)
        elif isinstance(value, LowerBound):
            lower_stats.append(math.log(value.bound) / n)
        else:
            lower_stats.append(math.log(value) / n)
            upper_stats.append(math.log(value) / n)
        if rec.family_upper is not None and not isinstance(value, int):
            upper_stats.append(math.log(rec.family_upper) / n)
    numerator_lower = min(lower_stats)
    numerator_upper = min(upper_stats) if upper_stats else None
    denominator_upper = growth.fekete_inf
    c_lower = numerator_lower / denominator_upper
    caveats = (
        f"numerator fields are window minima of ln(value)/n over n in [{lo}, {horizon}], "
        "not bounds on the lower limit, which no finite computation can bracket",
        "denominator_upper bounds the growth limit from above only, so c_lower is "
        "not a certified lower bound of the optimal constant",
        "exponential growth is heuristic evidence at this horizon, not a proof",
    )
    return QuotientEstimate(
        group.descriptor,
        horizon,
        (lo, horizon),
        numerator_lower,
        numerator_upper,
        denominator_upper,
        c_lower,
        None,
        caveats,
    )
