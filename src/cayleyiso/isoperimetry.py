"""Inner boundaries, boundary ratios and the five isoperimetric inequality forms.

Inequality forms (``form`` argument of :func:`check_inequality`):

    ``csc-original``  ratio >= 1 / (4 |S| Phi[2 |W|])
    ``avg-growth``    ratio >= (a/(1+a)) (b_{r-1}/b_r) / E[|X_r|], r = Phi[(1+a)|W|]
    ``growth-cor``    ratio >= (a/(1+a)) (b_{r-1}/b_r) / r,       r = Phi[(1+a)|W|]
    ``epsilon``       ratio >  (1-e) / Phi[(1/e)|W|]              (strict)
    ``pete-correia``  ratio >  (1/2) / Phi[2 |W|]                 (strict)

where W is the finite subset, ratio = |boundary| / |W|, and Phi is the growth
inverse from the ball table.  When Phi is the infinite sentinel (exhausted
finite group, large inflation) the right-hand side is zero and the inequality
holds vacuously.

All comparisons are exact and on integers.  Each right-hand side is built as
one fraction num/den from integers; with a = p/q and e = p/q in lowest terms
and L_r = b_r E[|X_r|] the sum of the norms over B(r), the parametrized ones
are

    ``avg-growth``    p b_{r-1} / ((p+q) L_r)
    ``growth-cor``    p b_{r-1} / ((p+q) b_r r)
    ``epsilon``       (q-p) / (q r)

and an inequality holds when |boundary| den >= num |W| (> for the strict
forms), so no rounding can flip one.  ``fractions.Fraction`` appears only in
the values a report carries and in the exact volume handed to Phi.
"""

from __future__ import annotations

from fractions import Fraction

from .balls import INFINITE, BallTable, phi
from .errors import BadParams, EmptySet, MalformedElement
from .groups import Group, _check_rational, _require_int

__all__ = [
    "FORMS",
    "STRICT_FORMS",
    "FiniteSubset",
    "InequalityReport",
    "boundary",
    "boundary_ratio",
    "check_inequality",
]

FORMS = ("csc-original", "avg-growth", "growth-cor", "epsilon", "pete-correia")
STRICT_FORMS = frozenset({"epsilon", "pete-correia"})
# the one parameter a form takes; the others take none
_FORM_PARAM = {"avg-growth": "alpha", "growth-cor": "alpha", "epsilon": "eps"}


class FiniteSubset:
    """A finite set of group elements with a lazily cached inner boundary.

    Immutable after construction.  Element payloads are validated once here so
    downstream loops can trust them.
    """

    __slots__ = ("group", "elements", "_boundary")

    def __init__(self, group: Group, elements):
        self.group = group
        try:
            elems = frozenset(elements)
        except TypeError as exc:  # an unhashable element: every group's are hashable
            raise MalformedElement(f"not a subset of {group.descriptor}: {exc}") from None
        for a in elems:
            group.check_element(a)
        self.elements = elems
        self._boundary = None

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSubset)
            and self.group == other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.group.descriptor, self.elements))

    def __repr__(self):
        return f"<subset of {self.group.descriptor}, size {len(self.elements)}>"

    def sorted_elements(self) -> list:
        """Elements in canonical key order (deterministic output order)."""
        return sorted(self.elements, key=self.group.key)

    def keys(self) -> list:
        return [self.group.format_element(a) for a in self.sorted_elements()]

    def translate(self, g) -> "FiniteSubset":
        """Left translate g * W."""
        group = self.group
        group.check_element(g)
        mul = group._mul
        return FiniteSubset(group, (mul(g, x) for x in self.elements))

    def boundary_set(self) -> frozenset:
        if self._boundary is None:
            inside = self.elements
            steps = self.group._right_steps()
            self._boundary = frozenset(
                x for x in inside if any(step(x) not in inside for step in steps)
            )
        return self._boundary

    @classmethod
    def from_keys(cls, group: Group, lines) -> "FiniteSubset":
        elems = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            elems.append(group.parse_element(line))
        return cls(group, elems)


def boundary(group: Group, omega: FiniteSubset) -> FiniteSubset:
    """Inner boundary: elements of W with a right generator-neighbor outside W."""
    _check_same_group(group, omega.group, "subset")
    return FiniteSubset(group, omega.boundary_set())


def boundary_ratio(omega: FiniteSubset) -> Fraction:
    """|boundary(W)| / |W| as an exact rational."""
    if not omega.elements:
        raise EmptySet("boundary ratio of the empty set is undefined")
    return Fraction(len(omega.boundary_set()), len(omega))


class InequalityReport:
    """Outcome of one inequality check, with exact sides.

    ``holds`` means lhs >= rhs, or lhs > rhs for the strict forms.  When
    ``radius_used`` is the infinite sentinel, rhs is zero by convention.
    """

    __slots__ = ("form", "lhs", "rhs", "holds", "strict", "radius_used", "params")

    def __init__(self, form: str, lhs: Fraction, rhs: Fraction, holds: bool, strict: bool,
                 radius_used, params: dict):
        self.form = form
        self.lhs = lhs
        self.rhs = rhs
        self.holds = holds
        self.strict = strict
        self.radius_used = radius_used
        self.params = params

    def to_json_dict(self):
        return {
            "form": self.form,
            "lhs": {"num": self.lhs.numerator, "den": self.lhs.denominator},
            "rhs": {"num": self.rhs.numerator, "den": self.rhs.denominator},
            "holds": self.holds,
            "strict": self.strict,
            "radius_used": "infinite" if self.radius_used is INFINITE else self.radius_used,
            "params": {k: str(v) for k, v in self.params.items()},
        }


def _as_fraction(value, name: str) -> Fraction:
    if not _check_rational(value):
        raise BadParams(f"{name} must be an exact rational, got {value!r}")
    # Fraction(value) would copy a Fraction, at about ten times the cost
    return value if isinstance(value, Fraction) else Fraction(value)


def _exact_alpha(alpha) -> Fraction:
    """The volume inflation alpha of the bounds, forms and lemmas: exact, >= 0."""
    alpha = _as_fraction(alpha, "alpha")
    if alpha < 0:
        raise BadParams(f"alpha must be >= 0, got {alpha}")
    return alpha


# The longest bit length whose values all print under the interpreter's
# default limit of 4300 decimal digits: 2^14284 < 10^4300 < 2^14285.
_BIT_CAP = 14284


def _check_bits(bits: int, what: str) -> None:
    """Raise :class:`BadParams` when ``what``, an exact integer of ``bits``
    bits, is longer than the cap."""
    if bits > _BIT_CAP:
        raise BadParams(f"{what} has more than {_BIT_CAP} bits (4300 or more decimal digits)")


def _check_same_group(group: Group, other: Group, what: str) -> None:
    """Raise :class:`MalformedElement` unless ``what``, an input of group
    ``other``, belongs to ``group``: a table or subset of another group would
    be read with the wrong norms and products."""
    # ``is`` first: callers nearly always share one group object, and ``!=``
    # is a Python-level call on every inequality check
    if other is not group and other != group:
        raise MalformedElement(f"{what} belongs to {other.descriptor}, not {group.descriptor}")


def inequality_volume(form: str, size: int, alpha=None, eps=None):
    """Volume at which ``form`` evaluates Phi for a subset of cardinality ``size``.

    Validates the form, the size and the parameter the form needs (``alpha``
    or ``eps``), and refuses a parameter the form does not take;
    :func:`inequality_rhs` and the command line share it.
    """
    if form not in FORMS:
        raise BadParams(f"unknown inequality form {form!r}")
    takes = _FORM_PARAM.get(form)
    for name, value in (("alpha", alpha), ("eps", eps)):
        if value is not None and name != takes:
            raise BadParams(f"form {form} takes no {name}")
    if _require_int(size, "size", 0, BadParams) < 1:
        raise EmptySet("inequality forms require a non-empty subset")
    if takes is None:
        return 2 * size
    if takes == "alpha":
        alpha = _exact_alpha(alpha)
        p, q = alpha.numerator, alpha.denominator
        return Fraction((p + q) * size, q)
    eps = _as_fraction(eps, "eps")
    p, q = eps.numerator, eps.denominator
    if not (0 < p < q):
        raise BadParams(f"eps must satisfy 0 < eps < 1, got {eps}")
    return Fraction(q * size, p)


def inequality_rhs(table: BallTable, form: str, size: int, alpha=None, eps=None):
    """Right-hand side of ``form`` for a subset of cardinality ``size``.

    Depends on the subset only through its cardinality.  Returns
    ``(rhs, radius_used)``.
    """
    volume = inequality_volume(form, size, alpha=alpha, eps=eps)
    r = phi(table, volume)
    if r is INFINITE:
        return Fraction(0), INFINITE
    if form == "csc-original":
        return Fraction(1, 4 * len(table.group.generators) * r), r
    if form == "pete-correia":
        return Fraction(1, 2 * r), r
    if form == "epsilon":
        p, q = eps.numerator, eps.denominator
        return Fraction(q - p, q * r), r
    p, q = alpha.numerator, alpha.denominator
    if form == "avg-growth":
        return Fraction(p * table.b[r - 1], (p + q) * table.length_sum[r]), r
    return Fraction(p * table.b[r - 1], (p + q) * table.b[r] * r), r


def check_inequality(omega: FiniteSubset, table: BallTable, form: str,
                     alpha=None, eps=None) -> InequalityReport:
    """Evaluate one inequality form on a concrete subset, exactly."""
    _check_same_group(omega.group, table.group, "ball table")
    lhs = boundary_ratio(omega)
    rhs, r = inequality_rhs(table, form, len(omega), alpha=alpha, eps=eps)
    # inequality_rhs has checked the form and its one parameter
    takes = _FORM_PARAM.get(form)
    value = alpha if takes == "alpha" else eps
    params = {} if takes is None else {takes: _as_fraction(value, takes)}
    strict = form in STRICT_FORMS
    if r is INFINITE:
        holds = True
    else:
        left = lhs.numerator * rhs.denominator
        right = rhs.numerator * lhs.denominator
        holds = left > right if strict else left >= right
    return InequalityReport(form, lhs, rhs, holds, strict, r, params)
