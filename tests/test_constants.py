import copy
import math
import pickle
from fractions import Fraction

import pytest

from cayleyiso.balls import INFINITE, enumerate_ball, phi, table_for_volume
from cayleyiso.constants import (
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
from cayleyiso.errors import (
    BadParams,
    EmptyGeneratingSet,
    InsufficientData,
    MalformedElement,
    NotApplicable,
    RadiusOutOfRange,
)
from cayleyiso.folner import LowerBound, folner_exact
from cayleyiso.groups import make_group
from cayleyiso.isoperimetry import FiniteSubset

from conftest import KERNEL_GROUPS, CyclicStub


# -------------------------------------------------------------- conversions

def test_csc_to_folner_passthrough():
    out = csc_to_folner(CscBound(Fraction(1, 2), Fraction(1)), Fraction(1))
    assert out == FolnerBound(Fraction(1, 2), Fraction(1), Fraction(1))


def test_csc_to_folner_requires_positive_c_and_rho():
    with pytest.raises(BadParams):
        csc_to_folner(CscBound(Fraction(0), Fraction(1)), Fraction(1))
    with pytest.raises(BadParams):
        csc_to_folner(CscBound(Fraction(1), Fraction(1)), Fraction(0))


def test_folner_to_csc_inflation_examples():
    out = folner_to_csc(FolnerBound(Fraction(1), Fraction(0), Fraction(0)), 2)
    assert out == CscBound(Fraction(1), Fraction(1))  # inflation 2^1 * 1 = 2
    out2 = folner_to_csc(FolnerBound(Fraction(1, 2), Fraction(1), Fraction(3, 2)), 4)
    assert out2.alpha + 1 == 32  # 4^ceil(2) * 2


def test_folner_to_csc_exact_ceiling():
    # rho + c = 2 exactly: the smallest integral upper bound is 2, not 3
    out = folner_to_csc(FolnerBound(Fraction(1), Fraction(0), Fraction(1)), 3)
    assert out.alpha + 1 == 9


def test_value_records_compare_and_hash_by_value():
    # (field, value, an equal value built from other arguments, an unequal one)
    cases = [
        ("bound", LowerBound(11), LowerBound(11), LowerBound(12)),
        ("c", CscBound(Fraction(1, 2), 1), CscBound(Fraction(2, 4), Fraction(1)),
         CscBound(Fraction(1, 2), 2)),
        ("rho", FolnerBound(1, 0, 2), FolnerBound(Fraction(1), Fraction(0), Fraction(2)),
         FolnerBound(1, 0, 3)),
        ("radius", BallSubsetsScope(), BallSubsetsScope(2), BallSubsetsScope(3)),
        ("max_size", ConnectedScope(9), ConnectedScope(9), ConnectedScope(8)),
    ]
    for field, value, equal, unequal in cases:
        assert value == equal and hash(value) == hash(equal)
        assert value != unequal
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(unequal, field))
        assert value == equal == copy.copy(value) == pickle.loads(pickle.dumps(value))
    # equal fields of different types are different values
    assert LowerBound(2) != ConnectedScope(2) != BallSubsetsScope(2)
    assert CscBound(1, 0) != FolnerBound(1, 0, 0)


def test_folner_to_csc_requires_generators():
    with pytest.raises(EmptyGeneratingSet):
        folner_to_csc(FolnerBound(Fraction(1), Fraction(0), Fraction(0)), 0)
    with pytest.raises(BadParams):
        folner_to_csc(FolnerBound(Fraction(0), Fraction(0), Fraction(0)), 2)


# ------------------------------------------------------------ certification

def test_certify_fails_with_witness():
    cert = certify_at_scale(make_group("z:1"), CscBound(Fraction(3), Fraction(0)),
                            BallSubsetsScope(2))
    assert not cert.holds
    assert cert.witness.elements == frozenset({(0,)})
    assert cert.derived_bounds["failing_size"] == 1
    assert cert.derived_bounds["lhs"] == "1"
    assert cert.derived_bounds["rhs"] == "3"


def test_certify_holds_exhaustive_and_connected():
    bound = CscBound(Fraction(3, 4), Fraction(3))
    assert certify_at_scale(make_group("z:1"), bound, BallSubsetsScope(2)).holds
    assert certify_at_scale(make_group("z:2"), bound, BallSubsetsScope(2)).holds
    cert = certify_at_scale(make_group("dinf"), bound, ConnectedScope(9))
    assert cert.holds
    assert cert.checked_sets == sum(range(1, 10))


def _brute_force_ball_subsets(group, bound, radius):
    """Certificate fields recomputed set by set, in ascending mask order."""
    members = enumerate_ball(group, radius).members(radius)
    n = len(members)
    table = table_for_volume(group, (1 + bound.alpha) * n)
    best = None
    for mask in range(1, 1 << n):
        omega = FiniteSubset(group, [members[i] for i in range(n) if mask >> i & 1])
        ratio = Fraction(len(omega.boundary_set()), len(omega))
        r = phi(table, (1 + bound.alpha) * len(omega))
        rhs = Fraction(0) if r is INFINITE else bound.c / r
        if best is None or ratio < best:
            best = ratio
        if ratio < rhs:
            return False, mask, omega.keys(), {
                "failing_size": len(omega), "lhs": str(ratio), "rhs": str(rhs)}
    return True, (1 << n) - 1, None, {"min_ratio_seen": str(best)}


@pytest.mark.parametrize("desc,radius", [
    ("z:1", 2), ("z:2", 1), ("dinf", 3), ("heis", 1), ("free:2", 1),
    # an exhausted ball: every vertex of B(radius + 1) has a row
    ("cyclic-stub", 2)])
def test_certify_ball_subsets_matches_brute_force(desc, radius):
    group = KERNEL_GROUPS[desc]()
    holding = CscBound(Fraction(1, 4), Fraction(1))
    failing = CscBound(Fraction(3, 2), Fraction(1, 2))
    for bound, expected in ((holding, True), (failing, False)):
        cert = certify_at_scale(group, bound, BallSubsetsScope(radius))
        holds, checked, witness, derived = _brute_force_ball_subsets(group, bound, radius)
        assert cert.holds is holds is expected
        assert cert.checked_sets == checked
        assert (cert.witness.keys() if cert.witness is not None else None) == witness
        assert cert.derived_bounds == derived


def test_certify_vacuous_on_finite_group():
    stub = CyclicStub(4)
    cert = certify_at_scale(stub, CscBound(Fraction(100), Fraction(10)),
                            BallSubsetsScope(1))
    assert cert.holds  # growth inverse is the infinite sentinel, rhs = 0


def test_certify_scope_guard():
    with pytest.raises(BadParams):
        certify_at_scale(make_group("lamplighter"), CscBound(Fraction(1), Fraction(1)),
                         BallSubsetsScope(2))  # 2^30 subsets
    for radius in (-1, 1.5):
        with pytest.raises(RadiusOutOfRange):
            certify_at_scale(make_group("z:1"), CscBound(Fraction(1), Fraction(1)),
                             BallSubsetsScope(radius))


def test_certificate_json_shape():
    cert = certify_at_scale(make_group("z:1"), CscBound(Fraction(1, 2), Fraction(1)),
                            BallSubsetsScope(2))
    payload = cert.to_json_dict()
    assert payload["form"] == "csc"
    assert payload["params"] == {"c": "1/2", "alpha": "1"}
    assert payload["holds"] is True
    assert payload["witness"] is None
    assert "derived_bounds" in payload


# ------------------------------------------- conversion soundness at scale

def test_conversion_chain_outer_to_inner():
    """Certified outer bounds stay true after conversion to the inner shape,
    evaluated on exact records."""
    z = make_group("z:1")
    table = enumerate_ball(z, 20)
    records = [folner_exact(z, n, 14) for n in range(1, 7)]
    for c, alpha in ((Fraction(1, 2), Fraction(1)), (Fraction(3, 4), Fraction(3)),
                     (Fraction(1), Fraction(1))):
        outer = CscBound(c, alpha)
        if certify_at_scale(z, outer, BallSubsetsScope(2)).holds:
            inner = csc_to_folner(outer, Fraction(1))
            report = check_folner_form(inner, table, records)
            assert report.holds
            assert report.indeterminate == 0


def test_conversion_chain_inner_to_outer():
    """Both optimal-constant directions agree at desk scale on the line."""
    z = make_group("z:1")
    table = enumerate_ball(z, 20)
    records = [folner_exact(z, n, 14) for n in range(1, 7)]
    # outer (1/2, 1) holds over connected sets <= 9 and converts inward
    outer = CscBound(Fraction(1, 2), Fraction(1))
    assert certify_at_scale(z, outer, ConnectedScope(9)).holds
    inner = csc_to_folner(outer, Fraction(1))
    assert check_folner_form(inner, table, records).holds
    # inner (1, 0, 0) holds on exact records and converts outward
    seed = FolnerBound(Fraction(1), Fraction(0), Fraction(0))
    converted = folner_to_csc(seed, len(z.generators))
    assert certify_at_scale(z, converted, BallSubsetsScope(2)).holds


def test_check_folner_form_exact_rows_on_line():
    # folner(n) = 2n against |B(n/2 - 1)|/2 = (2*floor(n/2 - 1) + 1)/2
    z = make_group("z:1")
    table = enumerate_ball(z, 20)
    records = [folner_exact(z, n, 14) for n in range(2, 7)]
    inner = csc_to_folner(CscBound(Fraction(1, 2), Fraction(1)), Fraction(1))
    report = check_folner_form(inner, table, records)
    assert report.holds
    assert [(n, rhs) for (n, _, rhs, _) in report.rows] == [
        (2, Fraction(1, 2)),
        (3, Fraction(1, 2)),
        (4, Fraction(3, 2)),
        (5, Fraction(3, 2)),
        (6, Fraction(5, 2)),
    ]
    # integer parameters become exact rationals when the bound is built
    report = check_folner_form(FolnerBound(1, 0, 1), table, records)
    assert all(type(rhs) is Fraction for (_, _, rhs, _) in report.rows)
    assert [rhs for (_, _, rhs, _) in report.rows] == [3, 5, 7, 9, 11]


def test_check_folner_form_bounds_checked_when_built():
    z = make_group("z:1")
    table = enumerate_ball(z, 20)
    records = [folner_exact(z, n, 14) for n in range(2, 7)]
    # a float field would make the right-hand sides floats, a negative
    # alpha makes them negative, and alpha = -1 divides by zero
    for args in ((0.5, 1.0, 1.0), (1, 0, 0.5), (1, -3, 0), (1, -1, 0), (1, "1", 0)):
        with pytest.raises(BadParams):
            check_folner_form(FolnerBound(*args), table, records)
    for args in ((0.5, 1), (1, 1.0), (1, -1), (1, Fraction(-1, 2))):
        with pytest.raises(BadParams):
            CscBound(*args)
    assert FolnerBound(1, 0, 0) == FolnerBound(Fraction(1), Fraction(0), Fraction(0))


def test_check_folner_form_statuses():
    z = make_group("z:1")
    table = enumerate_ball(z, 20)
    records = [folner_exact(z, n, 14) for n in range(1, 7)]
    # an intentionally false bound: folner(n) >= |B(2n)| fails on the line
    bad = FolnerBound(Fraction(2), Fraction(0), Fraction(0))
    report = check_folner_form(bad, table, records)
    assert not report.holds
    assert any(status == "fails" for (_, _, _, status) in report.rows)


def test_check_folner_form_infinite_and_lower_records():
    f2 = make_group("free:2")
    table = enumerate_ball(f2, 8)
    records = [folner_exact(f2, n, 3) for n in range(1, 5)]
    bound = FolnerBound(Fraction(1, 2), Fraction(1), Fraction(1))
    report = check_folner_form(bound, table, records)
    # infinite records always hold
    assert report.holds


# -------------------------------------------------------- quotient estimate

def test_quotient_not_applicable_on_polynomial_growth():
    # small search caps: the growth hypothesis is rejected before records matter
    for desc, horizon in (("z:1", 8), ("z:1", 12), ("z:2", 8), ("z:3", 8), ("dinf", 10)):
        group = make_group(desc)
        table = enumerate_ball(group, horizon)
        records = [folner_exact(group, n, 4) for n in range(1, horizon + 1)]
        with pytest.raises(NotApplicable):
            quotient_estimate(group, horizon, records, table)


def test_quotient_free_group_reports_infinite():
    f2 = make_group("free:2")
    table = enumerate_ball(f2, 6)
    records = [folner_exact(f2, n, 4) for n in range(1, 7)]
    est = quotient_estimate(f2, 6, records, table)
    assert math.isinf(est.numerator_lower)
    assert math.isinf(est.c_lower)
    assert est.denominator_upper == pytest.approx(math.log(1457) / 6)
    assert est.certified_interval is None
    payload = est.to_json_dict()
    assert payload["numerator_lower"] == "infinite"
    assert payload["c_lower"] == "infinite"


def test_quotient_lamplighter_window_report():
    ll = make_group("lamplighter")
    table = enumerate_ball(ll, 8)
    records = [folner_exact(ll, n, 6) for n in range(1, 9)]
    est = quotient_estimate(ll, 8, records, table)
    assert est.window == (4, 8)
    assert est.numerator_lower > 0
    assert est.numerator_upper is not None
    assert est.certified_interval is None
    assert len(est.caveats) == 3
    assert est.c_lower == pytest.approx(est.numerator_lower / est.denominator_upper)


def test_quotient_rejects_a_table_of_another_group():
    # the free:2 table shows exponential growth, so without the group check
    # the lamplighter records would get a c_lower
    ll = make_group("lamplighter")
    records = [folner_exact(ll, n, 6) for n in range(1, 9)]
    with pytest.raises(MalformedElement, match="^ball table belongs to free:2, not lamplighter$"):
        quotient_estimate(ll, 8, records, enumerate_ball(make_group("free:2"), 8))


def test_quotient_insufficient_data():
    f2 = make_group("free:2")
    table = enumerate_ball(f2, 6)
    with pytest.raises(InsufficientData):
        quotient_estimate(f2, 6, [folner_exact(f2, 1, 2)], table)
