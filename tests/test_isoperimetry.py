import random
from fractions import Fraction

import pytest

from cayleyiso.balls import INFINITE, BallTable, enumerate_ball, phi, table_for_volume
from cayleyiso.errors import BadParams, EmptySet, HorizonExceeded, MalformedElement
from cayleyiso.isoperimetry import (
    FORMS,
    FiniteSubset,
    boundary,
    boundary_ratio,
    check_inequality,
    inequality_rhs,
    inequality_volume,
)
from cayleyiso.groups import make_group

from conftest import BUILTIN_DESCRIPTORS, MALFORMED_PAYLOADS, CyclicStub, random_element


def z_interval(group, a, b):
    return FiniteSubset(group, [(i,) for i in range(a, b + 1)])


# ----------------------------------------------------------------- boundary

def test_boundary_z_examples():
    z = make_group("z:1")
    assert boundary(z, z_interval(z, 0, 2)).elements == frozenset({(0,), (2,)})
    singleton = FiniteSubset(z, [(0,)])
    assert boundary(z, singleton).elements == frozenset({(0,)})
    assert boundary_ratio(singleton) == 1


def test_boundary_z2_unit_ball():
    z2 = make_group("z:2")
    ball1 = FiniteSubset(z2, enumerate_ball(z2, 1).members(1))
    bd = boundary(z2, ball1)
    assert bd.elements == frozenset(z2.generators)
    assert len(bd) == 4


def test_boundary_ratio_interval():
    z = make_group("z:1")
    assert boundary_ratio(z_interval(z, 1, 4)) == Fraction(1, 2)


def test_boundary_dinf_mirror_segments():
    # the two-sided segments around the identity have exactly two boundary
    # points on the path graph, one per end
    d = make_group("dinf")
    for n in range(1, 5):
        elements = [(k, e) for k in range(-n, n + 1) for e in (0, 1)]
        omega = FiniteSubset(d, elements)
        assert len(omega) == 2 * (2 * n + 1)
        bd = omega.boundary_set()
        assert bd == frozenset({(-n, 0), (n, 1)})
        assert boundary_ratio(omega) == Fraction(1, 2 * n + 1)


def test_boundary_empty_set_errors():
    z = make_group("z:1")
    with pytest.raises(EmptySet):
        boundary_ratio(FiniteSubset(z, []))


def test_boundary_rejects_a_subset_of_another_group():
    z1, z2 = make_group("z:1"), make_group("z:2")
    with pytest.raises(MalformedElement, match="^subset belongs to z:2, not z:1$"):
        boundary(z1, FiniteSubset(z2, [(0, 0), (1, 0)]))


def test_translation_invariance_random(groups):
    rng = random.Random(41)
    for g in groups.values():
        t = enumerate_ball(g, 3)
        pool = t.members(3)
        for _ in range(30):
            omega = FiniteSubset(g, rng.sample(pool, rng.randint(1, min(8, len(pool)))))
            shift = random_element(g, rng, 4)
            moved = omega.translate(shift)
            assert boundary_ratio(moved) == boundary_ratio(omega)
            assert moved.boundary_set() == frozenset(
                g.mul(shift, x) for x in omega.boundary_set()
            )


def test_subset_and_translate_reject_malformed(groups):
    for desc, g in groups.items():
        bad = MALFORMED_PAYLOADS[desc]
        with pytest.raises(MalformedElement):
            FiniteSubset(g, [g.identity, bad])
        omega = FiniteSubset(g, [g.identity])
        with pytest.raises(MalformedElement):
            omega.translate(bad)
        with pytest.raises(MalformedElement):
            FiniteSubset(g, []).translate(bad)


# ----------------------------------------------------------- check_inequality

def test_check_inequality_rejects_a_table_of_another_group():
    # the z:1 table would give z:1's right-hand side 1/16 and holds=True
    z1, z2 = make_group("z:1"), make_group("z:2")
    omega = FiniteSubset(z2, [(0, 0), (1, 0)])
    with pytest.raises(MalformedElement, match="^ball table belongs to z:1, not z:2$"):
        check_inequality(omega, enumerate_ball(z1, 10), "csc-original")


def test_pete_correia_example():
    z = make_group("z:1")
    t = enumerate_ball(z, 12)
    report = check_inequality(z_interval(z, 0, 9), t, "pete-correia")
    assert report.lhs == Fraction(1, 5)
    assert report.radius_used == 10
    assert report.rhs == Fraction(1, 20)
    assert report.holds and report.strict


def test_avg_growth_alpha_zero_always_holds():
    z = make_group("z:1")
    t = enumerate_ball(z, 12)
    for omega in (z_interval(z, 0, 0), z_interval(z, -3, 5)):
        report = check_inequality(omega, t, "avg-growth", alpha=0)
        assert report.rhs == 0
        assert report.holds


def test_epsilon_half_holds_on_samples(groups):
    rng = random.Random(43)
    for g in groups.values():
        t = enumerate_ball(g, 4)
        pool = t.members(2)
        vol_table = enumerate_ball(g, 6) if g.descriptor in ("z:1", "dinf") else t
        for _ in range(15):
            omega = FiniteSubset(g, rng.sample(pool, rng.randint(1, min(6, len(pool)))))
            report = check_inequality(omega, vol_table, "epsilon", eps=Fraction(1, 2))
            assert report.holds, (g.descriptor, omega.keys())


def test_param_validation():
    z = make_group("z:1")
    t = enumerate_ball(z, 6)
    omega = z_interval(z, 0, 1)
    with pytest.raises(BadParams):
        check_inequality(omega, t, "avg-growth", alpha=-1)
    with pytest.raises(BadParams):
        check_inequality(omega, t, "epsilon", eps=1)
    with pytest.raises(BadParams):
        check_inequality(omega, t, "epsilon", eps=Fraction(0))
    with pytest.raises(BadParams):
        check_inequality(omega, t, "nonsense")
    with pytest.raises(BadParams):
        check_inequality(omega, t, "avg-growth", alpha=0.5)
    with pytest.raises(EmptySet):
        check_inequality(FiniteSubset(z, []), t, "pete-correia")


@pytest.mark.parametrize("form, params, foreign", [
    ("csc-original", {"alpha": 5, "eps": Fraction(1, 2)}, "alpha"),
    ("pete-correia", {"eps": Fraction(1, 2)}, "eps"),
    ("avg-growth", {"alpha": 1, "eps": Fraction(1, 2)}, "eps"),
    ("growth-cor", {"alpha": 1, "eps": Fraction(1, 2)}, "eps"),
    ("epsilon", {"eps": Fraction(1, 2), "alpha": 7}, "alpha"),
    # with its own parameter wrong as well, the foreign one is reported first
    ("avg-growth", {"alpha": 0.5, "eps": Fraction(1, 2)}, "eps"),
    ("epsilon", {"eps": 2, "alpha": 1}, "alpha"),
])
def test_foreign_parameter_refused(form, params, foreign):
    # a parameter the form does not take is an error, not silently ignored
    z = make_group("z:1")
    omega = z_interval(z, 0, 3)
    message = f"form {form} takes no {foreign}"
    with pytest.raises(BadParams, match=message):
        inequality_volume(form, 4, **params)
    with pytest.raises(BadParams, match=message):
        check_inequality(omega, enumerate_ball(z, 12), form, **params)


def test_report_params_are_the_forms_own_as_fractions():
    z = make_group("z:1")
    omega = z_interval(z, 0, 3)
    t = enumerate_ball(z, 12)
    for form, given, expected in (("avg-growth", {"alpha": 1}, {"alpha": Fraction(1)}),
                                  ("growth-cor", {"alpha": Fraction(1, 2)},
                                   {"alpha": Fraction(1, 2)}),
                                  ("epsilon", {"eps": Fraction(1, 3)}, {"eps": Fraction(1, 3)}),
                                  ("csc-original", {}, {}), ("pete-correia", {}, {})):
        params = check_inequality(omega, t, form, **given).params
        assert params == expected
        assert all(type(value) is Fraction for value in params.values())


def test_rhs_ordering_properties():
    z2 = make_group("z:2")
    t = enumerate_ball(z2, 10)
    for size in range(1, 12):
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            avg, _ = inequality_rhs(t, "avg-growth", size, alpha=alpha)
            cor, _ = inequality_rhs(t, "growth-cor", size, alpha=alpha)
            assert avg >= cor
        pete, _ = inequality_rhs(t, "pete-correia", size)
        csc, _ = inequality_rhs(t, "csc-original", size)
        assert pete > csc


def test_phi_factor_monotone_in_inverse_eps():
    # monotonicity of the growth inverse makes 1/Phi[(1/eps)|W|] non-increasing
    # as 1/eps grows; the (1-eps) prefactor moves the full rhs both ways
    z = make_group("z:1")
    t = enumerate_ball(z, 30)
    for size in (1, 3, 7):
        values = []
        for eps in (Fraction(3, 4), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            r = phi(t, size / eps)
            values.append(Fraction(1, r))
        assert values == sorted(values, reverse=True)


def test_strictness_flags():
    z = make_group("z:1")
    t = enumerate_ball(z, 12)
    omega = z_interval(z, 0, 3)
    for form in FORMS:
        kwargs = {}
        if form in ("avg-growth", "growth-cor"):
            kwargs["alpha"] = Fraction(1)
        if form == "epsilon":
            kwargs["eps"] = Fraction(1, 2)
        report = check_inequality(omega, t, form, **kwargs)
        assert report.strict == (form in ("epsilon", "pete-correia"))
        assert report.holds


def test_finite_group_vacuous_branch():
    stub = CyclicStub(4)
    t = enumerate_ball(stub, 5)
    whole = FiniteSubset(stub, [0, 1, 2, 3])
    assert boundary_ratio(whole) == 0
    report = check_inequality(whole, t, "avg-growth", alpha=10)
    assert report.radius_used is INFINITE
    assert report.rhs == 0
    assert report.holds
    strict = check_inequality(whole, t, "epsilon", eps=Fraction(1, 2))
    assert strict.radius_used is INFINITE
    assert strict.holds


def test_report_json_schema():
    z = make_group("z:1")
    t = enumerate_ball(z, 20)
    payload = check_inequality(z_interval(z, 0, 9), t, "epsilon", eps=Fraction(1, 4)).to_json_dict()
    assert set(payload) == {"form", "lhs", "rhs", "holds", "strict", "radius_used", "params"}
    assert payload["lhs"] == {"num": 1, "den": 5}
    assert payload["params"] == {"eps": "1/4"}


def test_exhaustive_small_battery_z():
    # every non-empty subset of B(2) in z:1, all forms, exact comparisons
    z = make_group("z:1")
    t = enumerate_ball(z, 20)
    members = t.members(2)
    cases = [("csc-original", {}), ("pete-correia", {}),
             ("avg-growth", {"alpha": Fraction(1)}),
             ("growth-cor", {"alpha": Fraction(2)}),
             ("epsilon", {"eps": Fraction(1, 2)})]
    for mask in range(1, 1 << len(members)):
        omega = FiniteSubset(z, [members[i] for i in range(len(members)) if mask >> i & 1])
        for form, kwargs in cases:
            assert check_inequality(omega, t, form, **kwargs).holds


# ------------------------------------------- independent inequality oracle

ORACLE_ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2),
                 Fraction(7, 5))
ORACLE_EPSILONS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100))
ORACLE_CASES = ([("csc-original", {}), ("pete-correia", {})]
                + [(form, {"alpha": a}) for form in ("avg-growth", "growth-cor")
                   for a in ORACLE_ALPHAS]
                + [("epsilon", {"eps": e}) for e in ORACLE_EPSILONS])


def _least_radius_above(table, v):
    """Phi by linear scan: the least r with b_r > v, or None past the horizon."""
    return next((r for r in range(table.max_radius + 1) if table.b[r] > v), None)


def _rhs_chain(table, form, size, alpha=None, eps=None):
    """The right-hand side as the Fraction chain of the module docstring, with
    E[|X_r|] averaged over the norms of B(r) rather than read off the table."""
    if form in ("csc-original", "pete-correia"):
        volume = 2 * size
    elif form == "epsilon":
        volume = 1 / eps * size
    else:
        volume = (1 + alpha) * size
    r = _least_radius_above(table, volume)
    b = table.b
    if form == "csc-original":
        return 1 / (4 * len(table.group.generators) * Fraction(r)), r
    if form == "pete-correia":
        return Fraction(1, 2) / r, r
    if form == "epsilon":
        return (1 - eps) / r, r
    front = alpha / (1 + alpha) * Fraction(b[r - 1], b[r])
    if form == "growth-cor":
        return front / r, r
    mean_length = Fraction(sum(table.norm_of[g] for g in table.members(r)), b[r])
    return front / mean_length, r


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_inequality_sides_match_fraction_chain(desc):
    group = make_group(desc)
    t = table_for_volume(group, 48)  # the largest volume below is 12 / (1/4)
    pool = t.elements[:30]
    rng = random.Random(47)
    for size in range(1, 13):
        omega = FiniteSubset(group, rng.sample(pool, size))
        bd = sum(1 for x in omega.elements
                 if any(group.mul(x, s) not in omega.elements for s in group.generators))
        lhs = Fraction(bd, size)
        for form, params in ORACLE_CASES:
            rhs, r = _rhs_chain(t, form, size, **params)
            assert inequality_rhs(t, form, size, **params) == (rhs, r)
            report = check_inequality(omega, t, form, **params)
            assert (report.lhs, report.rhs, report.radius_used) == (lhs, rhs, r)
            expected = lhs > rhs if form in ("epsilon", "pete-correia") else lhs >= rhs
            assert report.holds == expected, (form, params, size)


# (form, params, n, ball volumes b_0.. of a doctored z:1 table): on the
# interval of n points both sides equal 2/n, so only the non-strict forms hold
EQUAL_SIDES = (
    ("csc-original", {}, 16, [1, 33]),          # 1/(4*2*1)
    ("pete-correia", {}, 4, [1, 9]),            # 1/(2*1)
    ("epsilon", {"eps": Fraction(3, 4)}, 8, [1, 11]),  # (1/4)/1
    ("growth-cor", {"alpha": Fraction(1)}, 16, [1, 24, 48]),  # (1/2)(24/48)/2
    ("avg-growth", {"alpha": Fraction(1)}, 16, [1, 13, 33]),  # (1/2)(13/33)/(52/33)
)


@pytest.mark.parametrize("form, params, n, b", EQUAL_SIDES)
def test_equal_sides_pin_strictness(form, params, n, b):
    z = make_group("z:1")
    s = [1] + [b[r] - b[r - 1] for r in range(1, len(b))]
    length_sum = [sum(j * s[j] for j in range(r + 1)) for r in range(len(b))]
    full = enumerate_ball(z, len(b) - 1)
    t = BallTable(z, full.max_radius, full.elements, full.norm_of, b=b, s=s,
                  length_sum=length_sum, exhausted=full.exhausted)
    report = check_inequality(z_interval(z, 0, n - 1), t, form, **params)
    assert report.radius_used == len(b) - 1
    assert report.lhs == report.rhs == Fraction(2, n)
    assert report.holds == (form not in ("epsilon", "pete-correia"))


def test_phi_on_fraction_volumes_matches_linear_scan(groups, cyclic4):
    for group in list(groups.values()) + [cyclic4]:
        t = enumerate_ball(group, 4)
        volumes = [Fraction(0), Fraction(6, 2)]
        for b in t.b:
            volumes += [Fraction(2 * b, 2), Fraction(3 * b - 1, 3), Fraction(7 * b - 1, 7),
                        Fraction(2 * b + 1, 2)]
        for v in volumes:
            r = _least_radius_above(t, v)
            if r is not None:
                assert phi(t, v) == r, (group.descriptor, v)
            elif t.exhausted:
                assert phi(t, v) is INFINITE
            else:
                with pytest.raises(HorizonExceeded):
                    phi(t, v)


def test_phi_horizon_text_keeps_exact_volume():
    t = enumerate_ball(make_group("z:1"), 3)
    with pytest.raises(HorizonExceeded) as info:
        phi(t, Fraction(15, 2))
    assert str(info.value) == "b_3 = 7 <= 15/2; enlarge the table radius"
    with pytest.raises(HorizonExceeded) as info:
        phi(t, Fraction(14, 2))
    assert str(info.value) == "b_3 = 7 <= 7; enlarge the table radius"
