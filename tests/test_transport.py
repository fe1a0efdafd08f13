import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from cayleyiso.balls import BallTable, enumerate_ball, phi
from cayleyiso.errors import (
    BadParams,
    EmptySet,
    HorizonExceeded,
    MalformedElement,
    PreconditionUnmet,
)
from cayleyiso.groups import make_group
from cayleyiso.isoperimetry import FiniteSubset, boundary_ratio
from cayleyiso.transport import (
    TransportLedger,
    build_ledger,
    geodesic_word,
    verify_lemma,
)

from conftest import BUILTIN_DESCRIPTORS, KERNEL_GROUPS, SEARCHED_GROUPS


def z_subset(group, values):
    return FiniteSubset(group, [(v,) for v in values])


# ------------------------------------------------------------ geodesic_word

def test_geodesic_z_positive():
    z = make_group("z:1")
    t = enumerate_ball(z, 5)
    word = geodesic_word(t, (3,))
    assert word.letters == (0, 0, 0)  # three copies of +1
    assert word.prefixes == ((0,), (1,), (2,), (3,))


def test_geodesic_dinf_translation():
    d = make_group("dinf")
    t = enumerate_ball(d, 5)
    word = geodesic_word(t, (1, 0))  # the translation a = x*y
    assert len(word) == 2
    assert word.letters == (0, 1)
    assert word.prefixes[-1] == (1, 0)


def test_geodesic_identity_empty():
    for desc in ("z:1", "lamplighter"):
        g = make_group(desc)
        t = enumerate_ball(g, 2)
        word = geodesic_word(t, g.identity)
        assert word.letters == ()
        assert word.prefixes == (g.identity,)


def test_geodesic_outside_table():
    z = make_group("z:1")
    t = enumerate_ball(z, 2)
    with pytest.raises(HorizonExceeded):
        geodesic_word(t, (5,))
    with pytest.raises(MalformedElement):
        geodesic_word(t, (1.0,))  # hashes like (1,), so the table alone would accept it


@pytest.mark.parametrize("desc", ("z:2", "dinf", "heis"))
def test_geodesic_is_lexicographically_smallest(desc):
    group = make_group(desc)
    t = enumerate_ball(group, 3)
    for g in t.members(3):
        n = t.norm_of[g]
        word = geodesic_word(t, g)
        assert len(word.letters) == n
        # brute force every generator word of length n reaching g
        best = None
        for letters in itertools.product(range(len(group.generators)), repeat=n):
            x = group.identity
            for j in letters:
                x = group.mul(x, group.generators[j])
            if x == g and (best is None or letters < best):
                best = letters
        assert word.letters == best


def test_geodesic_prefix_norms_increase():
    g = make_group("lamplighter")
    t = enumerate_ball(g, 4)
    for target in t.members(3):
        word = geodesic_word(t, target)
        norms = [t.norm_of[p] for p in word.prefixes]
        assert norms == list(range(len(word) + 1))


# ------------------------------------------------------------- build_ledger

def test_ledger_small_z_example():
    z = make_group("z:1")
    t = enumerate_ball(z, 5)
    ledger = build_ledger(z_subset(z, [0, 1]), t, 1)
    assert ledger.rays[(0,)] == ((-1,),)
    assert ledger.rays[(1,)] == ((1,),)
    assert ledger.omega_g[(0,)] == ()
    assert ledger.omega_g[(1,)] == ((1,),)
    assert ledger.omega_g[(-1,)] == ((0,),)
    assert ledger.sum_rays == ledger.sum_omega_g == 2


def test_ledger_identity_translate_empty(groups):
    rng = random.Random(3)
    for g in groups.values():
        t = enumerate_ball(g, 3)
        pool = t.members(2)
        omega = FiniteSubset(g, rng.sample(pool, min(5, len(pool))))
        ledger = build_ledger(omega, t, 2)
        assert ledger.omega_g[g.identity] == ()


def test_ledger_interval_shift_bound():
    z = make_group("z:1")
    t = enumerate_ball(z, 5)
    ledger = build_ledger(z_subset(z, range(5)), t, 2)
    moved = ledger.omega_g[(2,)]
    assert set(moved) == {(3,), (4,)}
    bd = len(z_subset(z, range(5)).boundary_set())
    assert len(moved) <= 2 * bd


def test_ledger_requires_nonempty_and_radius():
    z = make_group("z:1")
    t = enumerate_ball(z, 3)
    with pytest.raises(EmptySet):
        build_ledger(FiniteSubset(z, []), t, 1)
    with pytest.raises(BadParams):
        build_ledger(z_subset(z, [0]), t, 0)
    with pytest.raises(HorizonExceeded):
        build_ledger(z_subset(z, [0]), t, 4)
    # heis triples are well-formed z:3 payloads, so only the group check catches this
    z3 = make_group("z:3")
    with pytest.raises(MalformedElement):
        build_ledger(FiniteSubset(z3, [(0, 0, 0)]), enumerate_ball(make_group("heis"), 2), 1)


def test_ledger_budget_bounds_its_pairs():
    # |W| |B(2)| = 10 * 5 pairs: a budget of 50 runs, 49 is refused first
    z = make_group("z:1")
    t = enumerate_ball(z, 3)
    omega = z_subset(z, range(10))
    assert build_ledger(omega, t, 2, max_elements=50).sum_rays == 6
    with pytest.raises(BadParams) as exc:
        build_ledger(omega, t, 2, max_elements=49)
    assert str(exc.value) == ("the ledger has |W| |B(2)| = 10 * 5 = 50 pairs, "
                              "over the element budget of 49")
    # the budget is checked after the horizon and the group
    with pytest.raises(HorizonExceeded):
        build_ledger(omega, t, 4, max_elements=1)
    with pytest.raises(MalformedElement):
        build_ledger(omega, enumerate_ball(make_group("dinf"), 2), 1, max_elements=1)


def test_ledger_past_the_old_caps_runs_within_the_budget():
    # |W| = 101 and r = 7 were refused before any budget applied
    z = make_group("z:1")
    t = enumerate_ball(z, 8)
    assert build_ledger(z_subset(z, range(101)), t, 1).sum_rays == 2
    ledger = build_ledger(z_subset(z, [0]), t, 7)
    assert ledger.sum_rays == ledger.sum_omega_g == 14


def test_ledger_deterministic_rebuild():
    g = make_group("lamplighter")
    t = enumerate_ball(g, 3)
    omega = FiniteSubset(g, t.members(2))
    a = build_ledger(omega, t, 2)
    b = build_ledger(omega, t, 2)
    assert list(a.omega_g) == list(b.omega_g)
    assert a.omega_g == b.omega_g
    assert a.rays == b.rays
    assert a.exit_fibers == b.exit_fibers
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def _ledger_by_definition(group, table, omega, r):
    """omega_g, rays and exit_fibers straight from their definitions, with the
    checked ``mul`` and the prefixes of the public ``geodesic_word``."""
    inside = omega.elements
    xs = sorted(inside, key=group.key)
    ball = table.members(r)
    outside = {(x, g): group.mul(x, g) not in inside for x in xs for g in ball}
    omega_g = {g: tuple(x for x in xs if outside[x, g]) for g in ball}
    rays = {x: tuple(g for g in ball if outside[x, g]) for x in xs}
    boundary = {x for x in xs
                if any(group.mul(x, s) not in inside for s in group.generators)}
    fibers = Counter()
    for g in ball:
        prefixes = geodesic_word(table, g).prefixes
        for x in omega_g[g]:
            exit_point = next(p for p in (group.mul(x, q) for q in prefixes)
                              if p in boundary)
            fibers[g, exit_point] += 1
    return omega_g, rays, dict(fibers)


@pytest.mark.parametrize("desc", SEARCHED_GROUPS)
def test_ledger_matches_definitions(desc):
    group = KERNEL_GROUPS[desc]()
    t = enumerate_ball(group, 2)
    pool = t.members(2)
    rng = random.Random(17)
    for r in (1, 2):
        subsets = [pool[:1], pool]
        subsets += [rng.sample(pool, rng.randint(2, min(10, len(pool)))) for _ in range(4)]
        for elements in subsets:
            omega = FiniteSubset(group, elements)
            ledger = build_ledger(omega, t, r)
            omega_g, rays, fibers = _ledger_by_definition(group, t, omega, r)
            assert list(ledger.omega_g.items()) == list(omega_g.items())
            assert list(ledger.rays.items()) == list(rays.items())
            assert ledger.exit_fibers == fibers
            assert ledger.max_fiber == max(fibers.values(), default=0)


# ------------------------------------------------------------- verify_lemma

def test_lemma_spheres_equality_on_line():
    z = make_group("z:1")
    t = enumerate_ball(z, 10)
    report = verify_lemma("spheres", table=t)
    assert report.holds
    # on the line the sphere bound is met with equality
    for r in range(2, 11):
        assert t.s[r] == (len(z.generators) - 1) * t.s[r - 1]


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_lemma_spheres_and_balls_all_groups(desc):
    t = enumerate_ball(make_group(desc), 5)
    assert verify_lemma("spheres", table=t).holds
    assert verify_lemma("balls", table=t).holds


def test_lemma_spheres_and_balls_report_first_violation():
    t = enumerate_ball(make_group("z:1"), 5)
    broken = BallTable(t.group, t.max_radius, t.elements, t.norm_of, b=[1, 3, 5, 16, 25, 27],
                       s=[1, 2, 2, 5, 9, 2], length_sum=t.length_sum, exhausted=t.exhausted)
    spheres = verify_lemma("spheres", table=broken)
    assert (spheres.holds, spheres.witness, spheres.detail) == (
        False, {"r": 3}, "violated at radius 3")
    balls = verify_lemma("balls", table=broken)
    assert (balls.holds, balls.witness, balls.detail) == (
        False, {"r": 3}, "violated at radius 3")


def test_lemma_counting_example():
    z = make_group("z:1")
    t = enumerate_ball(z, 5)
    ledger = build_ledger(z_subset(z, [0, 1]), t, 1)
    report = verify_lemma("counting", ledger=ledger)
    assert report.holds
    assert "2" in report.detail


def test_lemma_ray_lower_example():
    z = make_group("z:1")
    t = enumerate_ball(z, 6)
    omega = z_subset(z, [0, 1, 2])
    assert phi(t, 6) == 3
    ledger = build_ledger(omega, t, 3)
    report = verify_lemma("ray-lower", ledger=ledger, alpha=1)
    assert report.holds
    for x in omega.elements:
        assert len(ledger.rays[x]) >= 3


def test_lemma_ray_lower_precondition():
    z = make_group("z:1")
    t = enumerate_ball(z, 6)
    ledger = build_ledger(z_subset(z, [0, 1, 2]), t, 1)
    with pytest.raises(PreconditionUnmet):
        verify_lemma("ray-lower", ledger=ledger, alpha=10)


def test_lemma_conclude():
    z = make_group("z:1")
    t = enumerate_ball(z, 6)
    omega = z_subset(z, [0, 1, 2])
    ledger = build_ledger(omega, t, 3)
    report = verify_lemma("conclude", ledger=ledger, alpha=1)
    assert report.holds
    wrong_radius = build_ledger(omega, t, 2)
    with pytest.raises(PreconditionUnmet):
        verify_lemma("conclude", ledger=wrong_radius, alpha=1)


def test_lemma_alpha_must_be_exact():
    z = make_group("z:1")
    ledger = build_ledger(z_subset(z, [0, 1, 2]), enumerate_ball(z, 6), 3)
    for which in ("ray-lower", "conclude"):
        assert verify_lemma(which, ledger=ledger, alpha=Fraction(1)).holds
        for alpha in (0.5, "1/2", -1):
            with pytest.raises(BadParams):
                verify_lemma(which, ledger=ledger, alpha=alpha)


def test_lemma_failures_name_their_witness():
    # ledgers altered by hand: each verifier must report the first entry over
    # its bound, with the witness and the detail text of that entry
    z = make_group("z:1")
    ledger = build_ledger(z_subset(z, [0, 1, 2]), enumerate_ball(z, 6), 3)
    assert ledger.sum_rays == 12

    def altered(**changes):
        fields = {name: getattr(ledger, name) for name in TransportLedger.__slots__}
        return TransportLedger(**{**fields, **changes})

    inflated = altered(omega_g={**ledger.omega_g, (1,): ((0,), (1,), (2,))})
    overcounted = altered(exit_fibers={**ledger.exit_fibers, ((1,), (2,)): 2})
    short = altered(rays={**ledger.rays, (0,): ()})
    cases = [
        (verify_lemma("transport", ledger=inflated),
         {"g": "1"}, "|W_g| = 3 exceeds |g| |bd W| = 2"),
        (verify_lemma("counting", ledger=inflated),
         {"sum_rays": 12, "sum_omega_g": 14}, "the two countings disagree"),
        (verify_lemma("fiber", ledger=overcounted),
         {"g": "1", "b": "2"}, "fiber of size 2 exceeds |g| = 1"),
        (verify_lemma("ray-lower", ledger=short, alpha=1),
         {"x": "0"}, "|rays(0)| = 0 below alpha |W| = 3"),
        (verify_lemma("conclude", ledger=short, alpha=1),
         {"x": "0"}, "|rays(0)| = 0 below (alpha/(1+alpha)) b_(r-1) = 5/2"),
    ]
    for report, witness, detail in cases:
        assert (report.holds, report.witness, report.detail) == (False, witness, detail)
    for which in ("ray-lower", "conclude"):
        assert verify_lemma(which, ledger=ledger, alpha=1).holds


def test_lemma_transport_and_fiber_random(groups):
    rng = random.Random(5)
    for g in groups.values():
        t = enumerate_ball(g, 3)
        pool = t.members(3)
        for _ in range(12):
            omega = FiniteSubset(g, rng.sample(pool, rng.randint(1, min(8, len(pool)))))
            ledger = build_ledger(omega, t, rng.randint(1, 3))
            assert verify_lemma("transport", ledger=ledger).holds
            assert verify_lemma("counting", ledger=ledger).holds
            assert verify_lemma("fiber", ledger=ledger).holds


def test_lemma_dispatch_errors():
    z = make_group("z:1")
    t = enumerate_ball(z, 3)
    with pytest.raises(BadParams):
        verify_lemma("bogus", table=t)
    with pytest.raises(BadParams):
        verify_lemma("counting", table=t)  # needs a ledger
    with pytest.raises(BadParams):
        verify_lemma("ray-lower", ledger=build_ledger(z_subset(z, [0]), t, 1))


# ----------------------------------------------- the full inequality chain

@pytest.mark.parametrize("desc", ("z:1", "z:2"))
def test_average_length_chain_reconstruction(desc):
    """Each link of the chain behind the averaged inequality, separately:
    length_sum(r) |bd W| >= sum_g |W_g| = sum_x |rays(x)| >= a/(1+a) |W| b_(r-1)."""
    group = make_group(desc)
    t = enumerate_ball(group, 12)
    rng = random.Random(9)
    pool = t.members(2)
    for _ in range(10):
        omega = FiniteSubset(group, rng.sample(pool, rng.randint(1, min(6, len(pool)))))
        for alpha in (Fraction(1, 2), Fraction(1)):
            r = phi(t, (1 + alpha) * len(omega))
            ledger = build_ledger(omega, t, r)
            bd = len(omega.boundary_set())
            lhs = t.length_sum[r] * bd
            mid = ledger.sum_omega_g
            assert lhs >= mid
            assert mid == ledger.sum_rays
            assert ledger.sum_rays >= alpha / (1 + alpha) * len(omega) * t.b[r - 1]
