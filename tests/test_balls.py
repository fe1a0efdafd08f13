import itertools
import math
import random
from fractions import Fraction

import pytest

from cayleyiso.balls import (
    INFINITE,
    BallTable,
    average_length,
    enumerate_ball,
    growth_rate_upper,
    phi,
    table_for_volume,
)
from cayleyiso.errors import (
    BadParams,
    HorizonExceeded,
    InvalidParams,
    MemoryBudgetExceeded,
    RadiusOutOfRange,
)
from cayleyiso.folner import adjacency_index
from cayleyiso.groups import ZPowerD, make_group

from conftest import (
    BUILTIN_DESCRIPTORS,
    KERNEL_GROUPS,
    SEARCHED_GROUPS,
    CyclicStub,
    _OneWayCycle,
)


# ------------------------------------------------------------ enumerate_ball

def test_ball_z_closed_form():
    t = enumerate_ball(make_group("z:1"), 3)
    assert t.b == [1, 3, 5, 7]
    assert t.s == [1, 2, 2, 2]


def test_ball_z2_closed_form():
    t = enumerate_ball(make_group("z:2"), 2)
    assert t.b == [1, 5, 13]
    t20 = enumerate_ball(make_group("z:2"), 20)
    assert t20.b == [2 * r * r + 2 * r + 1 for r in range(21)]


def test_ball_free_closed_form():
    t = enumerate_ball(make_group("free:2"), 5)
    assert t.b == [2 * 3 ** r - 1 for r in range(6)]


def test_ball_radius_zero():
    for desc in BUILTIN_DESCRIPTORS:
        t = enumerate_ball(make_group(desc), 0)
        assert t.b == [1]
        assert t.elements == [make_group(desc).identity]


def test_ball_elements_ordered_by_norm():
    t = enumerate_ball(make_group("z:2"), 4)
    norms = [t.norm_of[x] for x in t.elements]
    assert norms == sorted(norms)
    for r in range(5):
        assert len(t.members(r)) == t.b[r]


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_bfs_norm_equals_brute_force_word_norm(desc):
    group = make_group(desc)
    t = enumerate_ball(group, 4)
    brute = {group.identity: 0}
    for length in range(1, 5):
        for word in itertools.product(group.generators, repeat=length):
            x = group.identity
            for s in word:
                x = group.mul(x, s)
            if x not in brute:
                brute[x] = length
    assert brute == t.norm_of


def _oracle_ball(group, radius):
    """Breadth-first search by the checked ``mul``, forming every product:
    (elements, norm_of, b, s, length_sum)."""
    elements = [group.identity]
    norm_of = {group.identity: 0}
    frontier = [group.identity]
    for r in range(1, radius + 1):
        sphere = []
        for x in frontier:
            for g in group.generators:
                y = group.mul(x, g)
                if y not in norm_of:
                    norm_of[y] = r
                    sphere.append(y)
        elements += sphere
        frontier = sphere
    b = [sum(1 for n in norm_of.values() if n <= r) for r in range(radius + 1)]
    s = [b[0]] + [b[r] - b[r - 1] for r in range(1, radius + 1)]
    length_sum = [sum(n for n in norm_of.values() if n <= r) for r in range(radius + 1)]
    return elements, norm_of, b, s, length_sum


@pytest.mark.parametrize("name", SEARCHED_GROUPS)
def test_ball_matches_oracle_without_skip(name):
    # the search skips the product back to each element's parent; an
    # oracle forming every product must find the same table
    group = KERNEL_GROUPS[name]()
    for radius in (0, 1, 2, 5):
        t = enumerate_ball(group, radius)
        assert (t.elements, t.norm_of, t.b, t.s, t.length_sum) == _oracle_ball(group, radius)


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_subadditivity_of_ball_counts(desc):
    t = enumerate_ball(make_group(desc), 6)
    for m in range(7):
        for n in range(7 - m):
            assert t.b[m + n] <= t.b[m] * t.b[n]


def test_memory_budget_exceeded():
    with pytest.raises(MemoryBudgetExceeded) as info:
        enumerate_ball(make_group("z:2"), 10, max_elements=50)
    # b_4 = 41 fits, b_5 = 61 does not
    assert info.value.last_completed_radius == 4
    # not even B(0) fits in a budget of 0 elements
    with pytest.raises(MemoryBudgetExceeded, match="at radius 0") as info:
        enumerate_ball(make_group("z:2"), 0, max_elements=0)
    assert info.value.last_completed_radius == -1


def _budget_outcome(search):
    """("raise", last completed radius, message) or ("ok", table fields)."""
    try:
        t = search()
    except MemoryBudgetExceeded as exc:
        return "raise", exc.last_completed_radius, str(exc)
    return "ok", (t.max_radius, t.elements, t.norm_of, t.b, t.exhausted)


@pytest.mark.parametrize("name", SEARCHED_GROUPS)
def test_budget_edges_match_oracle_counts(name):
    # the budget is checked once per expanded element; the search must still
    # raise at the first radius whose ball holds more than the budget, and
    # not at all when every ball up to the radius fits
    group = KERNEL_GROUPS[name]()
    _, _, b, _, _ = _oracle_ball(group, 5)
    full = enumerate_ball(group, 5)
    for r in range(1, 6):
        for budget in (b[r] - 1, b[r]):
            over = next((q for q in range(6) if b[q] > budget), None)
            outcome = _budget_outcome(lambda: enumerate_ball(group, 5, max_elements=budget))
            if over is None:
                assert outcome == _budget_outcome(lambda: full), (r, budget)
            else:
                assert outcome[:2] == ("raise", over - 1), (r, budget)
                assert f"exceeded {budget} elements at radius {over}" in outcome[2]


def test_ball_search_rejects_a_generating_set_that_is_not_symmetric():
    # the skipped product and the degree bounds of the sphere counts need
    # every inverse in the set; z:2 without -e1 and -e2
    class HalfPlane(ZPowerD):
        def __init__(self):
            super().__init__(2)
            self.generators = ((1, 0), (0, 1))

    for group in (HalfPlane(), _OneWayCycle()):
        message = f"^generators of {group.descriptor} are not symmetric$"
        for search in (lambda: enumerate_ball(group, 3), lambda: enumerate_ball(group, 0),
                       lambda: table_for_volume(group, 100)):
            with pytest.raises(InvalidParams, match=message):
                search()


def test_exhausted_finite_group():
    t = enumerate_ball(CyclicStub(4), 5)
    assert t.exhausted
    assert t.b == [1, 3, 4, 4, 4, 4]
    assert t.s == [1, 2, 1, 0, 0, 0]


def test_bad_radius():
    # both ball searches share one preamble
    for search in (enumerate_ball, adjacency_index):
        for radius in (-1, 1.5):
            with pytest.raises(RadiusOutOfRange):
                search(make_group("z:1"), radius)


# ------------------------------------------------------------------- phi

def test_phi_examples():
    t = enumerate_ball(make_group("z:1"), 12)
    assert phi(t, 5) == 3
    assert phi(t, 0) == 0
    assert phi(t, Fraction(9, 2)) == 2  # b_2 = 5 > 9/2


def test_phi_horizon_vs_infinite():
    t = enumerate_ball(make_group("z:1"), 3)
    with pytest.raises(HorizonExceeded):
        phi(t, 7)  # b_3 = 7 is not > 7 and the group is not exhausted
    finite = enumerate_ball(CyclicStub(4), 5)
    assert phi(finite, 4) is INFINITE
    assert phi(finite, 3) == 2


def test_phi_rejects_bad_volumes():
    # table_for_volume applies phi's check, with its texts, before it searches
    z, z2 = make_group("z:1"), make_group("z:2")
    t = enumerate_ball(z, 3)
    for volume, message in ((1.5, r"^phi takes exact volumes \(int or Fraction\), not float$"),
                            (5.5, r"^phi takes exact volumes \(int or Fraction\), not float$"),
                            (-1, "^volume must be >= 0, got -1$"),
                            (Fraction(-1, 2), "^volume must be >= 0, got -1/2$")):
        with pytest.raises(BadParams, match=message):
            phi(t, volume)
        with pytest.raises(BadParams, match=message):
            table_for_volume(z2, volume)
        with pytest.raises(BadParams, match=message):
            table_for_volume(z2, volume, max_elements=1)


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_phi_growth_consistency(desc):
    t = enumerate_ball(make_group(desc), 5)
    for r in range(6):
        assert phi(t, t.b[r] - 1) <= r
        if r < 5:
            assert phi(t, t.b[r]) > r


# ---------------------------------------------------------- average_length

def test_average_length_examples():
    t = enumerate_ball(make_group("z:1"), 5)
    assert average_length(t, 2) == Fraction(6, 5)
    assert average_length(t, 0) == 0
    t2 = enumerate_ball(make_group("z:2"), 3)
    assert average_length(t2, 1) == Fraction(4, 5)


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_average_length_at_most_radius(desc):
    t = enumerate_ball(make_group(desc), 5)
    for r in range(6):
        assert average_length(t, r) <= r


def test_average_length_out_of_range():
    # beyond the table is HorizonExceeded at every site that reads a radius
    t = enumerate_ball(make_group("z:1"), 3)
    for call, text in ((t.members, r"^radius 4 not in \[0, 3\]$"),
                       (lambda r: average_length(t, r), r"^radius 4 not in \[0, 3\]$"),
                       (lambda r: growth_rate_upper(t, r), r"^horizon 4 not in \[1, 3\]$")):
        with pytest.raises(HorizonExceeded, match=text):
            call(4)


# -------------------------------------------------------- growth estimates

def test_growth_rate_z_horizon_10():
    t = enumerate_ball(make_group("z:1"), 10)
    est = growth_rate_upper(t, 10)
    assert est.fekete_inf == pytest.approx(math.log(21) / 10)
    assert min(range(10), key=lambda i: est.per_n[i]) == 9
    assert not est.is_exponential_evidence


def test_growth_rate_free_decreasing_toward_log3():
    t = enumerate_ball(make_group("free:2"), 6)
    est = growth_rate_upper(t, 6)
    assert est.fekete_inf == pytest.approx(math.log(1457) / 6)
    assert all(est.per_n[i] >= est.per_n[i + 1] for i in range(5))
    assert est.per_n[-1] > math.log(3)
    assert est.is_exponential_evidence


def test_growth_rate_single_term():
    t = enumerate_ball(make_group("z:2"), 3)
    est = growth_rate_upper(t, 1)
    assert est.fekete_inf == pytest.approx(math.log(5))
    assert not est.is_exponential_evidence


def test_growth_rate_fekete_bounds_every_term():
    t = enumerate_ball(make_group("lamplighter"), 8)
    est = growth_rate_upper(t, 8)
    assert all(est.fekete_inf <= v for v in est.per_n)
    assert est.is_exponential_evidence


# is_exponential_evidence at horizons 1..R, computed independently with the
# float comparison ln(b_h / b_(h-2)) >= 0.7 ln(b_half / b_(half-2)) from
# horizon 6 on; the horizons of the growth benchmark are among them
_PINNED_EVIDENCE = {
    ("z:1", 40): "0" * 40,
    ("z:2", 64): "0" * 64,
    ("z:3", 24): "0" * 24,
    ("z:4", 10): "0" * 10,
    ("dinf", 40): "0" * 40,
    ("heis", 20): "0" * 20,
    ("free:2", 9): "000001111",
    ("free:3", 6): "000001",
    ("lamplighter", 11): "00000111111",
}


@pytest.mark.parametrize("desc, radius", _PINNED_EVIDENCE)
def test_growth_evidence_pinned(desc, radius):
    # the lamplighter at 6 (late/mid 0.737) sits close to the 7/10
    # threshold; below horizon 6, where heis reaches 0.731 and 0.733 and the
    # lamplighter 0.533, no horizon is evidence
    t = enumerate_ball(make_group(desc), radius)
    flags = "".join("01"[growth_rate_upper(t, h).is_exponential_evidence]
                    for h in range(1, radius + 1))
    assert flags == _PINNED_EVIDENCE[desc, radius]


def test_growth_evidence_exact_at_the_threshold():
    # b_6 / b_4 = 2^7 and b_3 / b_1 = 2^10: late is exactly 7/10 of mid,
    # which the integer comparison counts as evidence; one element less is not
    def table(b):
        return BallTable(make_group("z:1"), 6, [], {}, b, [], [], False)

    for b6, expected in ((2 ** 22, True), (2 ** 22 - 1, False)):
        t = table([1, 2, 2 ** 5, 2 ** 11, 2 ** 15, 2 ** 20, b6])
        assert growth_rate_upper(t, 6).is_exponential_evidence is expected
    est = growth_rate_upper(table([1] * 7), 6)
    assert est.fekete_inf == 0 and not est.is_exponential_evidence


def test_growth_rate_polynomial_no_evidence():
    for desc, radius in (("z:1", 12), ("z:2", 12), ("z:3", 8), ("heis", 8), ("dinf", 12)):
        t = enumerate_ball(make_group(desc), radius)
        for horizon in range(6, radius + 1):
            assert not growth_rate_upper(t, horizon).is_exponential_evidence, (desc, horizon)


# ------------------------------------------------------------ table helpers

def test_table_for_volume():
    t = table_for_volume(make_group("z:1"), 100)
    assert t.b[-1] > 100
    finite = table_for_volume(CyclicStub(5), 100)
    assert finite.exhausted


@pytest.mark.parametrize("name", SEARCHED_GROUPS)
def test_grown_table_for_volume_matches_oracle(name):
    # table_for_volume grows one search through the doubling radii; the
    # table it returns must be the oracle's table of its final radius
    group = KERNEL_GROUPS[name]()
    _, _, b, s, _ = _oracle_ball(group, 4)
    # b_R > volume is strict: volumes equal to b_1 and b_2 need the next radius
    for volume, start in ((0, 1), (b[1] - 1, 1), (b[1], 1), (b[2], 1), (b[2] - 1, 2),
                          (b[2], 2), (0, 4)):
        t = table_for_volume(group, volume, start_radius=start)
        expected = start
        while b[expected] <= volume and 0 not in s[1:expected + 1]:
            expected *= 2
        assert t.max_radius == expected, (volume, start)
        assert (t.elements, t.norm_of, t.b, t.s, t.length_sum) == _oracle_ball(group, expected)
        assert t.exhausted == (0 in s[1:expected + 1])
    # budgets on both sides of every ball size up to B(4), so that some
    # cross the doubling points 1 and 2: the grown search raises where a
    # fresh search of the final radius does
    for r in range(1, 5):
        for budget in (b[r] - 1, b[r]):
            grown = _budget_outcome(
                lambda: table_for_volume(group, b[2], max_elements=budget, start_radius=1))
            fresh = _budget_outcome(lambda: enumerate_ball(group, 4, max_elements=budget))
            assert grown == fresh, (r, budget)


def test_volume_at_rational_radii():
    t = enumerate_ball(make_group("z:1"), 6)
    assert t.volume_at(Fraction(-1, 2)) == 0
    assert t.volume_at(Fraction(1, 2)) == 1
    assert t.volume_at(Fraction(3, 2)) == 3
    assert t.volume_at(3) == 7
    with pytest.raises(HorizonExceeded):
        t.volume_at(7)
    finite = enumerate_ball(CyclicStub(4), 4)
    assert finite.volume_at(100) == 4


def test_csv_rows_and_json():
    t = enumerate_ball(make_group("z:1"), 2)
    rows = t.csv_rows()
    assert rows[2] == (2, 5, 2, 6, 6, 5)
    payload = t.to_json_dict()
    assert payload["rows"][2]["avg_len"] == {"num": 6, "den": 5}


def test_rebuild_is_deterministic():
    a = enumerate_ball(make_group("lamplighter"), 4)
    b = enumerate_ball(make_group("lamplighter"), 4)
    assert a.elements == b.elements
    assert a.b == b.b


def test_norm_outside_table_raises():
    t = enumerate_ball(make_group("z:1"), 2)
    with pytest.raises(HorizonExceeded):
        t.norm((5,))
