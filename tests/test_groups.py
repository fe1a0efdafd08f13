import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyiso.errors import InvalidParams, MalformedElement, UnknownKind
from cayleyiso.groups import (
    DihedralInfinite,
    Heisenberg,
    LamplighterZ2,
    ZPowerD,
    make_group,
    validate_generators,
)

from conftest import BUILTIN_DESCRIPTORS, KERNEL_GROUPS, MALFORMED_PAYLOADS, random_element


# ---------------------------------------------------------------- make_group

def test_make_group_z1_standard_generators():
    g = make_group("z:1")
    assert g.generators == ((1,), (-1,))
    assert len(g.generators) == 2


def test_make_group_zd_sizes():
    for d in (1, 2, 3):
        g = make_group(f"z:{d}")
        assert len(g.generators) == 2 * d
        assert len(set(g.generators)) == 2 * d


def test_make_group_dinf_involutions():
    g = make_group("dinf")
    x, y = g.generators
    assert g.mul(x, x) == g.identity
    assert g.mul(y, y) == g.identity


def test_make_group_lamplighter_switch_walk_switch():
    g = make_group("lamplighter")
    assert len(g.generators) == 8
    # the set is exactly {s,e} * {t, t^-1} * {s,e}
    s = (0, frozenset({0}))
    t = (1, frozenset())
    tinv = (-1, frozenset())
    products = set()
    for left in (g.identity, s):
        for mid in (t, tinv):
            for right in (g.identity, s):
                products.add(g.mul(g.mul(left, mid), right))
    assert products == set(g.generators)
    # closed under inversion
    assert {g.inv(x) for x in g.generators} == set(g.generators)


def test_make_group_errors():
    with pytest.raises(UnknownKind):
        make_group("quaternion")
    with pytest.raises(InvalidParams):
        make_group("z:0")
    with pytest.raises(InvalidParams):
        make_group("free:-1")
    with pytest.raises(InvalidParams):
        make_group("dinf:3")


# ----------------------------------------------------------------- op_mul

def test_mul_z_integers():
    g = make_group("z:1")
    assert g.mul((3,), (-5,)) == (-2,)


def _dinf_affine(payload):
    n, eps = payload
    sign = -1 if eps else 1
    return lambda t: sign * t + n


def test_mul_dinf_against_permutation_oracle():
    g = make_group("dinf")
    rng = random.Random(7)
    samples = [(rng.randint(-5, 5), rng.randint(0, 1)) for _ in range(40)]
    for a, b in itertools.product(samples[:12], samples[12:24]):
        product = g.mul(a, b)
        fa, fb, fp = _dinf_affine(a), _dinf_affine(b), _dinf_affine(product)
        for t in range(-4, 5):
            assert fp(t) == fa(fb(t))


def test_mul_dinf_involution_example():
    g = make_group("dinf")
    assert g.mul((1, 1), (1, 1)) == g.identity


def _heis_matrix(payload):
    a, b, c = payload
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def _matmul3(m1, m2):
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def test_mul_heisenberg_against_matrix_oracle():
    g = make_group("heis")
    assert g.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    rng = random.Random(11)
    for _ in range(60):
        p = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        q = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        prod = g.mul(p, q)
        assert _heis_matrix(prod) == _matmul3(_heis_matrix(p), _heis_matrix(q))


_LAMP_PROGRAMS = {
    0: ("t+",),
    1: ("t-",),
    2: ("s", "t+"),
    3: ("s", "t-"),
    4: ("t+", "s"),
    5: ("t-", "s"),
    6: ("s", "t+", "s"),
    7: ("s", "t-", "s"),
}


def _lamp_machine(word_indices):
    """Operational oracle: run switch/walk instructions on a tape."""
    pos = 0
    lamps = set()
    for idx in word_indices:
        for op in _LAMP_PROGRAMS[idx]:
            if op == "s":
                lamps.symmetric_difference_update({pos})
            elif op == "t+":
                pos += 1
            else:
                pos -= 1
    return (pos, frozenset(lamps))


def test_mul_lamplighter_against_machine_oracle():
    g = make_group("lamplighter")
    rng = random.Random(13)
    for _ in range(120):
        word = [rng.randrange(8) for _ in range(rng.randint(0, 10))]
        algebraic = g.identity
        for idx in word:
            algebraic = g.mul(algebraic, g.generators[idx])
        assert algebraic == _lamp_machine(word)


def test_mul_free_reduction():
    g = make_group("free:2")
    # (a b) * (b^-1 a^-1) = e
    assert g.mul((1, 2), (-2, -1)) == ()
    assert g.mul((1, 2), (2, 1)) == (1, 2, 2, 1)
    assert g.mul((1, -2), (2, 2)) == (1, 2)


def test_mul_rejects_malformed():
    g = make_group("z:2")
    with pytest.raises(MalformedElement):
        g.mul((1,), (0, 0))
    with pytest.raises(MalformedElement):
        g.mul((1.5, 0), (0, 0))
    f = make_group("free:2")
    with pytest.raises(MalformedElement):
        f.mul((1, -1), ())
    with pytest.raises(MalformedElement):
        f.mul((3,), ())
    ll = make_group("lamplighter")
    with pytest.raises(MalformedElement):
        ll.mul((0, {0}), ll.identity)  # set, not frozenset
    for desc in BUILTIN_DESCRIPTORS:
        g = make_group(desc)
        bad = MALFORMED_PAYLOADS[desc]
        with pytest.raises(MalformedElement):
            g.mul(bad, g.identity)
        with pytest.raises(MalformedElement):
            g.mul(g.identity, bad)
        with pytest.raises(MalformedElement):
            g.inv(bad)


# ----------------------------------------------------------------- op_inv

def test_inv_examples():
    z = make_group("z:1")
    assert z.inv((7,)) == (-7,)
    f = make_group("free:2")
    assert f.inv((1, -2)) == (2, -1)
    ll = make_group("lamplighter")
    a = (2, frozenset({0}))
    assert ll.inv(a) == (-2, frozenset({-2}))
    assert ll.mul(a, ll.inv(a)) == ll.identity


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_inv_is_involution_and_cancels(desc):
    g = make_group(desc)
    rng = random.Random(hash(desc) & 0xFFFF)
    for _ in range(200):
        a = random_element(g, rng)
        assert g.inv(g.inv(a)) == a
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.mul(g.inv(a), a) == g.identity


# ----------------------------------------------------------------- op_key

def test_key_identity_unique():
    z = make_group("z:1")
    assert z.key((0,)) == z.key(z.mul((3,), (-3,)))


def test_key_dinf_normal_form():
    g = make_group("dinf")
    x = g.generators[0]
    assert g.key((0, 1)) == g.key(x)


def test_key_lamplighter_insertion_order():
    g = make_group("lamplighter")
    rng = random.Random(17)
    lamps = [1, 3, -2, 5]
    for _ in range(20):
        shuffled = lamps[:]
        rng.shuffle(shuffled)
        a = (0, frozenset(lamps))
        b = (0, frozenset(shuffled))
        assert g.key(a) == g.key(b)


@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_key_injective_and_parse_roundtrip(desc):
    g = make_group(desc)
    rng = random.Random(23)
    seen = {}
    for _ in range(300):
        a = random_element(g, rng)
        k = g.key(a)
        if k in seen:
            assert seen[k] == a
        seen[k] = a
        assert g.parse_element(g.format_element(a)) == a


def test_parse_element_rejects_garbage():
    for desc, bad in [("z:2", "1"), ("z:2", "a,b"), ("dinf", "1,2"),
                      ("heis", "1,2"), ("lamplighter", "1"), ("free:2", "1,0")]:
        with pytest.raises(MalformedElement):
            make_group(desc).parse_element(bad)


# arbitrary text rarely looks like an element, so half the examples use only
# the characters of element forms
@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="-0123456789,;e ", max_size=12)))
def test_parse_element_on_arbitrary_text(desc, text):
    # any text is rejected or parses to a canonical payload that round-trips
    g = make_group(desc)
    try:
        a = g.parse_element(text)
    except MalformedElement:
        return
    g.check_element(a)
    assert g.parse_element(g.format_element(a)) == a


# ------------------------------------------------------- validate_generators

@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_validate_generators_builtin(desc):
    report = validate_generators(make_group(desc))
    assert report.ok
    assert report.size == len(make_group(desc).generators)
    assert report.problems == ()


def test_validate_generators_not_symmetric():
    g = make_group("z:1")
    g.generators = ((1,),)  # hypothetical broken set
    report = validate_generators(g)
    assert not report.ok
    assert ("not-symmetric", "1") in report.problems


def test_validate_generators_identity_and_duplicate():
    g = make_group("z:1")
    g.generators = ((0,), (1,), (1,), (-1,))
    report = validate_generators(g)
    codes = {p[0] for p in report.problems}
    assert "contains-identity" in codes
    assert "duplicate" in codes


# ------------------------------------------------------ algebraic properties

@pytest.mark.parametrize("desc", BUILTIN_DESCRIPTORS)
def test_associativity_1000_random_triples(desc):
    g = make_group(desc)
    rng = random.Random(0xC0FFEE ^ hash(desc))
    for _ in range(1000):
        a = random_element(g, rng, 6)
        b = random_element(g, rng, 6)
        c = random_element(g, rng, 6)
        left = g.mul(g.mul(a, b), c)
        right = g.mul(a, g.mul(b, c))
        assert left == right
        assert g.key(left) == g.key(right)


def test_dinf_relations_against_integer_action():
    g = make_group("dinf")
    x = (0, 1)
    a = (1, 0)
    assert g.mul(x, x) == g.identity
    xa = g.mul(x, a)
    assert g.mul(xa, xa) == g.identity
    assert g.mul(g.mul(x, a), x) == g.inv(a)
    # the integer action realizes the same relations
    fx, fa = _dinf_affine(x), _dinf_affine(a)
    for t in range(-4, 5):
        assert fx(fx(t)) == t
        assert fx(fa(fx(t))) == _dinf_affine(g.inv(a))(t)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=10), st.lists(st.integers(0, 3), max_size=10))
def test_free_group_products_stay_reduced(w1, w2):
    g = make_group("free:2")

    def from_word(word):
        x = g.identity
        for i in word:
            x = g.mul(x, g.generators[i])
        return x

    p, q = from_word(w1), from_word(w2)
    product = g.mul(p, q)
    g.check_element(product)  # canonical: freely reduced
    assert len(product) <= len(p) + len(q)
    assert g.mul(g.inv(product), product) == ()


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(-6, 6), max_size=6), st.integers(-5, 5),
       st.sets(st.integers(-6, 6), max_size=6), st.integers(-5, 5))
def test_lamplighter_mul_matches_inverse_shift(l1, p1, l2, p2):
    # (a * b)^-1 == b^-1 * a^-1 with lamp supports shifted consistently
    g = make_group("lamplighter")
    a = (p1, frozenset(l1))
    b = (p2, frozenset(l2))
    assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))
    assert g.mul(g.mul(a, b), g.inv(b)) == a


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8), st.lists(st.integers(0, 3), max_size=8))
def test_heisenberg_words_match_matrices(w1, w2):
    g = make_group("heis")

    def from_word(word):
        x = g.identity
        for i in word:
            x = g.mul(x, g.generators[i])
        return x

    p, q = from_word(w1), from_word(w2)
    assert _heis_matrix(g.mul(p, q)) == _matmul3(_heis_matrix(p), _heis_matrix(q))


# --------------------------------------------------------------- right steps

# z:1 to z:3 have written-out steps; z:4 and z:5 take the general one
_STEP_GROUPS = {**KERNEL_GROUPS, "z:4": lambda: ZPowerD(4), "z:5": lambda: ZPowerD(5)}


@pytest.mark.parametrize("name", _STEP_GROUPS)
def test_right_steps_equal_mul(name):
    group = _STEP_GROUPS[name]()
    rng = random.Random(31)
    steps = group._right_steps()
    assert len(steps) == len(group.generators)
    xs = [random_element(group, rng) for _ in range(200)]
    for step, g in zip(steps, group.generators):
        for x in xs:
            y = step(x)
            group.check_element(y)
            assert y == group._mul(x, g)
    # every other shape a subclass could list: short products, the identity
    for x in xs:
        g = random_element(group, rng, max_len=3)
        y = group._right_step(g)(x)
        group.check_element(y)
        assert y == group._mul(x, g)


def test_identity_neutral_everywhere(groups):
    rng = random.Random(31)
    for g in groups.values():
        for _ in range(50):
            a = random_element(g, rng)
            assert g.mul(a, g.identity) == a
            assert g.mul(g.identity, a) == a
