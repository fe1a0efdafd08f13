import random

import pytest

from cayleyiso.errors import MalformedElement
from cayleyiso.groups import Group, make_group

BUILTIN_DESCRIPTORS = ("z:1", "z:2", "free:2", "dinf", "heis", "lamplighter")

#: one hashable but non-canonical payload per built-in group
MALFORMED_PAYLOADS = {
    "z:1": (1.5,),
    "z:2": (1,),
    "free:2": (1, -1),
    "dinf": (0, 2),
    "heis": (1, 2),
    "lamplighter": (0, (0,)),
}


class CyclicStub(Group):
    """Finite cyclic test group: the only way to exercise exhausted-ball and
    infinite-sentinel code paths, since every built-in group is infinite."""

    def __init__(self, modulus: int):
        assert modulus >= 3
        self.modulus = modulus
        self.descriptor = f"cyclic-stub:{modulus}"
        self.identity = 0
        self.generators = (1, modulus - 1)

    def check_element(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.modulus:
            raise MalformedElement(f"not a residue mod {self.modulus}: {a!r}")

    def _mul(self, a, b):
        return (a + b) % self.modulus

    def _inv(self, a):
        return (-a) % self.modulus

    def format_element(self, a):
        return str(a)

    def parse_element(self, text):
        value = int(text)
        self.check_element(value)
        return value


@pytest.fixture(scope="session")
def groups():
    return {desc: make_group(desc) for desc in BUILTIN_DESCRIPTORS}


@pytest.fixture(scope="session")
def cyclic4():
    return CyclicStub(4)


def random_element(group, rng: random.Random, max_len: int = 8):
    """Product of a random generator word; uniform enough for property tests."""
    x = group.identity
    for _ in range(rng.randint(0, max_len)):
        x = group.mul(x, group.generators[rng.randrange(len(group.generators))])
    return x
