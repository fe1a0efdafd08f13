import random
import sys
from contextlib import contextmanager

import pytest

from cayleyiso.errors import MalformedElement
from cayleyiso.groups import Group, ZPowerD, make_group

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


class _DoubledLine(ZPowerD):
    """The line Z with each generator listed twice."""

    def __init__(self):
        super().__init__(1)
        self.generators = self.generators * 2


class _LoopedLine(ZPowerD):
    """The line Z with the identity among its generators."""

    def __init__(self):
        super().__init__(1)
        self.generators = self.generators + (self.identity,)


class _OneWayCycle(CyclicStub):
    """Z/7 generated by 1 and 2 alone: no generator has an inverse in the set."""

    def __init__(self):
        super().__init__(7)
        self.generators = (1, 2)


#: factories of the groups every trusted kernel is checked on, by test id:
#: the built-ins, two larger ranks, and stubs with odd generating sets
KERNEL_GROUPS = {
    **{desc: lambda desc=desc: make_group(desc)
       for desc in BUILTIN_DESCRIPTORS + ("z:3", "free:3")},
    "doubled-line": _DoubledLine,
    "looped-line": _LoopedLine,
    "cyclic-stub": lambda: CyclicStub(5),
    "one-way-cycle": _OneWayCycle,
}

#: the KERNEL_GROUPS every search (ball, scan) accepts: those whose generating
#: set is symmetric, free of repeats and free of the identity
SEARCHED_GROUPS = [name for name in KERNEL_GROUPS
                   if name not in ("doubled-line", "looped-line", "one-way-cycle")]


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


#: digit limits (off, the least, the default) no answer may depend on
DIGIT_LIMITS = (0, 640, 4300) if hasattr(sys, "set_int_max_str_digits") else (None,)


@contextmanager
def digit_limit(limit):
    """Run with the interpreter's digit limit at ``limit`` (None: as it is)."""
    if limit is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)
