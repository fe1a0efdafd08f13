"""Built-in finitely generated groups with exact arithmetic and canonical forms.

Each group fixes an ordered symmetric generating set; the order is part of the
contract because enumeration order and tie-breaking downstream depend on it.
Element payloads are plain hashable tuples in a canonical normal form, so two
payloads compare equal exactly when they denote the same group element, and
``key`` yields a byte string that is stable across runs.

Descriptor strings accepted by :func:`make_group`:

    ``z:<d>``        free abelian group of rank d, generators the +-unit vectors
    ``free:<rank>``  free group, generators g_i and their inverses
    ``dinf``         infinite dihedral group with two involutive generators
    ``heis``         discrete Heisenberg group (upper unitriangular 3x3)
    ``lamplighter``  Z/2 wr Z with the switch-walk-switch generating set
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .errors import InvalidParams, MalformedElement, UnknownKind

__all__ = [
    "Group",
    "ZPowerD",
    "FreeGroup",
    "DihedralInfinite",
    "Heisenberg",
    "LamplighterZ2",
    "make_group",
    "validate_generators",
    "GeneratorReport",
]


class Group(ABC):
    """A finitely generated group with a fixed symmetric generating set.

    Subclasses define the canonical element payload and exact operations.
    Instances are immutable and safe to share between threads.

    The public :meth:`mul` and :meth:`inv` validate their operands and are
    what outside callers use.  :meth:`_mul` and :meth:`_inv` are the trusted
    path: they skip validation and are called only on payloads that come
    from a ball table or a validated :class:`FiniteSubset`, or on products
    of such payloads.

    :meth:`_right_steps` is the trusted path for right multiplication by a
    generator, the product every breadth-first search and boundary loop
    forms: one callable ``x -> x * g`` per generator, each equal to
    ``lambda x: self._mul(x, g)``.  The steps are built from
    :attr:`generators` on every call, so a subclass that replaces the
    generating set gets matching steps, and a subclass that defines only
    :meth:`_mul` gets working ones.
    """

    #: descriptor string, parseable by :func:`make_group`
    descriptor: str
    #: identity payload
    identity: object
    #: ordered tuple of generator payloads (symmetric, identity-free)
    generators: tuple
    #: True only where non-amenability is a configured fact, never inferred
    is_nonamenable: bool = False

    @abstractmethod
    def check_element(self, a) -> None:
        """Raise :class:`MalformedElement` unless ``a`` is canonical."""

    @abstractmethod
    def _mul(self, a, b):
        ...

    @abstractmethod
    def _inv(self, a):
        ...

    @abstractmethod
    def format_element(self, a) -> str:
        """Canonical printable form; injective on group elements."""

    @abstractmethod
    def parse_element(self, text: str):
        """Inverse of :meth:`format_element`."""

    def _right_steps(self) -> tuple:
        """One callable ``x -> x * g`` per generator g, in generator order.

        Trusted path, like :meth:`_mul`.  Nothing is stored: callers build
        the steps once per search.
        """
        return tuple(self._right_step(g) for g in self.generators)

    def _right_step(self, g):
        """Callable ``x -> x * g``.  Subclasses return a faster equal form for
        the generator shapes they know and defer to this one for any other."""
        mul = self._mul
        return lambda x: mul(x, g)

    def mul(self, a, b):
        """Product ``a * b`` in canonical form."""
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def inv(self, a):
        """Inverse of ``a`` in canonical form."""
        self.check_element(a)
        return self._inv(a)

    def key(self, a) -> bytes:
        """Stable injective byte key of ``a`` (ASCII of the canonical form)."""
        return self.format_element(a).encode("ascii")

    def __repr__(self):
        return f"<group {self.descriptor}>"

    def __eq__(self, other):
        return isinstance(other, Group) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)


def _check_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class ZPowerD(Group):
    """Free abelian group Z^d; payloads are integer d-tuples."""

    def __init__(self, d: int):
        if not _check_int(d) or d < 1:
            raise InvalidParams(f"z:<d> needs an integer d >= 1, got {d!r}")
        self.d = d
        self.descriptor = f"z:{d}"
        self.identity = (0,) * d
        gens = []
        for i in range(d):
            plus = tuple(1 if j == i else 0 for j in range(d))
            minus = tuple(-1 if j == i else 0 for j in range(d))
            gens.append(plus)
            gens.append(minus)
        self.generators = tuple(gens)

    def check_element(self, a):
        if not (isinstance(a, tuple) and len(a) == self.d and all(_check_int(c) for c in a)):
            raise MalformedElement(f"not a Z^{self.d} vector: {a!r}")

    def _mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _right_step(self, g):
        moved = [i for i, c in enumerate(g) if c]
        if len(moved) != 1:
            return super()._right_step(g)
        i = moved[0]
        c = g[i]
        # written out, a step costs about a third of the sliced form
        if self.d == 1:
            return lambda x: (x[0] + c,)
        if self.d == 2:
            return (lambda x: (x[0] + c, x[1])) if i == 0 else lambda x: (x[0], x[1] + c)
        if self.d == 3:
            return (lambda x: (x[0] + c, x[1], x[2]),
                    lambda x: (x[0], x[1] + c, x[2]),
                    lambda x: (x[0], x[1], x[2] + c))[i]
        return lambda x: (*x[:i], x[i] + c, *x[i + 1:])

    def _inv(self, a):
        return tuple(-x for x in a)

    def format_element(self, a):
        return ",".join(str(c) for c in a)

    def parse_element(self, text):
        parts = text.strip().split(",")
        if len(parts) != self.d:
            raise MalformedElement(f"expected {self.d} coordinates: {text!r}")
        try:
            a = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise MalformedElement(f"bad coordinate in {text!r}") from exc
        return a


class FreeGroup(Group):
    """Free group of given rank; payloads are freely reduced letter tuples.

    A letter is a non-zero integer: ``i`` is the i-th generator, ``-i`` its
    inverse.  Canonical form means no adjacent inverse pair.  Rank >= 2 is
    configured non-amenable; rank 1 is infinite cyclic and amenable.
    """

    def __init__(self, rank: int):
        if not _check_int(rank) or rank < 1:
            raise InvalidParams(f"free:<rank> needs an integer rank >= 1, got {rank!r}")
        self.rank = rank
        self.descriptor = f"free:{rank}"
        self.identity = ()
        gens = []
        for i in range(1, rank + 1):
            gens.append((i,))
            gens.append((-i,))
        self.generators = tuple(gens)
        self.is_nonamenable = rank >= 2

    def check_element(self, a):
        if not isinstance(a, tuple):
            raise MalformedElement(f"not a word: {a!r}")
        for letter in a:
            if not _check_int(letter) or letter == 0 or abs(letter) > self.rank:
                raise MalformedElement(f"bad letter {letter!r} in {a!r}")
        for x, y in zip(a, a[1:]):
            if x == -y:
                raise MalformedElement(f"word not freely reduced: {a!r}")

    def _mul(self, a, b):
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def _right_step(self, g):
        if len(g) != 1:
            return super()._right_step(g)
        undo = -g[0]
        return lambda x: x[:-1] if x and x[-1] == undo else x + g

    def _inv(self, a):
        return tuple(-letter for letter in reversed(a))

    def format_element(self, a):
        if not a:
            return "e"
        return ",".join(str(letter) for letter in a)

    def parse_element(self, text):
        text = text.strip()
        if text == "e":
            return ()
        try:
            a = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise MalformedElement(f"bad word {text!r}") from exc
        self.check_element(a)
        return a


class DihedralInfinite(Group):
    """Infinite dihedral group in the normal form a^n x^eps.

    Payloads are pairs ``(n, eps)`` with ``eps`` 0 or 1, multiplied by the
    rule a^n x^e * a^m x^f = a^(n + (-1)^e m) x^(e+f).  The generating set is
    the two involutions x = (0,1) and y = x*a = (-1,1); the Cayley graph on
    them is a bi-infinite path.
    """

    def __init__(self):
        self.descriptor = "dinf"
        self.identity = (0, 0)
        self.generators = ((0, 1), (-1, 1))

    def check_element(self, a):
        if not (
            isinstance(a, tuple)
            and len(a) == 2
            and _check_int(a[0])
            and a[1] in (0, 1)
        ):
            raise MalformedElement(f"not an a^n x^eps form: {a!r}")

    def _mul(self, a, b):
        n, e = a
        m, f = b
        return (n + (m if e == 0 else -m), (e + f) & 1)

    def _right_step(self, g):
        m, f = g
        return lambda x: (x[0] - m if x[1] else x[0] + m, x[1] ^ f)

    def _inv(self, a):
        n, e = a
        return (-n if e == 0 else n, e)

    def format_element(self, a):
        return f"{a[0]},{a[1]}"

    def parse_element(self, text):
        parts = text.strip().split(",")
        if len(parts) != 2:
            raise MalformedElement(f"expected 'n,eps': {text!r}")
        try:
            a = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise MalformedElement(f"bad value in {text!r}") from exc
        self.check_element(a)
        return a


class Heisenberg(Group):
    """Discrete Heisenberg group of upper unitriangular integer matrices.

    Payload ``(a, b, c)`` stands for [[1,a,c],[0,1,b],[0,0,1]]; multiplication
    is (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').  Generators are X=(1,0,0),
    Y=(0,1,0) and their inverses.
    """

    def __init__(self):
        self.descriptor = "heis"
        self.identity = (0, 0, 0)
        self.generators = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def check_element(self, a):
        if not (isinstance(a, tuple) and len(a) == 3 and all(_check_int(c) for c in a)):
            raise MalformedElement(f"not a Heisenberg triple: {a!r}")

    def _mul(self, x, y):
        a, b, c = x
        a2, b2, c2 = y
        return (a + a2, b + b2, c + c2 + a * b2)

    def _right_step(self, g):
        a, b, c = g
        if b == 0 and c == 0:
            return lambda x: (x[0] + a, x[1], x[2])
        if a == 0 and c == 0:
            return lambda x: (x[0], x[1] + b, x[2] + x[0] * b)
        return lambda x: (x[0] + a, x[1] + b, x[2] + c + x[0] * b)

    def _inv(self, x):
        a, b, c = x
        return (-a, -b, a * b - c)

    def format_element(self, a):
        return f"{a[0]},{a[1]},{a[2]}"

    def parse_element(self, text):
        parts = text.strip().split(",")
        if len(parts) != 3:
            raise MalformedElement(f"expected 'a,b,c': {text!r}")
        try:
            a = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise MalformedElement(f"bad value in {text!r}") from exc
        return a


class LamplighterZ2(Group):
    """Lamplighter group Z/2 wr Z with the switch-walk-switch generating set.

    Payload ``(pos, lamps)``: walker position and the frozenset of lit lamp
    positions.  Multiplication shifts the right factor's lamps by the left
    factor's position and takes the symmetric difference.  The 8 generators
    are the products {s,e}*{t,t^-1}*{s,e} minus nothing (all are distinct and
    none is the identity), where s flips the lamp under the walker and t moves
    the walker one step right.
    """

    def __init__(self):
        self.descriptor = "lamplighter"
        self.identity = (0, frozenset())
        s = (0, frozenset({0}))
        t = (1, frozenset())
        tinv = (-1, frozenset())
        # fixed order: t, t^-1, st, st^-1, ts, t^-1 s, sts, st^-1 s
        ordered = [
            self._word(t),
            self._word(tinv),
            self._word(s, t),
            self._word(s, tinv),
            self._word(t, s),
            self._word(tinv, s),
            self._word(s, t, s),
            self._word(s, tinv, s),
        ]
        self.generators = tuple(ordered)

    def _word(self, *factors):
        out = (0, frozenset())
        for f in factors:
            out = self._mul(out, f)
        return out

    def check_element(self, a):
        if not (
            isinstance(a, tuple)
            and len(a) == 2
            and _check_int(a[0])
            and isinstance(a[1], frozenset)
            and all(_check_int(p) for p in a[1])
        ):
            raise MalformedElement(f"not a (position, lampset) pair: {a!r}")

    def _mul(self, a, b):
        p, lamps = a
        q, lamps2 = b
        if lamps2:
            shifted = frozenset(x + p for x in lamps2)
            lamps = lamps ^ shifted
        return (p + q, lamps)

    def _right_step(self, g):
        # frozenset ^ set is a frozenset
        q, lamps = g
        if not lamps:
            return lambda x: (x[0] + q, x[1])
        if len(lamps) == 1:
            (a,) = lamps
            return lambda x: (x[0] + q, x[1] ^ {x[0] + a})
        if len(lamps) == 2:
            a, b = lamps
            return lambda x: (x[0] + q, x[1] ^ {x[0] + a, x[0] + b})
        return lambda x: (x[0] + q, x[1] ^ {x[0] + a for a in lamps})

    def _inv(self, a):
        p, lamps = a
        return (-p, frozenset(x - p for x in lamps))

    def format_element(self, a):
        p, lamps = a
        return f"{p};" + ",".join(str(x) for x in sorted(lamps))

    def parse_element(self, text):
        text = text.strip()
        if ";" not in text:
            raise MalformedElement(f"expected 'pos;l1,l2,...': {text!r}")
        pos_part, lamp_part = text.split(";", 1)
        try:
            pos = int(pos_part)
            lamps = frozenset(int(x) for x in lamp_part.split(",")) if lamp_part else frozenset()
        except ValueError as exc:
            raise MalformedElement(f"bad value in {text!r}") from exc
        if lamp_part and len(lamps) != len(lamp_part.split(",")):
            raise MalformedElement(f"duplicate lamp in {text!r}")
        return (pos, lamps)


_KINDS = {
    "z": lambda params: ZPowerD(params[0]) if len(params) == 1 else None,
    "free": lambda params: FreeGroup(params[0]) if len(params) == 1 else None,
    "dinf": lambda params: DihedralInfinite() if not params else None,
    "heis": lambda params: Heisenberg() if not params else None,
    "lamplighter": lambda params: LamplighterZ2() if not params else None,
}


def make_group(descriptor: str) -> Group:
    """Build a group from its descriptor string (see module docstring)."""
    if not isinstance(descriptor, str):
        raise UnknownKind(f"descriptor must be a string, got {descriptor!r}")
    head, _, tail = descriptor.strip().partition(":")
    head = head.lower()
    if head not in _KINDS:
        raise UnknownKind(f"unknown group kind {head!r}")
    params: tuple = ()
    if tail:
        try:
            params = tuple(int(p) for p in tail.split(":"))
        except ValueError as exc:
            raise InvalidParams(f"bad parameters in {descriptor!r}") from exc
    group = _KINDS[head](params)
    if group is None:
        raise InvalidParams(f"wrong parameter count in {descriptor!r}")
    return group


class GeneratorReport:
    """Result of validating a generating set."""

    __slots__ = ("ok", "size", "problems")

    def __init__(self, ok: bool, size: int, problems: tuple = ()):
        self.ok = ok
        self.size = size
        self.problems = problems


def validate_generators(group: Group) -> GeneratorReport:
    """Check that the generating set is symmetric, identity-free and duplicate-free.

    Problems are reported as ``("not-symmetric", key)``, ``("contains-identity",
    key)`` or ``("duplicate", key)`` tuples rather than raised, so callers can
    show all defects at once.
    """
    problems = []
    seen = set()
    keys = {group.key(g) for g in group.generators}
    for g in group.generators:
        k = group.key(g)
        if k in seen:
            problems.append(("duplicate", k.decode("ascii")))
        seen.add(k)
        if k == group.key(group.identity):
            problems.append(("contains-identity", k.decode("ascii")))
        if group.key(group.inv(g)) not in keys:
            problems.append(("not-symmetric", k.decode("ascii")))
    return GeneratorReport(ok=not problems, size=len(group.generators), problems=tuple(problems))


_PROBLEM_WORDS = {"duplicate": "repeat", "contains-identity": "include the identity",
                  "not-symmetric": "are not symmetric"}


def _check_generators(group: Group) -> None:
    """Raise :class:`InvalidParams` when :func:`validate_generators` finds a
    problem, naming each kind found."""
    found = {kind for kind, _ in validate_generators(group).problems}
    words = [word for kind, word in _PROBLEM_WORDS.items() if kind in found]
    if words:
        raise InvalidParams(f"generators of {group.descriptor} {' and '.join(words)}")
