"""Independent oracles for the benchmark's output checks.

Everything here is computed without the library's engines: counts from the
literature, closed forms and recursions, and direct recounts that use only
the public group operations ``mul`` and ``inv``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

# OEIS A001168, fixed polyominoes with n cells (index n; n = 0 unused).
A001168 = (0, 1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446, 135268, 505861)


def z2_connected_counts(k: int) -> list:
    """Connected sets of size n containing the origin in Z^2: n * A001168(n).

    A fixed polyomino of n cells contains the origin in exactly n of its
    translates.
    """
    if k >= len(A001168):
        raise ValueError(f"A001168 is tabulated up to n = {len(A001168) - 1}")
    return [0] + [n * A001168[n] for n in range(1, k + 1)]


def _series_mul(a: list, b: list, k: int) -> list:
    out = [0] * (k + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(k + 1 - i):
                out[i + j] += x * b[j]
    return out


def _series_pow(a: list, e: int, k: int) -> list:
    out = [1] + [0] * k
    for _ in range(e):
        out = _series_mul(out, a, k)
    return out


def free2_connected_counts(k: int) -> list:
    """Subtrees of the 4-regular tree containing a fixed vertex, by size.

    Coefficients of T = x (1 + U)^4 where U = x (1 + U)^3 counts the subtrees
    hanging below one edge.
    """
    x = [0, 1] + [0] * (k - 1)
    u = [0] * (k + 1)
    for _ in range(k):
        u = _series_mul(x, _series_pow([1 + u[0]] + u[1:], 3, k), k)
    t = _series_mul(x, _series_pow([1 + u[0]] + u[1:], 4, k), k)
    return t[: k + 1]


def ball_sizes(descriptor: str, radius: int):
    """Closed-form |B(r)| for r = 0..radius, or None when no closed form is
    known here (heis, lamplighter)."""
    head, _, tail = descriptor.partition(":")
    if head == "z":
        d = int(tail)
        return [sum(2 ** j * comb(d, j) * comb(r, j) for j in range(min(d, r) + 1))
                for r in range(radius + 1)]
    if head == "free":
        k = 2 * int(tail)
        # 1 + k (1 + (k-1) + ... + (k-1)^(r-1))
        return [1 + k * sum((k - 1) ** j for j in range(r)) for r in range(radius + 1)]
    if head == "dinf":
        return [2 * r + 1 for r in range(radius + 1)]
    return None


def translate_pair_count(group, omega: frozenset, ball) -> int:
    """Sum over g in the ball of |W| - |W cap W g^-1|.

    Counts the pairs (x, g) with x g outside W by the opposite index order to
    the ledger: it translates the whole set by g^-1 instead of each point by g.
    """
    total = 0
    size = len(omega)
    for g in ball:
        ginv = group.inv(g)
        total += size - sum(1 for y in omega if group.mul(y, ginv) in omega)
    return total


def inner_boundary_size(group, omega: frozenset) -> int:
    """Elements of W with a right generator-neighbour outside W."""
    return sum(1 for x in omega
               if any(group.mul(x, s) not in omega for s in group.generators))


@lru_cache(maxsize=None)  # a few hundred (group, form, size) keys per pass
def inequality_rhs(descriptor: str, form: str, size: int, alpha=None, eps=None) -> Fraction:
    """Right-hand side of an inequality form, from the closed-form ball sizes.

    Follows the definitions of the five forms (with Phi(v) the least r such
    that |B(r)| > v) for a group with a closed form and an infinite ball.
    """
    if form in ("csc-original", "pete-correia"):
        volume = 2 * size
    elif form in ("avg-growth", "growth-cor"):
        volume = (1 + alpha) * size
    else:
        volume = Fraction(size) / eps
    r = 0
    while ball_sizes(descriptor, r)[-1] <= volume:
        r += 1
    b = ball_sizes(descriptor, r)
    if form == "csc-original":
        degree = b[1] - 1
        return Fraction(1, 4 * degree * r)
    if form == "pete-correia":
        return Fraction(1, 2 * r)
    if form == "epsilon":
        return (1 - eps) / r
    front = alpha / (1 + alpha) * Fraction(b[r - 1], b[r])
    if form == "growth-cor":
        return front / r
    length_sum = sum(j * (b[j] - b[j - 1]) for j in range(1, r + 1))
    return front / Fraction(length_sum, b[r])
