"""Reference mathematics computed apart from gossez-lab.

Every check in the benchmark compares the program's output with values
computed here, from the definitions, over plain Python data: a sparse
sequence is a sorted list of ``(index, Fraction)`` pairs and a bounded
sequence is read from the ``head``/``tail`` tuples of a program value
without calling any of its methods.  Nothing here imports gossez_lab.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

Entries = list[tuple[int, Fraction]]

# A Mersenne prime: rank over Q is at least the rank of the reduction mod P,
# so full rank mod P proves linear independence over the rationals.
PRIME = 2**61 - 1


def random_value(rng: random.Random) -> Fraction:
    """A nonzero rational whose denominator is a power of two up to 2**9."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), 2 ** rng.randint(0, 9))


def stratified_sparse(rng: random.Random, top: int, size: int = 8) -> Entries:
    """``size`` entries, one per equal slice of 1..top, the last at ``top``.

    One index per slice keeps the shape of the support alike across seeds.
    The first value has denominator exactly 2**10 and the others at most
    2**9, so every entry of G x but one has denominator 2**10: the cost and
    the memory of each stored value are alike across seeds too.
    """
    indices = [rng.randint(i * top // size + 1, (i + 1) * top // size) for i in range(size - 1)]
    first = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 1024, 2), 1024)
    values = [first] + [random_value(rng) for _ in range(size - 1)]
    return list(zip(indices + [top], values))


def random_sparse(rng: random.Random, top: int, size: int) -> Entries:
    """``size`` entries at distinct random indices in 1..top."""
    return [(n, random_value(rng)) for n in sorted(rng.sample(range(1, top + 1), size))]


def g_value(x: Entries, n: int) -> Fraction:
    """(Gx)_n = -(sum of x_k for k < n) + (sum of x_k for k > n), literally."""
    below = sum((v for k, v in x if k < n), Fraction(0))
    above = sum((v for k, v in x if k > n), Fraction(0))
    return above - below


def g_limit(x: Entries) -> Fraction:
    """lim_n (Gx)_n = -(sum of x)."""
    return -sum((v for _, v in x), Fraction(0))


def g_head(x: Entries) -> list[Fraction]:
    """(Gx)_1 .. (Gx)_top as a list.

    G x is constant between support points, so the value is computed once
    per support point and once per gap and repeated across the gap.
    """
    head: list[Fraction] = []
    previous = 0
    for k, _ in x:
        if k > previous + 1:
            head.extend([g_value(x, previous + 1)] * (k - previous - 1))
        head.append(g_value(x, k))
        previous = k
    return head


class Data(NamedTuple):
    """A head-plus-periodic-tail sequence held as plain tuples."""

    head: tuple
    tail: tuple


def seq_value(y, n: int) -> Fraction:
    """Entry n of a head-plus-periodic-tail value, read from its data."""
    head, tail = y.head, y.tail
    if n <= len(head):
        return head[n - 1]
    return tail[(n - len(head) - 1) % len(tail)]


def pair(x: Entries, value_at) -> Fraction:
    """sum_n x_n * value_at(n) over the support of x."""
    return sum((v * value_at(n) for n, v in x), Fraction(0))


def linf_of_g(x: Entries) -> Fraction:
    """sup_n |(Gx)_n|, over the values G x takes.

    G x takes finitely many values: one per support point, one per gap
    between support points, and its limit.
    """
    indices = {1} | {n for n, _ in x} | {n + 1 for n, _ in x}
    return max(abs(v) for v in [g_value(x, n) for n in indices] + [g_limit(x)])


def to_mod_p(value: Fraction) -> int:
    if value.denominator % PRIME == 0:
        raise ZeroDivisionError("denominator divisible by the reduction prime")
    return value.numerator * pow(value.denominator, -1, PRIME) % PRIME


def rank_mod_p(rows: list[list[Fraction]]) -> int:
    """Rank of the rows reduced modulo PRIME, by Gaussian elimination."""
    pending = [[to_mod_p(v) for v in row] for row in rows]
    rank = 0
    ncols = len(pending[0]) if pending else 0
    for col in range(ncols):
        at = next((i for i, r in enumerate(pending) if r[col]), None)
        if at is None:
            continue
        pivot = pending.pop(at)
        inv = pow(pivot[col], -1, PRIME)
        pivot = [v * inv % PRIME for v in pivot]
        pending = [
            [(a - r[col] * b) % PRIME for a, b in zip(r, pivot)] if r[col] else r
            for r in pending
        ]
        rank += 1
    return rank
