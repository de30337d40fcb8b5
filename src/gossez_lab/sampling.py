"""Seeded deterministic generators for samples, graphs, and probe grids.

All randomness flows through `random.Random` seeded with a string derived
from (seed, label), so identical arguments reproduce identical objects,
bit for bit.  Magnitude caps keep the exact arithmetic fast.  The
generators that draw for one profile take its ``fitz.OPERATORS`` row and
label their draws with its id.

Draws are ints.  ``_randint`` and ``_draw_fractions`` take ``getrandbits``
as ``Random.randint`` does, and ``_sample_range`` replays
``Random.sample(range(1, n + 1), k)``, whose code is the same in CPython
3.10 to 3.13, without building the range; each consumes the generator's
bits exactly as the stdlib call it replaces, so the report bytes depend on
the seed alone.  Sparse sequences, tails and off-graph deviations are
built from the drawn numerators by the integer constructors
(``SparseSeq._from_ints``, ``TailSeq._from_values`` and
``TailSeq._from_sparse``), never from ``Fraction`` values: an off-graph
point costs O(support) at any window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .fitz import OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND, OPERATORS, Operator
from .gossez import apply_G
from .spaces import DualSystem, ModelMeasure, PairPoint, SparseSeq, TailSeq


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _randint(rng: random.Random, low: int, high: int) -> int:
    """``rng.randint(low, high)`` in one Python call instead of three.

    ``Random.randint(a, b)`` is ``randrange(a, b + 1)``, which returns
    ``a + r`` with ``r = getrandbits(k)`` for ``k`` the bit length of the
    width ``b - a + 1``, redrawn until ``r`` is below the width
    (``Random._randbelow_with_getrandbits``, the same in CPython 3.10 to
    3.13).  Drawing the same way consumes the generator's bits exactly as
    ``randint`` does, so every seed reproduces the same objects and the
    same reports.  This holds for ``random.Random`` itself, whose
    ``_randbelow`` is that method; ``rng_for`` makes only such generators.
    """
    width = high - low + 1
    if width < 1:
        raise ValueError(f"empty range for randint({low}, {high})")
    bits = width.bit_length()
    r = rng.getrandbits(bits)
    while r >= width:
        r = rng.getrandbits(bits)
    return low + r


def random_rational(rng: random.Random, max_num: int = 1000, max_den: int = 1000) -> Fraction:
    (num,), den = _draw_fractions(rng, 1, max_num, max_den)
    return Fraction(num, den)


def _draw_fractions(
    rng: random.Random, count: int, max_num: int, max_den: int, nonzero: bool = False
) -> tuple[list[int], int]:
    """``count`` rationals drawn as ints: their numerators over the lcm of
    the drawn denominators, and that lcm.

    Each value takes the bits that ``Fraction(randint(-max_num, max_num),
    randint(1, max_den))`` takes, drawn inline under ``_randint``'s
    contract: a numerator redrawn while it is out of range or, for
    ``nonzero``, zero (``random_rational`` calls ``randint`` anew), then a
    denominator.  The denominator is common but not least; the kernels'
    constructors reduce it.
    """
    width = 2 * max_num + 1
    if width < 1 or max_den < 1:
        raise ValueError(f"empty range for a rational with |p| <= {max_num}, 1 <= q <= {max_den}")
    getrandbits = rng.getrandbits
    num_bits, den_bits = width.bit_length(), max_den.bit_length()
    zero = max_num if nonzero else -1  # the draw of a zero numerator, when redrawn
    nums, dens = [], []
    for _ in range(count):
        r = getrandbits(num_bits)
        while r >= width or r == zero:
            r = getrandbits(num_bits)
        q = getrandbits(den_bits)
        while q >= max_den:
            q = getrandbits(den_bits)
        nums.append(r - max_num)
        dens.append(q + 1)
    den = math.lcm(*dens)
    return [n * (den // q) for n, q in zip(nums, dens)], den


def _sample_range(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(1, n + 1), k)``, drawn as ints without the range.

    A replica of ``random.Random.sample`` on a range population, whose code
    is the same in CPython 3.10 to 3.13: a pool of n values when n is at
    most ``setsize`` (a set of k selections would be larger), else a set of
    the selected positions, redrawn on a repeat.  Each position is one
    ``_randbelow``, drawn as ``_randint`` draws; the same bits are consumed
    and the same values returned in the same order, and the set branch
    never builds the population.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(range(1, n + 1))
        for left in range(n, n - k, -1):
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[left - 1]
        return result
    bits = n.bit_length()
    selected: set[int] = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(j + 1)
    return result


def random_sparse(
    rng: random.Random,
    max_index: int = 64,
    max_support: int = 8,
    max_num: int = 1000,
    max_den: int = 1000,
) -> SparseSeq:
    k = _randint(rng, 1, min(max_support, max_index))
    indices = sorted(_sample_range(rng, max_index, k))
    # One nonzero p/q per index; _from_ints reduces to the least denominator.
    nums, den = _draw_fractions(rng, k, max_num, max_den, nonzero=True)
    return SparseSeq._from_ints(tuple(indices), tuple(nums), den)


def _tail_seq(head: tuple[list[int], int], tail: tuple[list[int], int]) -> TailSeq:
    """``TailSeq(head, tail)`` of drawn (numerators, denominator) pairs."""
    (head_nums, head_den), (pattern, pattern_den) = head, tail
    den = math.lcm(head_den, pattern_den)
    head_f, pattern_f = den // head_den, den // pattern_den
    return TailSeq._from_values([v * head_f for v in head_nums], [v * pattern_f for v in pattern], den)


def random_tail(
    rng: random.Random, max_head: int = 4, max_num: int = 100, max_den: int = 100
) -> TailSeq:
    head = _draw_fractions(rng, _randint(rng, 0, max_head), max_num, max_den)
    period = 1 if rng.random() < 0.5 else _randint(rng, 2, 3)
    return _tail_seq(head, _draw_fractions(rng, period, max_num, max_den))


def random_constant_tail(
    rng: random.Random, max_head: int = 4, max_num: int = 100, max_den: int = 100
) -> TailSeq:
    head = _draw_fractions(rng, _randint(rng, 0, max_head), max_num, max_den)
    return _tail_seq(head, _draw_fractions(rng, 1, max_num, max_den))


def random_measure(
    rng: random.Random,
    max_index: int = 32,
    max_support: int = 6,
    max_num: int = 100,
    max_den: int = 100,
) -> ModelMeasure:
    """Atoms drawn by ``random_sparse``, then a mass at infinity that may be zero."""
    atomic = random_sparse(rng, max_index, max_support, max_num, max_den)
    return ModelMeasure(atomic, random_rational(rng, max_num, max_den))


graph_point_first = OPERATORS[OP_G_FIRST].graph_point
# Canonical embedding of a first-system graph point of G.
embed_first = OPERATORS[OP_G_SECOND].graph_point


def unit_graph_points(n: int) -> list[PairPoint]:
    return [graph_point_first(SparseSeq.unit(k)) for k in range(1, n + 1)]


def off_graph_first(
    rng: random.Random,
    count: int,
    max_index: int = 32,
    max_num: int = 10,
    max_den: int = 10,
) -> list[PairPoint]:
    """Points (x, Gx + d) with a nonzero head deviation inside the window.

    The deviation is supported on indices 1..max_index with zero tail, so
    any sample set containing the unit graph points up to max_index can
    detect and refute it.  ``TailSeq._from_sparse`` builds it, so a point
    costs O(support) at any window.
    """
    points = []
    for _ in range(count):
        x = random_sparse(rng, max_index, 6, max_num, max_den)
        dev_index = _randint(rng, 1, max_index)
        (p,), q = _draw_fractions(rng, 1, max_num, max_den, nonzero=True)
        extra = random_sparse(rng, max_index, 3, max_num, max_den)
        # Numerators over q * extra.den, by index.
        values = {dev_index: p * extra.den}
        for n, num in zip(extra.indices, extra.nums):
            if n != dev_index and rng.random() < 0.5:
                values[n] = num * q
        support = sorted(values)
        deviation = TailSeq._from_sparse(support, [values[n] for n in support], q * extra.den)
        points.append(PairPoint.first(x, apply_G(x) + deviation))
    return points


@dataclass(frozen=True)
class ProbeSet:
    """A reproducible finite set of pair points.

    `ProbeSet.generate` rebuilds the identical set from the same arguments.
    Every generated point is evaluable in the model (measures with mass at
    infinity only meet convergent sequences).
    """

    points: tuple[PairPoint, ...]

    @staticmethod
    def generate(op: Operator, seed: int, truncation: int, count: int) -> ProbeSet:
        rng = rng_for(seed, f"probes:{op.id}:{truncation}:{count}")
        grid = _first_system_grid if op.system is DualSystem.FIRST else _second_system_grid
        return ProbeSet(tuple(grid(rng, truncation, count)))


def _first_system_grid(rng: random.Random, truncation: int, count: int) -> list[PairPoint]:
    points: list[PairPoint] = [PairPoint.zero(DualSystem.FIRST)]
    while len(points) < count:
        x = random_sparse(rng, truncation, 6, 50, 50)
        roll = rng.random()
        if roll < 1 / 3:
            points.append(graph_point_first(x))
        elif roll < 2 / 3:
            points.extend(off_graph_first(rng, 1, truncation))
        else:
            points.append(PairPoint.first(x, random_tail(rng)))
    return points[:count]


def _second_system_grid(rng: random.Random, truncation: int, count: int) -> list[PairPoint]:
    # The canonical unit-mass point of Graph(-G*) comes first: it is the
    # standard witness against the negative-infimum property of G here.
    points: list[PairPoint] = [
        PairPoint.second(ModelMeasure(SparseSeq.zero(), Fraction(1)), TailSeq.ones()),
        PairPoint.zero(DualSystem.SECOND),
    ]
    while len(points) < count:
        roll = rng.random()
        mu = random_measure(rng, truncation, 5, 50, 50)
        if roll < 0.25:
            points.append(embed_first(mu.atomic))
        elif roll < 0.75:
            massive = mu if mu.infinity_mass != 0 else ModelMeasure(mu.atomic, Fraction(1))
            op_id = OP_G_SECOND if roll < 0.5 else OP_NEGG_SECOND
            points.append(OPERATORS[op_id].fitz_point(massive))
        else:
            y = random_constant_tail(rng) if mu.infinity_mass != 0 else random_tail(rng)
            points.append(PairPoint.second(mu, y))
    return points[:count]


def fitz_graph_samples(op: Operator, seed: int, count: int, truncation: int = 32) -> list[PairPoint]:
    """Points (mu, fitz_y(mu)) of the Fitzpatrick graph of G-second or negG-second."""
    # The generator labels fix the samples, and with them the report bytes.
    label = {OP_G_SECOND: "negGstar", OP_NEGG_SECOND: "Gstar"}[op.id]
    rng = rng_for(seed, f"{label}:{truncation}:{count}")
    return [op.fitz_point(random_measure(rng, truncation, 5, 50, 50)) for _ in range(count)]
