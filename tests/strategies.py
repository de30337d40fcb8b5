"""Shared hypothesis strategies and small builders for the test suite."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from gossez_lab.fitz import OPERATORS
from gossez_lab.props import ni_witness_search
from gossez_lab.sampling import graph_point_first, random_sparse
from gossez_lab.spaces import ModelMeasure, PairPoint, SparseSeq, TailSeq


def rationals(max_num: int = 50, max_den: int = 20):
    return st.builds(Fraction, st.integers(-max_num, max_num), st.integers(1, max_den))


def nonzero_rationals(max_num: int = 50, max_den: int = 20):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num).filter(lambda n: n != 0),
        st.integers(1, max_den),
    )


# Distinct primes just below 10**12: values over them are pairwise coprime,
# so every common denominator is a product and the lcm paths are exercised.
LARGE_PRIMES = (999999999989, 999999999961, 999999999959, 999999999937, 999999999899)


def wide_rationals():
    """Numerators up to 10**15, denominators up to 10**12, often coprime."""
    dens = st.one_of(st.sampled_from(LARGE_PRIMES), st.integers(1, 10**12))
    return st.builds(Fraction, st.integers(-(10**15), 10**15), dens)


def sparse_seqs(max_index: int = 20, max_size: int = 6, values=None):
    values = nonzero_rationals() if values is None else values.filter(bool)
    return st.dictionaries(st.integers(1, max_index), values, max_size=max_size).map(
        lambda d: SparseSeq.from_pairs(d.items())
    )


def tail_seqs(max_head: int = 4, values=None):
    values = rationals() if values is None else values
    heads = st.lists(values, max_size=max_head)
    tails = st.lists(values, min_size=1, max_size=3)
    return st.builds(lambda h, t: TailSeq(tuple(h), tuple(t)), heads, tails)


FAR = 10**5


@st.composite
def far_sparse_seqs(draw, top: int = FAR, values=None):
    """Scattered points up to ``top`` plus a block of adjacent ones."""
    values = nonzero_rationals() if values is None else values.filter(bool)
    pairs = draw(st.dictionaries(st.integers(1, top), values, max_size=4))
    start = draw(st.integers(1, top - 4))
    for offset, v in enumerate(draw(st.lists(values, max_size=4))):
        pairs[start + offset] = v
    return SparseSeq.from_pairs(pairs.items())


@st.composite
def run_tail_seqs(draw, values=None):
    """Heads made of runs that share one object, as G images have."""
    values = rationals() if values is None else values
    runs = draw(st.lists(st.tuples(values, st.integers(1, 5)), max_size=4))
    head = [v for v, length in runs for _ in range(length)]
    return TailSeq(tuple(head), tuple(draw(st.lists(values, min_size=1, max_size=3))))


def constant_tail_seqs(max_head: int = 4):
    heads = st.lists(rationals(), max_size=max_head)
    return st.builds(lambda h, c: TailSeq.constant(c, h), heads, rationals())


def model_measures(max_index: int = 12):
    return st.builds(ModelMeasure, sparse_seqs(max_index, 4), rationals())


def seq(*values) -> SparseSeq:
    """Sequence from consecutive values at indices 1, 2, ..."""
    return SparseSeq.from_values([Fraction(v) for v in values])


def random_graph_points(
    rng: random.Random,
    count: int,
    max_index: int = 64,
    max_support: int = 8,
    max_num: int = 100,
    max_den: int = 100,
) -> list[PairPoint]:
    """``count`` seeded first-system graph points (x, Gx) of random sparse x."""
    return [
        graph_point_first(random_sparse(rng, max_index, max_support, max_num, max_den))
        for _ in range(count)
    ]


def ni_search(op_id: str, probes):
    """``ni_witness_search`` over the row's own values, evaluated lazily."""
    return ni_witness_search(probes, map(OPERATORS[op_id].evaluate, probes.points))
