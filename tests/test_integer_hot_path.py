"""Integer draws, convergent-tail kernels and the integer pair kernel.

The sampling generators draw ints inline and replay ``Random.sample`` on a
range; they must return what the former ``Fraction``-building generators
in ``dense_reference`` return and leave the generator in the same state.
The one-value-tail canonicalization and ``_combine``, the one merge of
every sum, must agree with the dense trim and combine and with the
general canonicalization.
``natural_couple_terms`` is ``natural_couple`` before normalisation, and
each reader of it must report what the ``Fraction`` kernels reported.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab.fitz import (
    OP_G_FIRST,
    OP_G_SECOND,
    OPERATORS,
    SampledGraph,
    annihilator_violation,
    fitz_sampled,
    orthogonality_report,
)
from gossez_lab.props import is_monotone
from gossez_lab.sampling import (
    _sample_range,
    off_graph_first,
    random_constant_tail,
    random_rational,
    random_sparse,
    random_tail,
    rng_for,
)
from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    OutsideModelDomain,
    PairPoint,
    SparseSeq,
    SystemMismatchError,
    TailSeq,
    natural_couple,
    natural_couple_terms,
)
from gossez_lab.verdict import REFUTED, VERIFIED

from strategies import (
    constant_tail_seqs,
    model_measures,
    rationals,
    sparse_seqs,
    tail_seqs,
    wide_rationals,
)

F = Fraction
seeds = st.integers(0, 2**64)
# Random.sample keeps a pool of the population when n <= setsize and a set
# of selections otherwise; setsize is 21 for k <= 5 and 85 for 6 <= k <= 21.
windows = st.one_of(st.integers(1, 22), st.sampled_from([63, 64, 65, 84, 85, 86, 10**6]))


def fields(y: TailSeq) -> tuple:
    return y.run_ends, y.run_nums, y.tail_nums, y.den


def twins(seed) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


# ------------------------------------------------ Random.sample on a range


@given(seeds, windows, st.data())
def test_sample_range_is_random_sample(seed, n, data):
    k = data.draw(st.integers(0, min(n, 30)))
    ours, theirs = twins(seed)
    assert _sample_range(ours, n, k) == theirs.sample(range(1, n + 1), k)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize(
    "n, k",
    [
        (1, 1), (21, 5), (22, 5), (21, 21), (64, 3), (64, 8),
        (85, 6), (86, 6), (85, 21), (10**6, 5), (10**6, 8),
    ],
)
def test_sample_range_on_both_sides_of_the_set_switch(n, k):
    for seed in range(200):
        ours, theirs = twins(f"sample:{seed}")
        assert _sample_range(ours, n, k) == theirs.sample(range(1, n + 1), k)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n, k", [(3, 4), (0, 1), (5, -1)])
def test_sample_range_rejects_what_random_sample_rejects(n, k):
    with pytest.raises(ValueError):
        random.Random(0).sample(range(1, n + 1), k)
    with pytest.raises(ValueError):
        _sample_range(random.Random(0), n, k)


# ------------------------------------------------ generators against the oracles


@given(seeds, windows, st.integers(1, 12), st.integers(1, 1000), st.integers(1, 1000))
def test_random_sparse_draws_as_the_fraction_sampler(seed, max_index, support, max_num, max_den):
    ours, theirs = twins(seed)
    for _ in range(3):
        x = random_sparse(ours, max_index, support, max_num, max_den)
        expected = ref.random_sparse(theirs, max_index, support, max_num, max_den)
        assert x == expected and x.entries == expected.entries
    assert ours.getstate() == theirs.getstate()


@given(seeds, st.integers(0, 6), st.integers(0, 100), st.integers(1, 100))
def test_random_tails_draw_as_the_fraction_sampler(seed, max_head, max_num, max_den):
    ours, theirs = twins(seed)
    for _ in range(3):
        y = random_tail(ours, max_head, max_num, max_den)
        assert fields(y) == fields(ref.random_tail(theirs, max_head, max_num, max_den))
        c = random_constant_tail(ours, max_head, max_num, max_den)
        assert fields(c) == fields(ref.random_constant_tail(theirs, max_head, max_num, max_den))
        assert c.is_convergent()
        value = random_rational(ours, max_num, max_den)
        assert value == ref.random_rational(theirs, max_num, max_den)
    assert ours.getstate() == theirs.getstate()


@settings(deadline=None)
@given(seeds, st.one_of(windows.filter(lambda n: n < 10**6), st.just(4096)), st.integers(1, 4))
def test_off_graph_first_draws_as_the_dense_deviation(seed, max_index, count):
    ours, theirs = twins(seed)
    points = off_graph_first(ours, count, max_index)
    expected = ref.off_graph_first(theirs, count, max_index)
    assert points == expected
    assert [fields(z.y) for z in points] == [fields(z.y) for z in expected]
    assert ours.getstate() == theirs.getstate()


def test_generators_replay_from_seeded_labels():
    ours, theirs = rng_for(7, "probes"), rng_for(7, "probes")
    assert off_graph_first(ours, 40, 64) == ref.off_graph_first(theirs, 40, 64)
    assert [random_tail(ours) for _ in range(40)] == [ref.random_tail(theirs) for _ in range(40)]
    assert ours.getstate() == theirs.getstate()


def test_off_graph_deviation_is_support_sized_at_a_wide_window():
    (z,) = off_graph_first(random.Random(1), 1, 10**9)
    deviation = z.y - OPERATORS[OP_G_FIRST].fitz_y(z.x)
    assert deviation.is_convergent() and deviation.limit() == 0
    assert 1 <= len(deviation.run_ends) <= 7  # up to 3 values and their gaps


# ------------------------------------------------ one-value tails


@st.composite
def integer_runs(draw):
    """(ends, nums, tail value, den): runs with unequal neighbours."""
    small = st.integers(-4, 4)
    ends, nums, end = [], [], 0
    for length, v in draw(st.lists(st.tuples(st.integers(1, 4), small), max_size=5)):
        if nums and nums[-1] == v:
            continue
        end += length
        ends.append(end)
        nums.append(v)
    return tuple(ends), tuple(nums), draw(small), draw(st.sampled_from([1, 2, 3, 4, 6, 12]))


@given(integer_runs())
def test_one_value_tail_canonicalization_matches_the_dense_trim(runs):
    ends, nums, t, den = runs
    y = TailSeq._from_runs(ends, nums, (t,), den)
    dense_head = [F(v, den) for v in _expand(ends, nums)]
    assert (y.head, y.tail) == ref.canonical(dense_head, (F(t, den),))
    # A doubled pattern takes the general path, to the same fields.
    assert fields(TailSeq._from_runs(ends, nums, (t, t), den)) == fields(y)
    assert math.gcd(y.den, *y.run_nums, *y.tail_nums) == 1


def _expand(ends, nums):
    dense, start = [], 0
    for end, v in zip(ends, nums):
        dense += [v] * (end - start)
        start = end
    return dense


@pytest.mark.parametrize(
    "runs, expected",
    [
        # The last run equals the tail and is absorbed.
        (((2, 5), (3, 7), (7,), 1), ((2,), (3,), (7,), 1)),
        (((4,), (7,), (7,), 1), ((), (), (7,), 1)),
        # gcd reduction over runs, tail and den.
        (((1, 3), (2, 4), (6,), 4), ((1, 3), (1, 2), (3,), 2)),
        # Both: absorb, then reduce over what is left.
        (((1, 3), (2, 6), (6,), 4), ((1,), (1,), (3,), 2)),
        (((), (), (0,), 5), ((), (), (0,), 1)),
    ],
)
def test_one_value_tail_examples(runs, expected):
    assert fields(TailSeq._from_runs(*runs)) == expected


# ------------------------------------------------ the one merge

convergent = st.one_of(
    constant_tail_seqs(),
    st.builds(
        lambda h, c: TailSeq.constant(c, h),
        st.lists(wide_rationals(), max_size=4),
        wide_rationals(),
    ),
)


@given(convergent, convergent)
def test_convergent_combine_matches_the_dense_combine(a, b):
    for op, result in ((lambda u, v: u + v, a + b), (lambda u, v: u - v, a - b)):
        assert (result.head, result.tail) == ref.combine((a.head, a.tail), (b.head, b.tail), op)
        assert fields(result) == fields(TailSeq(result.head, result.tail))


def test_convergent_combine_examples():
    a = TailSeq.constant(1, [F(1, 2), F(1, 3)])
    b = TailSeq.constant(2, [F(-1, 2), F(-1, 3)])
    assert fields(a + b) == ((2,), (0,), (3,), 1)  # the heads cancel to one zero run
    assert fields(a - a) == ((), (), (0,), 1)
    c = TailSeq.constant(0, [1, 2])
    d = TailSeq.constant(2, [1, 0])
    assert fields(c + d) == ((), (), (2,), 1)  # every run equals the tail
    e = TailSeq.constant(0, [3, 1, 2])
    # Heads of different lengths: the shorter one reads its tail past its end.
    assert fields(c + e) == ((1, 2, 3), (4, 3, 2), (0,), 1) == fields(TailSeq((4, 3, 2), (0,)))
    sixth = TailSeq((F(1, 6), F(1, 3)), (F(1, 2),))
    rest = TailSeq((F(5, 6), F(2, 3)), (F(1, 2),))
    assert fields(sixth + rest) == ((), (), (1,), 1)  # gcd reduction to den 1


@given(st.one_of(convergent, tail_seqs()), tail_seqs(values=rationals()))
def test_sums_of_constant_and_periodic_tails_match_the_dense_combine(a, b):
    expected = ref.combine((a.head, a.tail), (b.head, b.tail), lambda u, v: u + v)
    assert ((a + b).head, (a + b).tail) == expected


def test_mixed_periodic_and_constant_operands_match_the_dense_combine():
    periodic = TailSeq.periodic([1, -1], [F(1, 2)])
    constant = TailSeq.constant(F(1, 3), [2, 2, 5])
    for a, b in ((periodic, constant), (constant, periodic)):
        result = a - b
        assert not result.is_convergent()
        expected = ref.combine((a.head, a.tail), (b.head, b.tail), lambda u, v: u - v)
        assert (result.head, result.tail) == expected


@pytest.mark.parametrize(
    "a, b",
    [
        # A constant tail plus a periodic one, either head the longer.
        (TailSeq.constant(F(1, 2), [3, 1, 4, 1]), TailSeq.periodic([0, 1, 2], [5])),
        (TailSeq.constant(-1), TailSeq.periodic([F(1, 3), F(2, 3)], [1, 2, 3])),
        # Periods 2 and 3 under heads of unequal length: a common period of 6.
        (TailSeq.periodic([1, 2], [7]), TailSeq.periodic([F(1, 5), 0, 3], [1, 1, 2, 9])),
        (TailSeq.periodic([F(-1, 2), 4], [1, 2, 3, 4, 5]), TailSeq.periodic([1, 0, 0], [])),
    ],
)
def test_mixed_tails_match_the_dense_combine(a, b):
    for op, result in ((lambda u, v: u + v, a + b), (lambda u, v: u - v, a - b)):
        assert (result.head, result.tail) == ref.combine((a.head, a.tail), (b.head, b.tail), op)
        assert fields(result) == fields(TailSeq(result.head, result.tail))


@pytest.mark.parametrize(
    "y",
    [
        TailSeq.constant(F(1, 3), [2, 2, 5]),
        TailSeq.periodic([1, -1], [F(1, 2)]),
        TailSeq.periodic([F(1, 2), 1, 2], [9, 9, 0, 4]),
    ],
)
def test_sums_that_cancel_are_the_zero_sequence(y):
    assert fields(y - y) == fields(y + (-y)) == fields(TailSeq.zero()) == ((), (), (0,), 1)
    # Heads of unequal length and periods 2 and 3 whose sum is zero.
    a = TailSeq.periodic([1, -1, 1, -1, 1, -1], [3])
    b = TailSeq.periodic([-1, 1], [-3, -1, 1])
    assert fields(a + b) == ((), (), (0,), 1)
    assert fields((a + y) + (b - y)) == ((), (), (0,), 1)


# ------------------------------------------------ the integer pair kernel

first_points = st.builds(PairPoint.first, sparse_seqs(), tail_seqs())
second_points = st.builds(
    PairPoint.second,
    model_measures(),
    st.one_of(tail_seqs(), constant_tail_seqs()),
)


def dense_coupling(x, y):
    """c(x, y) from dense values; x a SparseSeq or a ModelMeasure."""
    if isinstance(x, SparseSeq):
        return ref.couple(dict(x.entries), (y.head, y.tail))
    value = ref.couple(dict(x.atomic.entries), (y.head, y.tail))
    if x.infinity_mass:
        if y.limit() is None:
            raise OutsideModelDomain("no limit")
        value += x.infinity_mass * y.limit()
    return value


@given(st.one_of(st.tuples(first_points, first_points), st.tuples(second_points, second_points)))
def test_natural_couple_terms_are_natural_couple_unnormalised(pair):
    z, w = pair
    try:
        expected = dense_coupling(z.x, w.y) + dense_coupling(w.x, z.y)
    except OutsideModelDomain:
        with pytest.raises(OutsideModelDomain):
            natural_couple_terms(z, w)
        with pytest.raises(OutsideModelDomain):
            natural_couple(z, w)
        return
    num, den = natural_couple_terms(z, w)
    assert type(num) is int and type(den) is int and den > 0
    assert F(num, den) == expected == natural_couple(z, w)


def test_natural_couple_terms_leave_the_model_with_natural_couple():
    mass = PairPoint.second(ModelMeasure(SparseSeq.zero(), F(1)), TailSeq.ones())
    oscillating = PairPoint.second(ModelMeasure.zero(), TailSeq.periodic([1, -1]))
    for z, w in ((mass, oscillating), (oscillating, mass)):
        with pytest.raises(OutsideModelDomain):
            natural_couple_terms(z, w)
        with pytest.raises(OutsideModelDomain):
            natural_couple(z, w)
    with pytest.raises(SystemMismatchError):
        natural_couple_terms(PairPoint.zero(DualSystem.FIRST), mass)


def random_first_points(rng, count):
    return [
        PairPoint.first(random_sparse(rng, 16, 4, 20, 20), random_tail(rng)) for _ in range(count)
    ]


@given(seeds)
def test_fitz_sampled_matches_the_fraction_max(seed):
    rng = random.Random(seed)
    graph = OPERATORS[OP_G_FIRST].sampled_graph(random_sparse(rng, 16, 4, 20, 20) for _ in range(6))
    mixed = SampledGraph(DualSystem.FIRST, tuple(random_first_points(rng, 6)))
    for z in random_first_points(rng, 4) + list(graph.points[:2]):
        for sample in (graph, mixed, SampledGraph(DualSystem.FIRST, ())):
            assert fitz_sampled(z, sample) == ref.fitz_sampled_fractions(z, sample)


def test_fitz_sampled_raises_where_a_coupling_leaves_the_model():
    g_second = OPERATORS[OP_G_SECOND]
    outside = PairPoint.second(ModelMeasure(SparseSeq.zero(), F(1)), TailSeq.periodic([1, -1]))
    graph = SampledGraph(DualSystem.SECOND, (g_second.graph_point(SparseSeq.unit(1)), outside))
    assert graph.couplings[1] is None
    with pytest.raises(OutsideModelDomain):
        fitz_sampled(PairPoint.zero(DualSystem.SECOND), graph)


@given(seeds)
def test_is_monotone_reports_the_fraction_values(seed):
    rng = random.Random(seed)
    points = random_first_points(rng, 5)
    graph = SampledGraph(DualSystem.FIRST, tuple(points))
    verdict = is_monotone(graph)
    couplings, cross = ref.plane_terms(graph.points)
    position, checked, skipped = ref.monotone_exact(couplings, cross)
    assert verdict.stats == {"pairs_checked": checked, "skipped": skipped}
    if position is None:
        assert verdict.status == VERIFIED
        return
    i, j = position
    zw, cw = (0, 0) if j is None else (cross[i][j], couplings[j])
    witness = verdict.witnesses[0]
    t, value = witness["scale"], witness["value"]
    assert verdict.status == REFUTED and witness["z"] == graph.points[i]
    assert value == couplings[i] - t * zw + t * t * cw < 0
    assert type(t) is Fraction and type(value) is Fraction


def test_is_monotone_minimum_on_a_graph():
    # G is skew: c vanishes on every plane two graph points span, so its
    # minimum there is 0 and every pair is decided.
    rng = random.Random(3)
    graph = OPERATORS[OP_G_FIRST].sampled_graph(random_sparse(rng, 16, 4, 20, 20) for _ in range(8))
    verdict = is_monotone(graph)
    assert verdict.status == VERIFIED
    assert verdict.stats == {"pairs_checked": 28, "skipped": 0}
    couplings, cross = ref.plane_terms(graph.points)
    assert ref.monotone_exact(couplings, cross) == (None, 28, 0)
    assert set(couplings) == {0} and {v for row in cross for v in row} == {0}


@given(seeds)
def test_pairing_readers_report_natural_couple(seed):
    rng = random.Random(seed)
    spanning = random_first_points(rng, 4)
    z = random_first_points(rng, 1)[0]
    violation = annihilator_violation(z, spanning)
    nonzero = [(w, natural_couple(z, w)) for w in spanning if natural_couple(z, w) != 0]
    if nonzero:
        assert (violation["against"], violation["value"]) == nonzero[0]
    else:
        assert violation is None
    report = orthogonality_report(spanning, (z,))
    if nonzero:
        assert report.status == REFUTED
        assert report.witnesses[0]["value"] == nonzero[0][1]
    else:
        assert report.status == VERIFIED
