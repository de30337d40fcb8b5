"""Integer-numerator SparseSeq, integer-native sampling and exact JSON input.

A SparseSeq stores strictly increasing ``indices``, nonzero integer
``nums`` and one least denominator ``den`` (den > 0 and
gcd(den, *nums) == 1).  Every construction route must leave those
invariants, equal sequences must have equal fields and hashes, and the
``entries`` view must equal the dense reference: a dict of nonzero
``Fraction`` values.  ``sampling._randint`` must consume a generator's
bits exactly as ``Random.randint`` does, and ``parse_rational`` must take
only the strings ``format_rational`` writes, plus bare integers.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab.gossez import apply_G, solve_G
from gossez_lab.sampling import _randint, random_sparse
from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    PairPoint,
    SparseSeq,
    TailSeq,
    parse_rational,
)

from strategies import rationals, sparse_seqs, wide_rationals

F = Fraction

any_sparse = st.one_of(sparse_seqs(), sparse_seqs(values=wide_rationals()))
small_index = st.one_of(sparse_seqs(max_index=6), sparse_seqs(max_index=6, values=wide_rationals()))
factors = st.one_of(rationals(), wide_rationals(), st.integers(-5, 5))


def assert_canonical(x: SparseSeq) -> None:
    indices, nums, den = x.indices, x.nums, x.den
    assert type(indices) is tuple and type(nums) is tuple
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in indices + nums)
    assert len(indices) == len(nums) and all(nums)
    assert all(a < b for a, b in zip((0,) + indices, indices))
    assert math.gcd(den, *nums) == 1


def dense(x: SparseSeq) -> dict:
    """The reference form: {index: Fraction}, no zeros."""
    return {n: F(v, x.den) for n, v in zip(x.indices, x.nums)}


def assert_entries(x: SparseSeq, expected: dict) -> None:
    """The entries view and value() equal the reference dict."""
    assert x.entries == tuple(sorted(expected.items()))
    assert all(type(v) is Fraction for _, v in x.entries)
    assert x.entries is x.entries  # built once
    top = max(expected, default=0) + 2
    assert [x.value(n) for n in range(top)] == [expected.get(n, F(0)) for n in range(top)]


def combined(a: dict, b: dict, sign: int) -> dict:
    total = dict(a)
    for n, v in b.items():
        total[n] = total.get(n, F(0)) + sign * v
    return {n: v for n, v in total.items() if v}


# ------------------------------------------------ canonical invariants


@given(st.dictionaries(st.integers(1, 30), st.one_of(rationals(), st.integers(-9, 9)), max_size=8))
def test_validated_constructor_is_canonical(values):
    x = SparseSeq.from_pairs(values.items())
    assert_canonical(x)
    assert_entries(x, {n: F(v) for n, v in values.items() if v})


@given(
    st.lists(st.integers(1, 40), unique=True, max_size=6),
    st.lists(st.integers(-60, 60).filter(bool), min_size=6, max_size=6),
    st.integers(1, 360),
)
def test_from_ints_reduces_to_the_least_denominator(indices, nums, den):
    indices = tuple(sorted(indices))
    nums = tuple(nums[: len(indices)])
    x = SparseSeq._from_ints(indices, nums, den)
    assert_canonical(x)
    assert_entries(x, {n: F(v, den) for n, v in zip(indices, nums)})
    assert x == SparseSeq.from_pairs(x.entries)


@given(small_index, small_index)
def test_add_sub_and_neg_equal_the_reference(x, y):
    for result, expected in (
        (x + y, combined(dense(x), dense(y), 1)),
        (x - y, combined(dense(x), dense(y), -1)),
        (-x, {n: -v for n, v in dense(x).items()}),
    ):
        assert_canonical(result)
        assert_entries(result, expected)
    assert (x - x).is_zero() and (x + (-x)) == SparseSeq.zero()


def test_a_cancelled_shared_index_reduces_the_denominator():
    x = SparseSeq.from_pairs([(1, F(1, 6)), (2, F(1, 2))])
    y = SparseSeq.from_pairs([(1, F(-1, 6)), (2, F(1, 2))])
    total = x + y
    assert (total.indices, total.nums, total.den) == ((2,), (1,), 1)


@given(any_sparse, factors)
def test_scale_equals_the_reference(x, c):
    scaled = x.scale(c)
    assert_canonical(scaled)
    assert_entries(scaled, {n: c * v for n, v in dense(x).items() if c})
    if c == 0:
        assert scaled == SparseSeq.zero()


@given(any_sparse, st.integers(1, 12), st.integers(1, 12))
def test_scale_by_a_factor_sharing_the_denominator(x, p, k):
    # p / q with q sharing every prime of den, and p dividing it again.
    q = x.den * k
    for c in (F(p, q), F(x.den, p), F(-q, x.den)):
        scaled = x.scale(c)
        assert_canonical(scaled)
        assert_entries(scaled, {n: c * v for n, v in dense(x).items()})
        assert scaled.scale(1 / c) == x


@given(any_sparse, rationals())
def test_solve_G_preimage_is_canonical(x, shift):
    cert = solve_G(apply_G(x))
    assert cert.feasible
    assert_canonical(cert.preimage)
    assert cert.preimage == x and cert.preimage.entries == x.entries
    feasible, preimage, _ = ref.solve_G(ref.apply_G(dense(x)))
    assert feasible and preimage == dense(x)


@given(st.integers(0, 10**6), st.integers(1, 64), st.integers(1, 8), st.integers(1, 1000))
def test_random_sparse_is_canonical_and_draws_as_randint_did(seed, max_index, max_support, bound):
    rng = random.Random(seed)
    x = random_sparse(rng, max_index, max_support, bound, bound)
    assert_canonical(x)
    assert not x.is_zero()
    # The draws of the Fraction-building sampler, on the same stream.
    twin = random.Random(seed)
    k = twin.randint(1, min(max_support, max_index))
    expected = {}
    for n in sorted(twin.sample(range(1, max_index + 1), k)):
        num = twin.randint(-bound, bound)
        while num == 0:
            num = twin.randint(-bound, bound)
        expected[n] = F(num, twin.randint(1, bound))
    assert_entries(x, expected)
    assert rng.getstate() == twin.getstate()


# ------------------------------------------------ equality and hashing


@given(any_sparse, any_sparse)
def test_equality_and_hash_agree_with_fraction_entries(x, y):
    assert (x == y) == (x.entries == y.entries)
    twin = SparseSeq.from_pairs(dense(x).items())
    assert twin == x and hash(twin) == hash(x)
    assert (twin.indices, twin.nums, twin.den) == (x.indices, x.nums, x.den)


@given(any_sparse, st.integers(2, 50))
def test_unreduced_kernel_input_equals_the_reduced_form(x, k):
    wide = SparseSeq._from_ints(x.indices, tuple(v * k for v in x.nums), x.den * k)
    assert wide == x and hash(wide) == hash(x)
    assert (wide.nums, wide.den) == (x.nums, x.den)


def test_other_types_are_never_equal():
    assert SparseSeq.unit(1) != ((1, F(1)),)
    assert SparseSeq.zero() != 0


# ------------------------------------------------ object model


@given(any_sparse)
def test_pickle_copy_and_deepcopy_keep_the_fields(x):
    x.entries  # a cached view must not change what is copied
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert twin == x and hash(twin) == hash(x)
        assert_canonical(twin)
        assert twin.entries == x.entries


def test_sparse_seq_is_immutable_with_slots():
    x = SparseSeq.from_pairs([(2, F(1, 2)), (5, -3)])
    for name in ("indices", "nums", "den", "_entries", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, ())
    with pytest.raises(AttributeError):
        del x.den
    assert not hasattr(x, "__dict__")
    assert repr(x) == "SparseSeq(entries=((2, Fraction(1, 2)), (5, Fraction(-3, 1))))"
    assert (x.indices, x.nums, x.den) == ((2, 5), (1, -6), 2)


@given(any_sparse)
def test_reductions_and_json_equal_the_reference(x):
    values = dense(x)
    assert x.entry_sum() == sum(values.values(), F(0))
    assert x.l1_norm() == sum(map(abs, values.values()), F(0))
    assert x.indices == tuple(sorted(values)) and x.max_index() == max(values, default=0)
    assert x.to_json() == {"entries": [[n, f"{v.numerator}/{v.denominator}"] for n, v in sorted(values.items())]}
    assert SparseSeq.from_json(x.to_json()) == x


# ------------------------------------------------ randint draws


@pytest.mark.parametrize("width", [1, 2, 2**10, 2**40, 1000, 2001])
def test_randint_consumes_bits_as_random_randint(width):
    ours, theirs = random.Random(f"randint:{width}"), random.Random(f"randint:{width}")
    low = -(width // 2)
    high = low + width - 1
    draws = 10**5
    assert [_randint(ours, low, high) for _ in range(draws)] == [
        theirs.randint(low, high) for _ in range(draws)
    ]
    assert ours.getstate() == theirs.getstate()


def test_randint_rejects_an_empty_range():
    with pytest.raises(ValueError):
        _randint(random.Random(0), 1, 0)


# ------------------------------------------------ exact JSON input


@pytest.mark.parametrize("text, value", [("3/2", F(3, 2)), ("-7", F(-7)), ("0/5", F(0)), ("6/4", F(3, 2))])
def test_parse_rational_takes_exact_strings(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", [0.1, 1e-3, True, False, 1, None, [1, 2]])
def test_parse_rational_rejects_non_strings(bad):
    with pytest.raises(TypeError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["0.1", "1e-3", "1/0", "+3", " 1/2", "1/2\n", "1/-2", "--1", "", "inf", "nan", "٣"])
def test_parse_rational_rejects_other_strings(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


BAD_VALUES = [0.1, True, 1e-3, 2]

ONE_HALF = "1/2"


def sparse_doc(value):
    return {"entries": [[1, value]]}


def tail_doc(head_value, tail_value=ONE_HALF):
    return {"head": [head_value], "tail": {"kind": "const", "values": [tail_value]}}


def measure_doc(mass, atom=ONE_HALF):
    return {"atomic": sparse_doc(atom), "infinity_mass": mass}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize(
    "parse",
    [
        lambda v: SparseSeq.from_json(sparse_doc(v)),
        lambda v: TailSeq.from_json(tail_doc(v)),
        lambda v: TailSeq.from_json(tail_doc(ONE_HALF, v)),
        lambda v: ModelMeasure.from_json(measure_doc(v)),
        lambda v: ModelMeasure.from_json(measure_doc(ONE_HALF, v)),
        lambda v: PairPoint.from_json(
            {"system": "first", "x": sparse_doc(v), "y": tail_doc(ONE_HALF)}
        ),
        lambda v: PairPoint.from_json(
            {"system": "second", "x": measure_doc(v), "y": tail_doc(ONE_HALF)}
        ),
        lambda v: PairPoint.from_json(
            {"system": "first", "x": sparse_doc(ONE_HALF), "y": tail_doc(v)}
        ),
    ],
)
def test_json_values_must_be_exact_strings(parse, bad):
    # 0.1 would become 3602879701896397/36028797018963968 and true would become 1.
    with pytest.raises((TypeError, ValueError)):
        parse(bad)


def test_exact_json_round_trips_through_every_type():
    x = SparseSeq.from_pairs([(1, F(1, 2)), (3, -2)])
    y = TailSeq.periodic([F(1, 3), 0], head=[5])
    mu = ModelMeasure(x, F(-3, 4))
    for point in (PairPoint.first(x, y), PairPoint.second(mu, TailSeq.constant(F(2, 7)))):
        assert PairPoint.from_json(point.to_json()) == point
    assert ModelMeasure.from_json(mu.to_json()) == mu
    assert PairPoint.zero(DualSystem.SECOND).x == ModelMeasure.zero()
