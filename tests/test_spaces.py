"""Core value types: canonical forms, norms, couplings, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given

from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    OutsideModelDomain,
    PairPoint,
    SparseSeq,
    SystemMismatchError,
    TailSeq,
    couple,
    coupling_value,
    format_rational,
    natural_couple,
    pair_measure,
    parse_rational,
)

from strategies import (
    constant_tail_seqs,
    model_measures,
    rationals,
    seq,
    sparse_seqs,
    tail_seqs,
)

F = Fraction


def raw_tail_value(head, tail, n):
    """Independent evaluator for the head/tail representation, no normalization."""
    head = [F(v) for v in head]
    tail = [F(v) for v in tail]
    if n <= len(head):
        return head[n - 1]
    return tail[(n - len(head) - 1) % len(tail)]


# ---------------------------------------------------------------- rationals


def test_rational_round_trip():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-7)) == "-7/1"
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-7") == F(-7)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TailSeq((F(1), 0.5), (F(0),)),
        lambda: TailSeq((), (0.5,)),
        lambda: TailSeq.constant(0.5),
        lambda: SparseSeq.from_pairs([(1, F(1)), (2, 0.5)]),
        lambda: SparseSeq.from_values([0.5]),
        lambda: ModelMeasure(SparseSeq.zero(), 0.5),
        lambda: ModelMeasure(SparseSeq.from_pairs([(1, 0.5)]), F(1)),
    ],
)
def test_floats_are_rejected(build):
    # Exactness is the product: a float never enters a value type silently.
    with pytest.raises(TypeError):
        build()


def test_ints_convert_to_fractions():
    y = TailSeq((1, F(1, 2)), (2,))
    assert all(type(v) is Fraction for v in y.head + y.tail)
    x = SparseSeq.from_pairs([(1, 3)])
    assert type(x.entries[0][1]) is Fraction


# ---------------------------------------------------------------- SparseSeq


def test_sparse_canonical_form():
    x = SparseSeq.from_pairs([(3, F(1)), (1, F(2)), (2, F(0))])
    assert x.entries == ((1, F(2)), (3, F(1)))
    assert x.value(2) == 0
    assert x.indices == (1, 3)
    assert x.max_index() == 3


def test_sparse_rejects_bad_indices():
    with pytest.raises(ValueError):
        SparseSeq.from_pairs([(0, F(1))])
    with pytest.raises(ValueError):
        SparseSeq(((1, F(1)), (1, F(2))))


def test_l1_norm_examples():
    assert SparseSeq.zero().l1_norm() == 0
    assert SparseSeq.unit(1).l1_norm() == 1
    assert seq(1, -1, 1, -1).l1_norm() == 4


@given(sparse_seqs(), sparse_seqs(), rationals())
def test_sparse_arithmetic_pointwise(x, y, a):
    z = x + y.scale(a)
    for n in range(1, max(x.max_index(), y.max_index()) + 2):
        assert z.value(n) == x.value(n) + a * y.value(n)


def test_sparse_json_round_trip():
    x = seq(1, F(-3, 2), 0, F(5, 7))
    doc = x.to_json()
    assert doc == {"entries": [[1, "1/1"], [2, "-3/2"], [4, "5/7"]]}
    assert SparseSeq.from_json(doc) == x


# ----------------------------------------------------------------- TailSeq


def test_tail_normalization_collapses_constant_pattern():
    assert TailSeq((), (F(2), F(2))) == TailSeq.constant(2)


def test_tail_normalization_minimal_period():
    assert TailSeq.periodic([1, -1, 1, -1]) == TailSeq.periodic([1, -1])


def test_tail_normalization_absorbs_head_with_rotation():
    # head [1] followed by pattern (-1, 1) is the plain alternating sequence
    assert TailSeq.periodic([-1, 1], head=[1]) == TailSeq.periodic([1, -1])


def test_tail_normalization_trims_constant_head():
    y = TailSeq.constant(5, head=[2, 5, 5])
    assert y.head == (F(2),)
    assert y.tail == (F(5),)


def test_tail_head_never_ends_with_pattern_copy():
    y = TailSeq.periodic([1, 2], head=[5, 1, 2])
    assert y.head == (F(5),)
    assert y.tail == (F(1), F(2))
    for n in range(1, 9):
        assert y.value(n) == raw_tail_value([5, 1, 2], [1, 2], n)


@given(tail_seqs())
def test_tail_normalization_preserves_values(y):
    # rebuild through a denormalized padding: head extended by 3 sequence
    # values, pattern doubled and read off at the right phase
    k = 3
    padded_head = tuple(y.value(n) for n in range(1, y.head_len() + k + 1))
    start = y.head_len() + k + 1
    pattern = tuple(y.value(n) for n in range(start, start + 2 * len(y.tail)))
    padded = TailSeq(padded_head, pattern)
    assert padded == y
    for n in range(1, len(y.head) + 2 * len(y.tail) + 3):
        assert padded.value(n) == y.value(n) == raw_tail_value(y.head, y.tail, n)


def test_linf_norm_examples():
    assert TailSeq.ones().linf_norm() == 1
    assert TailSeq.constant(-2, head=[1, -1]).linf_norm() == 2
    assert TailSeq.periodic([1, -1]).linf_norm() == 1


def test_limit_examples():
    assert TailSeq.ones().limit() == 1
    assert TailSeq.constant(-1, head=[0]).limit() == -1
    assert TailSeq.periodic([1, -1]).limit() is None
    assert not TailSeq.periodic([1, -1]).is_convergent()


def test_oscillation_examples():
    assert TailSeq.constant(7, head=[1, 2]).oscillation() == 0
    assert TailSeq.periodic([1, -1]).oscillation() == 1
    assert TailSeq.periodic([0, 1]).oscillation() == F(1, 2)


@given(tail_seqs(), tail_seqs(), rationals())
def test_tail_arithmetic_pointwise(y, z, a):
    w = y + z.scale(a)
    for n in range(1, 12):
        assert w.value(n) == y.value(n) + a * z.value(n)


def test_tail_json_round_trip():
    y = TailSeq.periodic([1, F(-1, 3)], head=[F(1, 2)])
    doc = y.to_json()
    assert doc["tail"]["kind"] == "periodic"
    assert TailSeq.from_json(doc) == y
    c = TailSeq.constant(4)
    assert c.to_json()["tail"] == {"kind": "const", "values": ["4/1"]}
    assert TailSeq.from_json(c.to_json()) == c


BAD_TAILS = [
    {"kind": "const", "values": ["1/1", "2/1"]},  # would read as a period-2 pattern
    {"kind": "const", "values": []},
    {"kind": "banana", "values": ["1/1"]},
    {"values": ["1/1"]},
]


@pytest.mark.parametrize("tail", BAD_TAILS)
def test_tail_json_kind_is_validated(tail):
    with pytest.raises(ValueError):
        TailSeq.from_json({"head": ["1/2"], "tail": tail})
    doc = PairPoint.first(seq(1), TailSeq.ones()).to_json()
    doc["y"]["tail"] = tail
    with pytest.raises(ValueError):
        PairPoint.from_json(doc)


def test_tail_json_accepts_both_kinds():
    periodic = {"head": [], "tail": {"kind": "periodic", "values": ["1/1", "-1/1"]}}
    assert TailSeq.from_json(periodic) == TailSeq.periodic([1, -1])
    const = {"head": ["0/1"], "tail": {"kind": "const", "values": ["3/1"]}}
    assert TailSeq.from_json(const) == TailSeq.constant(3, [0])


# ---------------------------------------------------------------- couplings


def test_couple_examples():
    assert couple(SparseSeq.unit(1), TailSeq.ones()) == 1
    assert couple(SparseSeq.zero(), TailSeq.periodic([3, -4])) == 0
    # image of (1,1) under the skew operator, coupled back: 1*1 + 1*(-1) = 0
    assert couple(seq(1, 1), TailSeq.constant(-2, head=[1, -1])) == 0


@given(sparse_seqs(), sparse_seqs(), tail_seqs(), rationals(), rationals())
def test_couple_bilinear(x1, x2, y, a, b):
    assert couple(x1.scale(a) + x2.scale(b), y) == a * couple(x1, y) + b * couple(x2, y)


@given(sparse_seqs(), tail_seqs())
def test_couple_holder_bound(x, y):
    assert abs(couple(x, y)) <= x.l1_norm() * y.linf_norm()


@given(sparse_seqs(), constant_tail_seqs())
def test_couple_two_routes_agree(x, y):
    # direct indexing vs head/tail split for convergent sequences
    direct = sum((v * y.value(n) for n, v in x.entries), F(0))
    head_len = y.head_len()
    split = sum((v * y.value(n) for n, v in x.entries if n <= head_len), F(0))
    split += y.limit() * sum((v for n, v in x.entries if n > head_len), F(0))
    assert couple(x, y) == direct == split


# ------------------------------------------------------------ measure model


def test_pair_measure_examples():
    limit_functional = ModelMeasure(SparseSeq.zero(), F(1))
    assert pair_measure(limit_functional, TailSeq.ones()) == 1
    atom = ModelMeasure.from_atomic(SparseSeq.unit(1))
    y = TailSeq.constant(9, head=[F(5, 3)])
    assert pair_measure(atom, y) == F(5, 3)
    with pytest.raises(OutsideModelDomain):
        pair_measure(limit_functional, TailSeq.periodic([1, -1]))


def test_pair_measure_without_mass_allows_oscillation():
    atom = ModelMeasure.from_atomic(SparseSeq.unit(2))
    assert pair_measure(atom, TailSeq.periodic([1, -1])) == -1


@given(sparse_seqs(), tail_seqs())
def test_pair_measure_restriction_consistency(x, y):
    assert pair_measure(ModelMeasure.from_atomic(x), y) == couple(x, y)


@given(model_measures(), model_measures(), constant_tail_seqs(), rationals())
def test_pair_measure_linear(mu, nu, y, a):
    assert pair_measure(mu + nu.scale(a), y) == pair_measure(mu, y) + a * pair_measure(nu, y)


def test_model_measure_json_round_trip():
    mu = ModelMeasure(seq(1, 0, F(2, 5)), F(-3, 4))
    doc = mu.to_json()
    assert doc["infinity_mass"] == "-3/4"
    assert ModelMeasure.from_json(doc) == mu


# -------------------------------------------------------------- pair points


def test_pair_point_validates_system():
    with pytest.raises(TypeError):
        PairPoint(DualSystem.FIRST, ModelMeasure.zero(), TailSeq.zero())
    with pytest.raises(TypeError):
        PairPoint(DualSystem.SECOND, SparseSeq.zero(), TailSeq.zero())


def test_natural_couple_examples():
    ge1 = TailSeq.constant(-1, head=[0])
    z = PairPoint.first(SparseSeq.unit(1), ge1)
    assert natural_couple(z, z) == 0
    a = PairPoint.first(SparseSeq.zero(), TailSeq.ones())
    b = PairPoint.first(SparseSeq.unit(1), TailSeq.zero())
    assert natural_couple(a, b) == 1
    assert natural_couple(a, PairPoint.zero(DualSystem.FIRST)) == 0


def test_natural_couple_rejects_mixed_systems():
    z = PairPoint.zero(DualSystem.FIRST)
    w = PairPoint.zero(DualSystem.SECOND)
    with pytest.raises(SystemMismatchError):
        natural_couple(z, w)


@given(sparse_seqs(), tail_seqs(), sparse_seqs(), tail_seqs())
def test_natural_couple_symmetric(x1, y1, x2, y2):
    z = PairPoint.first(x1, y1)
    w = PairPoint.first(x2, y2)
    assert natural_couple(z, w) == natural_couple(w, z)
    assert natural_couple(z, z) == 2 * coupling_value(z)


def test_pair_point_json_round_trip():
    z = PairPoint.first(seq(1, 2), TailSeq.periodic([1, 0]))
    assert PairPoint.from_json(z.to_json()) == z
    w = PairPoint.second(ModelMeasure(seq(3), F(1, 2)), TailSeq.constant(2))
    doc = w.to_json()
    assert doc["system"] == "second"
    assert PairPoint.from_json(doc) == w
