"""TailSeq's run codec against the dense reference.

``_from_values`` and ``_from_sparse`` build runs from integer numerators,
``_dense`` reads numerators at indices 1..N back and ``first_nonzero``
finds the first nonzero entry.  Each must agree with the dense trim and
the dense values of ``dense_reference``.  ``from_json`` parses one string
per run and must agree with a parse of every entry.
"""

import timeit
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab.spaces import TailSeq, parse_rational

F = Fraction
small = st.integers(-3, 3)
dens = st.sampled_from([1, 2, 3, 4, 6, 12])


def fields(y: TailSeq) -> tuple:
    return y.run_ends, y.run_nums, y.tail_nums, y.den


def over(nums, den):
    return [F(v, den) for v in nums]


# ------------------------------------------------ _from_values


@given(st.lists(small, max_size=12), st.lists(small, min_size=1, max_size=3), dens)
def test_from_values_is_the_dense_trim(head, tail, den):
    y = TailSeq._from_values(head, tail, den)
    assert (y.head, y.tail) == ref.canonical(over(head, den), over(tail, den))
    assert fields(y) == fields(TailSeq(over(head, den), over(tail, den)))


@settings(deadline=None, max_examples=20)
@given(st.lists(st.tuples(small, st.integers(1, 30_000)), min_size=1, max_size=5), small, dens)
def test_from_values_on_long_heads_with_few_runs(runs, limit, den):
    head = [v for v, length in runs for _ in range(length)]
    y = TailSeq._from_values(head, [limit], den)
    expected = TailSeq(over(head, den), (F(limit, den),))
    assert fields(y) == fields(expected)
    assert len(y.run_ends) <= len(runs)
    assert y.run_ends == ref.runs(expected.head)[0]


def test_from_values_on_a_head_of_ten_to_the_five():
    head = [7] * 40_000 + [-2] * 60_000
    y = TailSeq._from_values(head, [0], 3)
    assert fields(y) == ((40_000, 100_000), (7, -2), (0,), 3)
    assert fields(y) == fields(TailSeq(over(head, 3), (F(0),)))


# ------------------------------------------------ _from_sparse


def dense_sparse(points, den):
    """The dense (head, tail) of the finitely supported sequence."""
    top = max(points, default=0)
    return ref.canonical([F(points.get(n, 0), den) for n in range(1, top + 1)], (F(0),))


nonzero = small.filter(bool)


@given(st.dictionaries(st.integers(1, 40), nonzero, max_size=8), dens)
def test_from_sparse_is_the_dense_sequence(points, den):
    indices = sorted(points)
    y = TailSeq._from_sparse(indices, [points[n] for n in indices], den)
    assert (y.head, y.tail) == dense_sparse(points, den)


@pytest.mark.parametrize(
    "points",
    [
        {},
        {1: 5},  # index 1: no gap before it
        {1: 2, 2: 3, 3: -1},  # adjacent indices
        {4: 2, 5: 2, 6: 2, 9: 2},  # equal neighbours merge; a gap splits them
        {3: -1, 10**6: 4, 10**9: -1},  # wide gaps
    ],
)
def test_from_sparse_examples(points):
    indices = sorted(points)
    y = TailSeq._from_sparse(indices, [points[n] for n in indices], 6)
    if max(points, default=0) <= 100:
        assert (y.head, y.tail) == dense_sparse(points, 6)
    for n in (1, 2, *points, *(k + 1 for k in points), *(k - 1 for k in points if k > 1)):
        assert y.value(n) == F(points.get(n, 0), 6)
    assert len(y.run_ends) <= 2 * len(points)


def test_from_sparse_merges_equal_adjacent_points():
    y = TailSeq._from_sparse([4, 5, 6, 9], [2, 2, 2, 2], 1)
    assert fields(y) == ((3, 6, 8, 9), (0, 2, 0, 2), (0,), 1)


# ------------------------------------------------ _dense


def dense_values(y, upto):
    return [ref.value((y.head, y.tail), n) for n in range(1, upto + 1)]


tails = st.lists(st.builds(F, small, st.integers(1, 4)), min_size=1, max_size=3)
heads = st.lists(st.builds(F, small, st.integers(1, 4)), max_size=8)


@given(heads, tails, st.integers(-3, 12), st.sampled_from([1, 5]))
def test_dense_reads_the_dense_values(head, tail, offset, factor):
    y = TailSeq(head, tail)
    upto = max(0, y.head_len() + offset)  # below, at and above head_len()
    expected = [v * y.den * factor for v in dense_values(y, upto)]
    assert y._dense(upto, factor) == expected


@pytest.mark.parametrize(
    "y",
    [
        TailSeq.constant(F(1, 2), [1, 1, 3, 3, 3, F(2, 3)]),
        TailSeq.periodic([1, F(-1, 3)], [2, 2, 2, 5]),
        TailSeq.periodic([0, 1, 2]),
        TailSeq.zero(),
    ],
)
def test_dense_around_the_head(y):
    h = y.head_len()
    for upto in range(0, h + 8):
        assert y._dense(upto) == [v * y.den for v in dense_values(y, upto)]
    assert len(y._dense(h + 100)) == h + 100


# ------------------------------------------------ first_nonzero


def dense_first_nonzero(y):
    for n in range(1, y.head_len() + len(y.tail) + 1):
        v = ref.value((y.head, y.tail), n)
        if v:
            return n, v
    return None


@given(heads, tails)
def test_first_nonzero_is_the_dense_scan(head, tail):
    y = TailSeq(head, tail)
    assert y.first_nonzero() == dense_first_nonzero(y)


@pytest.mark.parametrize(
    "y, expected",
    [
        (TailSeq.zero(), None),
        (TailSeq(), None),
        (TailSeq.constant(F(-2, 3), [0, 0, 0]), (4, F(-2, 3))),  # nonzero only in the tail
        (TailSeq.constant(F(1, 2)), (1, F(1, 2))),
        (TailSeq.periodic([0, 0, 5], [0]), (4, F(5))),  # the pattern starts with zeros
        (TailSeq.periodic([0, 0, 5]), (3, F(5))),
        (TailSeq.periodic([0, 1], [0, 0, F(7, 2), 0]), (3, F(7, 2))),
    ],
)
def test_first_nonzero_examples(y, expected):
    assert y.first_nonzero() == expected == dense_first_nonzero(y)


# ------------------------------------------------ from_json


def parse_each(doc):
    """The reading of ``from_json`` before it parsed once per run."""
    head = tuple(parse_rational(v) for v in doc["head"])
    return TailSeq(head, tuple(parse_rational(v) for v in doc["tail"]["values"]))


def outcome(read, doc):
    try:
        return fields(read(doc))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# Equal values written differently, and malformed entries.
texts = st.sampled_from(["1/2", "2/4", "1", "1/1", "0", "0/3", "-3/7", "-6/14", "1/0", "x", "0.5"])


@settings(deadline=None)
@given(
    st.lists(st.tuples(texts, st.integers(1, 40)), max_size=6),
    st.lists(texts, min_size=1, max_size=3),
)
@example([("1/2", 5_000), ("1/0", 1), ("2/4", 5_000)], ["0"])
@example([("1/2", 5_000), ("2/4", 5_000), ("1/2", 3)], ["1/2"])
def test_from_json_equals_a_parse_of_every_entry(runs, values):
    head = [text for text, length in runs for _ in range(length)]
    doc = {"head": head, "tail": {"kind": "periodic", "values": values}}
    assert outcome(TailSeq.from_json, doc) == outcome(parse_each, doc)


@pytest.mark.parametrize(
    "head, tail",
    [
        ("12", {"kind": "periodic", "values": ["3/1", "4/1"]}),
        ([], {"kind": "periodic", "values": "34"}),
        ([], {"kind": "const", "values": "3"}),  # one character: one value
        ("", {"kind": "const", "values": ["0/1"]}),
    ],
)
def test_from_json_rejects_a_string_for_a_list(head, tail):
    with pytest.raises(TypeError):
        TailSeq.from_json({"head": head, "tail": tail})


@pytest.mark.parametrize("tail", [["1/1"], "1/1", None, 1])
def test_from_json_rejects_a_tail_that_is_no_object(tail):
    # A malformed tail is a TypeError, not an AttributeError from reading it.
    with pytest.raises(TypeError):
        TailSeq.from_json({"head": [], "tail": tail})


def test_from_json_reads_a_head_of_ten_to_the_five_in_two_runs():
    head = ["1/3"] * 40_000 + ["-2/7"] * 60_000
    doc = {"head": head, "tail": {"kind": "const", "values": ["0/1"]}}
    assert fields(TailSeq.from_json(doc)) == ((40_000, 100_000), (7, -6), (0,), 21)
    # A generous bound: a parse per entry took several times it.
    assert min(timeit.repeat(lambda: TailSeq.from_json(doc), number=1, repeat=3)) < 0.1
