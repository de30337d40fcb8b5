"""Run-aware G kernels and TailSeq arithmetic against the dense reference.

Each kernel must give the reference's values, its canonical form and the
run-length form of that head, including at far indices (up to 10^9), on
adjacent support points, with periodic tails whose combined period
exceeds one, and when a head cancels.
"""

import copy
import pickle
from bisect import bisect_left
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab import spaces
from gossez_lab.adjoint import apply_Gstar
from gossez_lab.gossez import apply_G, solve_G
from gossez_lab.spaces import ModelMeasure, SparseSeq, TailSeq

from strategies import (
    FAR,
    far_sparse_seqs,
    nonzero_rationals,
    rationals,
    run_tail_seqs,
    sparse_seqs,
    tail_seqs,
)

F = Fraction
# The dense reference costs O(top) per example: few examples at far indices.
far = settings(max_examples=5, deadline=None)


any_tail_seqs = st.one_of(tail_seqs(), run_tail_seqs())


def dense(x: SparseSeq) -> dict:
    return dict(x.entries)


def pair(y: TailSeq) -> tuple:
    return y.head, y.tail


def assert_runs(y: TailSeq) -> None:
    """Stored runs are the run-length form of the canonical dense head."""
    assert (y.run_ends, y.run_values) == ref.runs(y.head)
    assert y.head_len() == len(y.head)
    assert pair(y) == ref.canonical(y.head, y.tail)


def assert_matches(y: TailSeq, expected: tuple) -> None:
    """Same canonical form and, over a window past the head, the same values."""
    assert pair(y) == expected
    assert_runs(y)
    window = len(expected[0]) + 2 * len(expected[1]) + 2
    assert [y.value(n) for n in range(1, window)] == [
        ref.value(expected, n) for n in range(1, window)
    ]


def assert_same_certificate(y: TailSeq) -> None:
    cert = solve_G(y)
    feasible, preimage, obstruction = ref.solve_G(pair(y))
    assert cert.feasible == feasible
    assert cert.obstruction == obstruction
    assert (dense(cert.preimage) if cert.preimage is not None else None) == preimage


# ------------------------------------------------------------ apply_G


@given(sparse_seqs(20, 8))
def test_apply_G_matches_dense(x):
    assert_matches(apply_G(x), ref.apply_G(dense(x)))


@far
@given(far_sparse_seqs())
def test_apply_G_matches_dense_far(x):
    assert_matches(apply_G(x), ref.apply_G(dense(x)))


@given(st.lists(nonzero_rationals(), min_size=1, max_size=4), st.integers(1, 40), rationals())
def test_adjacent_opposite_points_merge_into_one_run(values, start, a):
    # x_{n+1} = -x_n gives (Gx)_n = (Gx)_{n+1}: one run covers both points.
    points = [(start + 2 * k, v) for k, v in enumerate(values)]
    x = SparseSeq.from_pairs(points + [(n + 1, -v) for n, v in points])
    gx = apply_G(x)
    assert_matches(gx, ref.apply_G(dense(x)))
    for n, _ in points:
        assert gx.value(n) == gx.value(n + 1)
        assert bisect_left(gx.run_ends, n) == bisect_left(gx.run_ends, n + 1)
    assert len(gx.run_ends) <= 2 * len(x.entries) + 1
    assert_matches(apply_Gstar(ModelMeasure(x, a)), ref.apply_Gstar(dense(x), a))


def test_alternating_block_is_one_run():
    x = SparseSeq.from_pairs([(5 + k, F((-1) ** k)) for k in range(6)])
    gx = apply_G(x)
    assert gx.run_ends == (4, 10) and gx.run_values == (F(0), F(-1))
    assert gx.tail == (F(0),)
    assert pair(gx) == ref.apply_G(dense(x))


def test_apply_G_adjacent_and_far_example():
    x = SparseSeq.from_pairs([(FAR - 1, F(1)), (FAR, F(-3, 2)), (7, F(2))])
    gx = apply_G(x)
    assert pair(gx) == ref.apply_G(dense(x))
    assert gx.head_len() == FAR


# --------------------------------------------------- TailSeq arithmetic


@given(any_tail_seqs, any_tail_seqs)
def test_add_sub_match_dense(a, b):
    assert_matches(a + b, ref.combine(pair(a), pair(b), lambda u, v: u + v))
    assert_matches(a - b, ref.combine(pair(a), pair(b), lambda u, v: u - v))


@given(any_tail_seqs, rationals())
def test_neg_and_scale_match_dense(a, c):
    assert_matches(-a, ref.negate(pair(a)))
    assert_matches(a.scale(c), ref.scale(pair(a), c))


@given(sparse_seqs(20, 8), tail_seqs())
def test_image_plus_periodic_matches_dense(x, t):
    gx = apply_G(x)
    assert_matches(gx + t, ref.combine(pair(gx), pair(t), lambda u, v: u + v))
    assert_matches(t - gx, ref.combine(pair(t), pair(gx), lambda u, v: u - v))


def test_periodic_lcm_example():
    a = TailSeq.periodic([1, 2], head=[5])
    b = TailSeq.periodic([0, 0, 1])
    total = a + b
    assert len(total.tail) == 6
    assert_matches(total, ref.combine(pair(a), pair(b), lambda u, v: u + v))


def assert_image_plus_adjoint_cancels(x: SparseSeq, a: Fraction) -> None:
    # Gx + G*(x, a) = -a * ones: the whole head cancels.
    gx = apply_G(x)
    gstar = apply_Gstar(ModelMeasure(x, a))
    total = gx + gstar
    assert pair(total) == ((), (-a,))
    assert total.run_ends == () and total.run_values == ()
    ref_gstar = ref.combine(((), (-a,)), ref.apply_G(dense(x)), lambda u, v: u - v)
    assert pair(gstar) == ref_gstar
    assert pair(total) == ref.combine(pair(gx), ref_gstar, lambda u, v: u + v)


@given(sparse_seqs(20, 8), rationals())
def test_image_plus_adjoint_cancels_to_constant(x, a):
    assert_image_plus_adjoint_cancels(x, a)


@far
@given(far_sparse_seqs(), rationals())
def test_image_plus_adjoint_cancels_to_constant_far(x, a):
    assert_image_plus_adjoint_cancels(x, a)


@far
@given(far_sparse_seqs(), nonzero_rationals())
def test_far_scale_and_neg_match_dense(x, c):
    gx = apply_G(x)
    assert pair(-gx) == ref.negate(pair(gx))
    assert pair(gx.scale(c)) == ref.scale(pair(gx), c)


# ------------------------------------------------------ canonical trim


@given(
    st.lists(rationals(), max_size=4),
    st.lists(rationals(), min_size=1, max_size=3),
    st.integers(0, 4),
    st.integers(0, 2),
)
def test_trim_matches_dense(prefix, pattern, reps, cut):
    # A head ending in whole or partial copies of the pattern, some shared.
    head = prefix + pattern * reps + pattern[:cut]
    y = TailSeq(tuple(head), tuple(pattern))
    assert pair(y) == ref.canonical(head, pattern)


@given(
    st.lists(st.tuples(rationals(), st.integers(1, 4)), max_size=4),
    st.lists(rationals(), min_size=2, max_size=3),
    st.integers(0, 3),
)
def test_trim_of_run_heads_matches_dense(runs, pattern, cut):
    # Runs of one value before a pattern copy: the trim may stop inside a
    # run, at its boundary, or cross it into the run before.
    head = [v for v, length in runs for _ in range(length)] + pattern[:cut]
    y = TailSeq(tuple(head), tuple(pattern))
    assert pair(y) == ref.canonical(head, pattern)
    assert_runs(y)


def test_periodic_trim_crosses_run_boundaries():
    # Head 2,2 | 1 | 2 | 1 against the pattern (2, 1): everything but the
    # first 2 is absorbed, crossing three run boundaries.
    y = TailSeq((F(2), F(2), F(1), F(2), F(1)), (F(2), F(1)))
    assert pair(y) == ref.canonical(y.head, y.tail) == ((F(2),), (F(2), F(1)))
    assert y.run_ends == (1,) and y.run_values == (F(2),)
    # A sum whose combined period is 2 trims across the runs of G x.
    gx = apply_G(SparseSeq.from_pairs([(3, F(1)), (4, F(-2))]))
    total = gx + TailSeq.periodic([1, -1])
    assert_matches(total, ref.combine(pair(gx), ((), (F(1), F(-1))), lambda u, v: u + v))


def test_trim_absorbs_whole_head_into_rotated_cycle():
    y = TailSeq((F(1), F(2), F(3), F(1), F(2)), (F(3), F(1), F(2)))
    assert pair(y) == ((), (F(1), F(2), F(3)))
    assert pair(y) == ref.canonical(y.head, y.tail)


# ------------------------------------------------------------ solve_G


@given(sparse_seqs(20, 8))
def test_solve_G_matches_dense_on_images(x):
    assert_same_certificate(apply_G(x))


@far
@given(far_sparse_seqs())
def test_solve_G_matches_dense_far(x):
    y = apply_G(x)
    assert_same_certificate(y)
    assert solve_G(y).preimage == x


@given(any_tail_seqs)
def test_solve_G_matches_dense_on_arbitrary_targets(y):
    assert_same_certificate(y)


@given(sparse_seqs(20, 8), st.integers(1, 25), nonzero_rationals())
def test_solve_G_infeasible_perturbation_matches_dense(x, k, c):
    # Adding c * e_k to an image leaves the range: same obstruction text.
    y = apply_G(x) + TailSeq.constant(0, [0] * (k - 1) + [c])
    cert = solve_G(y)
    assert not cert.feasible
    assert_same_certificate(y)


@far
@given(far_sparse_seqs(), nonzero_rationals())
def test_solve_G_infeasible_far_matches_dense(x, c):
    y = apply_G(x) + TailSeq.constant(c)
    assert not solve_G(y).feasible
    assert_same_certificate(y)


def test_solve_G_obstruction_strings():
    assert solve_G(TailSeq.ones()).obstruction == (
        "recurrence forces an alternating tail of magnitude 2/1, not summable"
    )
    assert solve_G(TailSeq.periodic([1, -1])).obstruction == (
        "not in c: tail oscillates, no limit"
    )
    assert_same_certificate(TailSeq.constant(0, [F(1)] * 7))


# ------------------------------------------------------ run form and JSON


def fresh_copies(values):
    return [Fraction(v.numerator, v.denominator) for v in values]


@given(
    st.lists(st.tuples(rationals(), st.integers(1, 5)), max_size=5),
    st.lists(rationals(), min_size=1, max_size=3),
)
def test_dense_heads_with_equal_values_in_distinct_objects(runs, pattern):
    head = [v for v, length in runs for _ in range(length)]
    shared = TailSeq(tuple(head), tuple(pattern))
    distinct = TailSeq(tuple(fresh_copies(head)), tuple(fresh_copies(pattern)))
    assert pair(distinct) == ref.canonical(head, pattern)
    assert_runs(distinct)
    assert distinct.run_ends == shared.run_ends
    assert distinct == shared and hash(distinct) == hash(shared)


@given(any_tail_seqs)
def test_json_round_trip_keeps_runs(y):
    doc = y.to_json()
    assert doc["head"] == [f"{v.numerator}/{v.denominator}" for v in y.head]
    back = TailSeq.from_json(doc)
    assert back == y
    assert (back.run_ends, back.run_values, back.tail) == (y.run_ends, y.run_values, y.tail)


@far
@given(far_sparse_seqs(), rationals())
def test_json_round_trip_of_far_images(x, a):
    for y in (apply_G(x), apply_Gstar(ModelMeasure(x, a))):
        back = TailSeq.from_json(y.to_json())
        assert back == y and back.run_ends == y.run_ends


# ------------------------------------------------- top index one billion

TOP = 10**9


def closed_form(entries, n: int) -> Fraction:
    """(Gx)_n = (sum of x_k for k > n) - (sum of x_k for k < n)."""
    return sum((v for k, v in entries if k > n), F(0)) - sum((v for k, v in entries if k < n), F(0))


def test_kernels_at_top_index_one_billion(monkeypatch):
    # Every kernel works on runs: a dense head read anywhere fails the test.
    def no_dense(*args):
        raise AssertionError("a dense head was built")

    monkeypatch.setattr(TailSeq, "head", property(no_dense))
    monkeypatch.setattr(spaces, "_expand", no_dense)
    half = TOP // 2
    entries = [
        (1, F(3, 4)),
        (7, F(-2)),
        (10**6, F(5, 3)),
        (half, F(1, 7)),
        (half + 1, F(-1, 7)),  # x_{n+1} = -x_n: one run covers both points
        (TOP - 1, F(9)),
        (TOP, F(-1, 2)),
    ]
    x = SparseSeq.from_pairs(entries)
    a = F(-5, 11)
    gx = apply_G(x)
    gstar = apply_Gstar(ModelMeasure(x, a))
    for y in (gx, gstar):
        assert y.head_len() == TOP
        assert len(y.run_ends) <= 2 * len(entries) + 1
    assert bisect_left(gx.run_ends, half) == bisect_left(gx.run_ends, half + 1)

    limit = -sum(v for _, v in entries)
    near = [1, 2, 6, 7, 8, half - 1, half, half + 1, half + 2, TOP - 2, TOP - 1, TOP, TOP + 1, 2 * TOP]
    for n in near:
        expected = closed_form(entries, n) if n <= TOP else limit
        assert gx.value(n) == expected
        assert gstar.value(n) == -a - expected

    cert = solve_G(gx)
    assert cert.feasible and cert.preimage == x

    total = gx + gstar
    assert total == TailSeq.constant(-a)
    assert total.run_ends == () and total.tail == (-a,)
    assert gstar == TailSeq.constant(-a) - gx
    assert gx != gstar and gx == apply_G(SparseSeq.from_pairs(entries))
    assert pickle.loads(pickle.dumps(gx)) == gx == copy.deepcopy(gx)

    taken = {1} | {n for n, _ in entries} | {n + 1 for n, _ in entries if n < TOP}
    assert gx.linf_norm() == max(abs(v) for v in [closed_form(entries, n) for n in taken] + [limit])
