"""Run-aware G kernels and TailSeq arithmetic against the dense reference.

Each kernel must give the reference's values and its canonical form,
including at far indices, on adjacent support points, with periodic
tails whose combined period exceeds one, and when a head cancels.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
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


def assert_matches(y: TailSeq, expected: tuple) -> None:
    """Same canonical form and, over a window past the head, the same values."""
    assert pair(y) == expected
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
