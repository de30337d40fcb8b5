"""The skew operator: forward map, inversion, moment matching, norm ratios.

The oracle for the forward map is the raw double sum over the sign kernel
``dense_reference.alpha``, kept independent of the prefix-sum implementation.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from dense_reference import alpha
from gossez_lab.fitz import OP_NEGG_SECOND, OPERATORS
from gossez_lab.gossez import (
    alternating,
    apply_G,
    range_ratio_family,
    solve_G,
    weakstar_approximate,
)
from gossez_lab.spaces import SparseSeq, TailSeq, couple

from strategies import rationals, seq, sparse_seqs, tail_seqs, wide_rationals

F = Fraction


def g_entry_oracle(x: SparseSeq, n: int) -> Fraction:
    """Brute-force (Gx)_n = sum_k alpha(k, n) * x_k over the support."""
    return sum((alpha(k, n) * v for k, v in x.entries), F(0))


def test_alpha_table():
    assert alpha(1, 3) == -1
    assert alpha(3, 3) == 0
    assert alpha(5, 3) == 1
    for k in range(1, 6):
        for n in range(1, 6):
            assert alpha(k, n) == -alpha(n, k)


def test_apply_G_examples():
    assert apply_G(SparseSeq.zero()) == TailSeq.zero()
    assert apply_G(SparseSeq.unit(1)) == TailSeq.constant(-1, head=[0])
    assert apply_G(seq(1, 1)) == TailSeq.constant(-2, head=[1, -1])


def test_apply_negG_examples():
    apply_negG = OPERATORS[OP_NEGG_SECOND].graph_y
    assert apply_negG(SparseSeq.zero()) == TailSeq.zero()
    assert apply_negG(SparseSeq.unit(1)) == TailSeq.constant(1, head=[0])
    assert apply_negG(seq(1, 1)) == TailSeq.constant(2, head=[-1, 1])


@given(sparse_seqs(max_index=12))
def test_apply_G_matches_kernel_oracle(x):
    gx = apply_G(x)
    for n in range(1, x.max_index() + 4):
        assert gx.value(n) == g_entry_oracle(x, n)
    assert gx.is_convergent()
    assert gx.limit() == -x.entry_sum()


@given(sparse_seqs())
def test_skew_and_norm_bound(x):
    gx = apply_G(x)
    assert couple(x, gx) == 0
    assert gx.linf_norm() <= x.l1_norm()


@given(sparse_seqs(), sparse_seqs())
def test_anti_symmetry(x, y):
    assert couple(x, apply_G(y)) == -couple(y, apply_G(x))


@given(sparse_seqs(), sparse_seqs())
def test_linearity(x, y):
    a, b = F(3, 2), F(-2, 7)
    assert apply_G(x.scale(a) + y.scale(b)) == apply_G(x).scale(a) + apply_G(y).scale(b)


@given(sparse_seqs(max_index=10))
def test_difference_recurrence(x):
    gx = apply_G(x)
    for n in range(1, x.max_index() + 2):
        assert gx.value(n + 1) - gx.value(n) == -(x.value(n) + x.value(n + 1))


# ------------------------------------------------------------------ solve_G


@given(sparse_seqs())
def test_solve_round_trip(x):
    cert = solve_G(apply_G(x))
    assert cert.feasible
    assert cert.preimage == x
    assert apply_G(cert.preimage) == cert.target


def test_solve_examples():
    cert = solve_G(apply_G(seq(1, 1)))
    assert cert.feasible and cert.preimage == seq(1, 1)
    zero = solve_G(TailSeq.zero())
    assert zero.feasible and zero.preimage == SparseSeq.zero()


def test_solve_ones_infeasible_with_alternating_magnitude_two():
    cert = solve_G(TailSeq.ones())
    assert not cert.feasible
    assert "alternating" in cert.obstruction
    assert "2/1" in cert.obstruction


def test_solve_unit_target_infeasible():
    cert = solve_G(TailSeq.constant(0, head=[1]))
    assert not cert.feasible
    assert "alternating" in cert.obstruction


def test_solve_periodic_target_not_convergent():
    cert = solve_G(TailSeq.periodic([1, -1]))
    assert not cert.feasible
    assert "not in c" in cert.obstruction


@given(sparse_seqs())
def test_injectivity(x):
    assert apply_G(x).is_zero() == x.is_zero()


def test_certificate_json():
    doc = solve_G(TailSeq.ones()).to_json()
    assert doc["feasible"] is False and "obstruction" in doc
    doc = solve_G(apply_G(seq(2))).to_json()
    assert doc["feasible"] is True and "preimage" in doc


# ------------------------------------------------------- weak-star matching


def test_weakstar_canonical_example():
    x = weakstar_approximate(TailSeq.ones(), [SparseSeq.unit(1)])
    assert x == SparseSeq.unit(2)
    assert couple(SparseSeq.unit(1), apply_G(x)) == 1


def test_weakstar_trivial_cases():
    assert weakstar_approximate(TailSeq.periodic([2, 3]), []) == SparseSeq.zero()
    x = weakstar_approximate(TailSeq.zero(), [SparseSeq.unit(1), SparseSeq.unit(2)])
    assert x == SparseSeq.zero()


def test_weakstar_needs_support_inside_test_window():
    # rows are constant beyond every test's support, so distinct targets on
    # e1 and e2 force the solver to use small indices
    y = TailSeq.constant(0, head=[1])
    tests = [SparseSeq.unit(1), SparseSeq.unit(2)]
    x = weakstar_approximate(y, tests)
    for w in tests:
        assert couple(w, apply_G(x)) == couple(w, y)


@given(sparse_seqs(max_index=8, max_size=3))
def test_weakstar_matches_all_tests(w):
    y = TailSeq.periodic([1, 0], head=[F(1, 3)])
    tests = [w, SparseSeq.unit(3), seq(1, -2)]
    x = weakstar_approximate(y, tests)
    for t in tests:
        assert couple(t, apply_G(x)) == couple(t, y)


def test_weakstar_handles_dependent_tests():
    # duplicate and proportional functionals make the system rank-deficient
    # but stay consistent; the solver must not trip on them
    y = TailSeq.constant(F(2, 3), head=[1])
    tests = [seq(1, -1), seq(1, -1), seq(-2, 2), SparseSeq.unit(5)]
    x = weakstar_approximate(y, tests)
    for w in tests:
        assert couple(w, apply_G(x)) == couple(w, y)


def weakstar_by_fractions(y, tests):
    """The moment system on ``Fraction`` rows, the entries of each Gw read
    one by one against -<w, y>, solved by the ``Fraction`` elimination."""
    images = [apply_G(w) for w in tests]
    rhs = [-couple(w, y) for w in tests]
    size = len(tests) + 2
    while True:
        rows = [[gw.value(j) for j in range(1, size + 1)] for gw in images]
        solution = ref.solve_minimal(rows, rhs)
        if solution is not None:
            return SparseSeq.from_pairs((j + 1, v) for j, v in enumerate(solution))
        size += 1
        assert size <= 64


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(sparse_seqs(10, 4), sparse_seqs(10, 4, wide_rationals()), st.just(SparseSeq.zero())),
        max_size=6,
    ),
    st.one_of(tail_seqs(6), tail_seqs(6, wide_rationals()), tail_seqs(6, rationals(0))),
)
def test_weakstar_matches_the_fraction_rows(tests, y):
    # Integer rows scaled per constraint and reduced by their gcd: the same
    # solution as the Fraction rows, zero tests and zero targets included.
    assert weakstar_approximate(y, tests) == weakstar_by_fractions(y, tests)


def test_weakstar_deterministic():
    y = TailSeq.ones()
    tests = [seq(1, 2), SparseSeq.unit(4)]
    assert weakstar_approximate(y, tests) == weakstar_approximate(y, tests)


# ------------------------------------------------------------- ratio family


def test_alternating_family():
    assert alternating(4) == seq(1, -1, 1, -1)


def test_range_ratio_examples():
    assert range_ratio_family(1) == F(1, 2)
    assert range_ratio_family(2) == F(1, 4)
    assert range_ratio_family(100) <= F(1, 100)


def test_range_ratio_closed_form():
    for m in (1, 2, 3, 5, 8):
        assert range_ratio_family(m) == F(1, 2 * m)
        assert range_ratio_family(m) <= F(1, m)
