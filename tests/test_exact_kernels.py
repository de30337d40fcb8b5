"""Integer-numerator and run-aware kernels against the Fraction reference.

``couple``, ``apply_G``/``apply_Gstar``, ``TailSeq.linf_norm``,
``TailSeq.__eq__`` and ``extension_probe`` must give exactly the values
of the one-Fraction-operation-per-value oracles in ``dense_reference``,
and every rational value they return must be a ``Fraction``.  Wide
rationals (numerators to 10**15, denominators to 10**12, often pairwise
coprime) drive the common-denominator paths.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab import fitz
from gossez_lab.adjoint import apply_Gstar
from gossez_lab.fitz import SampledGraph
from gossez_lab.gossez import apply_G
from gossez_lab.props import extension_probe
from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    PairPoint,
    SparseSeq,
    TailSeq,
    couple,
    coupling_value,
    natural_couple,
    pair_measure,
)
from gossez_lab.verdict import INCONCLUSIVE, REFUTED, WITNESS_FOUND

from strategies import (
    LARGE_PRIMES,
    far_sparse_seqs,
    rationals,
    run_tail_seqs,
    sparse_seqs,
    tail_seqs,
    wide_rationals,
)

F = Fraction
# The dense reference costs O(top) per example: few examples at far indices.
far = settings(max_examples=5, deadline=None)


def dense(x: SparseSeq) -> dict:
    return dict(x.entries)


def pair(y: TailSeq) -> tuple:
    return y.head, y.tail


def all_fractions(y: TailSeq) -> bool:
    return all(type(v) is Fraction for v in y.head + y.tail)


def assert_run_form(y: TailSeq) -> None:
    """The stored runs are the run-length form of the canonical dense head."""
    assert (y.run_ends, y.run_values) == ref.runs(y.head)
    assert pair(y) == ref.canonical(y.head, y.tail)
    assert all_fractions(y)


def test_large_primes_are_pairwise_coprime():
    for i, p in enumerate(LARGE_PRIMES):
        assert p < 10**12
        assert all(math.gcd(p, q) == 1 for q in LARGE_PRIMES[i + 1 :])


near_x = st.one_of(sparse_seqs(20, 8), sparse_seqs(20, 8, wide_rationals()))
any_y = st.one_of(tail_seqs(), tail_seqs(6, wide_rationals()))
amounts = st.one_of(st.just(F(0)), rationals(), wide_rationals())
far_seqs = far_sparse_seqs(values=st.one_of(rationals(), wide_rationals()))


# ------------------------------------------------------------- couple


@given(near_x, any_y)
def test_couple_matches_fraction_sum(x, y):
    value = couple(x, y)
    assert type(value) is Fraction
    assert value == ref.couple(dense(x), pair(y))


@far
@given(far_seqs, st.lists(wide_rationals(), min_size=1, max_size=4), st.lists(rationals()))
def test_couple_far_against_periodic_and_constant(x, pattern, head):
    for y in (TailSeq.periodic(pattern, head), TailSeq.constant(pattern[0], head)):
        value = couple(x, y)
        assert type(value) is Fraction
        assert value == ref.couple(dense(x), pair(y))


def test_zero_couplings_are_fractions():
    y = TailSeq.periodic([0, F(1, 3)], head=[F(2), 0])
    x = SparseSeq.from_pairs([(2, F(5)), (3, F(7, 2)), (5, F(-1))])  # every y value there is 0
    for x_part in (SparseSeq.zero(), x):
        assert type(couple(x_part, y)) is Fraction
        assert couple(x_part, y) == 0
    mu = ModelMeasure(SparseSeq.zero(), F(0))
    z = PairPoint.second(mu, TailSeq.zero())
    for value in (pair_measure(mu, y), coupling_value(z), natural_couple(z, z)):
        assert type(value) is Fraction and value == 0


@given(st.lists(wide_rationals(), min_size=1, max_size=4), any_y, wide_rationals())
def test_pair_measure_and_natural_couple_are_exact_fractions(values, y, mass):
    mu = ModelMeasure(SparseSeq.from_values(values), mass)
    lim = y.limit()
    if lim is None:
        mu = ModelMeasure(mu.atomic, F(0))
        lim = F(0)
    expected = ref.couple(dense(mu.atomic), pair(y)) + mu.infinity_mass * lim
    assert type(pair_measure(mu, y)) is Fraction
    assert pair_measure(mu, y) == expected
    z = PairPoint.second(mu, y)
    assert type(natural_couple(z, z)) is Fraction
    assert natural_couple(z, z) == 2 * expected


# ------------------------------------------------------- G and G*


def assert_shared_gaps(x: SparseSeq, y: TailSeq) -> None:
    """Inside every gap of x the image repeats one object."""
    support = set(x.indices)
    for n in range(2, len(y.head) + 1):
        if n - 1 not in support and n not in support:
            assert y.head[n - 1] is y.head[n - 2]


@given(near_x)
def test_apply_G_wide_matches_dense(x):
    gx = apply_G(x)
    assert pair(gx) == ref.apply_G(dense(x))
    assert_run_form(gx)
    assert len(gx.run_ends) <= 2 * len(x.entries) + 1
    assert_shared_gaps(x, gx)


@given(near_x, amounts)
def test_apply_Gstar_matches_dense(x, a):
    gstar = apply_Gstar(ModelMeasure(x, a))
    assert pair(gstar) == ref.apply_Gstar(dense(x), a)
    assert_run_form(gstar)
    assert len(gstar.run_ends) <= 2 * len(x.entries) + 1
    assert_shared_gaps(x, gstar)


@far
@given(far_seqs, amounts)
def test_apply_Gstar_matches_dense_far(x, a):
    gstar = apply_Gstar(ModelMeasure(x, a))
    assert pair(gstar) == ref.apply_Gstar(dense(x), a)
    assert_run_form(gstar)


@given(st.lists(wide_rationals().filter(bool), min_size=1, max_size=4), st.integers(1, 30))
def test_apply_Gstar_of_cancelling_atoms(values, offset):
    # Atoms summing to 0 leave a tail of exactly -a; a = 0 gives -Gx.
    x = SparseSeq.from_pairs(
        [(offset + k, v) for k, v in enumerate(values)] + [(offset + len(values), -sum(values))]
    )
    for a in (F(0), F(3, 7)):
        gstar = apply_Gstar(ModelMeasure(x, a))
        assert pair(gstar) == ref.apply_Gstar(dense(x), a)
        assert gstar.tail == (-a,)
    assert apply_Gstar(ModelMeasure(x, F(0))) == -apply_G(x)


def test_apply_Gstar_of_the_zero_measure():
    assert pair(apply_Gstar(ModelMeasure())) == ((), (F(0),))
    assert all_fractions(apply_Gstar(ModelMeasure()))


# ----------------------------------------------------- sup norm


all_tail_seqs = st.one_of(any_y, run_tail_seqs(), run_tail_seqs(wide_rationals()))


@given(all_tail_seqs)
def test_linf_norm_matches_dense(y):
    norm = y.linf_norm()
    assert type(norm) is Fraction
    assert norm == ref.linf_norm(pair(y))
    assert_run_form(y)


@far
@given(far_seqs, amounts)
def test_linf_norm_of_far_images_matches_dense(x, a):
    for y in (apply_G(x), apply_Gstar(ModelMeasure(x, a))):
        assert y.linf_norm() == ref.linf_norm(pair(y))


# --------------------------------------------------- equality and hash


def copied(y: TailSeq) -> TailSeq:
    """The same values held in distinct objects."""
    fresh = lambda v: Fraction(v.numerator, v.denominator)  # noqa: E731
    return TailSeq(tuple(fresh(v) for v in y.head), tuple(fresh(v) for v in y.tail))


def assert_eq_consistent(a: TailSeq, b: TailSeq) -> None:
    equal = pair(a) == pair(b)
    assert (a == b) is equal
    assert (a != b) is not equal
    if equal:
        assert hash(a) == hash(b)


@given(all_tail_seqs, all_tail_seqs)
def test_eq_matches_canonical_forms(a, b):
    assert_eq_consistent(a, b)
    assert_eq_consistent(a, copied(b))


@given(all_tail_seqs)
def test_equal_values_in_distinct_objects(y):
    twin = copied(y)
    assert all(u is not v for u, v in zip(y.head, twin.head))
    assert y == twin and hash(y) == hash(twin)
    assert_run_form(twin)
    assert twin.run_ends == y.run_ends


# ------------------------------------------- SparseSeq kernels


@given(near_x, st.one_of(amounts, st.integers(-5, 5)))
def test_sparse_neg_and_scale_equal_the_validated_constructor(x, c):
    neg = -x
    scaled = x.scale(c)
    assert neg.entries == SparseSeq(tuple((n, -v) for n, v in x.entries)).entries
    assert scaled.entries == SparseSeq(tuple((n, c * v) for n, v in x.entries)).entries
    assert all(type(v) is Fraction for _, v in neg.entries + scaled.entries)
    assert neg == SparseSeq.from_json(neg.to_json())
    assert scaled == SparseSeq.from_json(scaled.to_json())
    if c == 0:
        assert scaled.is_zero() and scaled == SparseSeq.zero()


@given(rationals(), rationals(), st.integers(1, 40), st.integers(0, 40), rationals())
def test_run_sharing_heads_differing_in_one_late_entry(shared, late, run, k, tail):
    head = [shared] * run + [late]
    other = list(head)
    other[-1] = late + 1
    a = TailSeq(tuple(head), (tail,))
    b = TailSeq(tuple(other), (tail,))
    assert_eq_consistent(a, b)
    # Both operands in long runs: the change sits where one run goes on.
    c = TailSeq(tuple([shared] * (run + k + 1)), (tail,))
    d = TailSeq(tuple([shared] * (run + k) + [late]), (tail,))
    assert_eq_consistent(c, d)


def test_different_head_lengths_are_unequal():
    a = TailSeq.constant(0, [1, 2])
    b = TailSeq.constant(0, [1, 2, 3])
    assert a != b and b != a
    assert TailSeq.constant(1) != TailSeq.periodic([1, 2])
    assert TailSeq.zero() != 0  # other types are never equal


@far
@given(far_seqs)
def test_far_images_equal_across_routes(x):
    gx = apply_G(x)
    again = apply_G(SparseSeq.from_pairs((n, F(v.numerator, v.denominator)) for n, v in x.entries))
    assert gx == again and hash(gx) == hash(again)
    assert apply_Gstar(ModelMeasure(x, F(0))) == -gx


# ---------------------------------------------------- extension probe


def ref_extension_terms(graph: SampledGraph, z: PairPoint):
    """(cz, [(z.w, c(w)) or None per sample]) on the reference; cz is None
    when z's own coupling leaves the model."""
    cz = ref.point_coupling(z.x, z.y)
    couplings = []
    for w in graph.points:
        parts = (ref.point_coupling(z.x, w.y), ref.point_coupling(w.x, z.y), ref.point_coupling(w.x, w.y))
        couplings.append(None if None in parts else (parts[0] + parts[1], parts[2]))
    return cz, couplings


def assert_extension_matches(graph: SampledGraph, z: PairPoint) -> None:
    """extension_probe against the discriminant oracle: the same status,
    stats and refuting sample, a refutation that re-checks exactly, and
    Fraction values in every witness."""
    verdict = extension_probe(graph, z)
    cz, couplings = ref_extension_terms(graph, z)
    if cz is None:
        assert verdict.status == INCONCLUSIVE and verdict.witnesses == ()
        assert verdict.stats == {"pairs_checked": 0, "skipped": 1}
    elif cz < 0:
        witness = {"w": PairPoint.zero(graph.system), "scale": F(1), "value": cz}
        assert verdict.status == REFUTED and verdict.witnesses == (witness,)
        assert verdict.stats == {"pairs_checked": 1}
    else:
        index, checked = ref.extension_exact(cz, couplings)
        skipped = couplings[:index].count(None)
        assert verdict.stats == {"pairs_checked": checked, "skipped": skipped}
        if index is not None:
            assert verdict.status == REFUTED
            (witness,) = verdict.witnesses
            assert witness["w"] == graph.points[index]
            t, value = witness["scale"], witness["value"]
            zw, cw = couplings[index]
            assert value == cz - t * zw + t * t * cw < 0
            assert coupling_value(z - witness["w"].scale(t)) == value
        else:
            assert verdict.status == (INCONCLUSIVE if skipped else WITNESS_FOUND)
            assert verdict.witnesses == ({"point": z, "coupling": cz},)
    for witness in verdict.witnesses:
        for key in ("value", "scale", "coupling"):
            if key in witness:
                assert type(witness[key]) is Fraction


def assert_exact_refutes_where_ladder_does(graph: SampledGraph, z: PairPoint) -> None:
    """A sample that some ladder scale refutes is refuted for every scale_max."""
    cz, couplings = ref_extension_terms(graph, z)
    if cz is None or cz < 0:
        return
    index, _ = ref.extension_exact(cz, couplings)
    for scale_max in (1, 10, 10**6):
        ladder_index = ref.extension_scan(cz, couplings, scale_max)
        if ladder_index is not None:
            assert index is not None and index <= ladder_index
            assert extension_probe(graph, z).status == REFUTED


small = st.one_of(rationals(5, 4), wide_rationals())
first_points = st.builds(
    PairPoint.first, sparse_seqs(6, 3, small), tail_seqs(3, small)
)
second_points = st.builds(
    lambda atoms, mass, y: PairPoint.second(ModelMeasure(atoms, mass), y),
    sparse_seqs(6, 3, small),
    st.one_of(st.just(F(0)), small),
    tail_seqs(3, small),
)


@settings(deadline=None)
@given(st.lists(first_points, max_size=5), first_points)
def test_extension_probe_matches_fraction_scan_first(points, z):
    graph = SampledGraph(DualSystem.FIRST, tuple(points))
    assert_extension_matches(graph, z)
    assert_exact_refutes_where_ladder_does(graph, z)


@settings(deadline=None)
@given(st.lists(second_points, max_size=5), second_points)
def test_extension_probe_matches_fraction_scan_second(points, z):
    graph = SampledGraph(DualSystem.SECOND, tuple(points))
    assert_extension_matches(graph, z)
    assert_exact_refutes_where_ladder_does(graph, z)


def test_extension_probe_with_vanishing_cross_and_own_couplings():
    # z = (e1, 0): cz = 0.  w1 = (e2, 0): zw = 0 and cw = 0, never refutes.
    # w2 = (0, -e1): zw = -1, cw = 0, so c(z - t*w2) = t < 0 at t = -1.
    z = PairPoint.first(SparseSeq.unit(1), TailSeq.zero())
    w1 = PairPoint.first(SparseSeq.unit(2), TailSeq.zero())
    w2 = PairPoint.first(SparseSeq.zero(), TailSeq.constant(0, [-1]))
    graph = SampledGraph(DualSystem.FIRST, (w1,))
    assert extension_probe(graph, z).status == WITNESS_FOUND
    assert_extension_matches(graph, z)
    graph = SampledGraph(DualSystem.FIRST, (w1, w2))
    verdict = extension_probe(graph, z)
    assert verdict.status == REFUTED
    assert verdict.witnesses[0]["scale"] == -1 and verdict.witnesses[0]["value"] == -1
    assert_extension_matches(graph, z)


def test_extension_probe_refutes_only_at_large_scale():
    # cz = 1, zw = 0, cw = -1/10**11: c(z - t*w) = 1 - t^2/10**11 < 0 only
    # from |t| > 316,227.  A ladder up to 10 misses it; the exact test
    # refutes with no scale bound.
    z = PairPoint.first(SparseSeq.unit(1), TailSeq.constant(0, [1]))
    w = PairPoint.first(SparseSeq.unit(3), TailSeq.constant(0, [0, 0, F(-1, 10**11)]))
    graph = SampledGraph(DualSystem.FIRST, (w,))
    assert ref.extension_scan(F(1), [(F(0), F(-1, 10**11))], 10) is None
    verdict = extension_probe(graph, z)
    assert verdict.status == REFUTED
    t = verdict.witnesses[0]["scale"]
    assert t == 10**11 + 1
    assert verdict.witnesses[0]["value"] == 1 - F(t * t, 10**11)
    assert_extension_matches(graph, z)


def test_extension_probe_on_the_discriminant_boundary_refutes_nothing():
    # z = (e1, e1), w = (e1 + e2, e1): cz = 1, zw = 2, cw = 1, so
    # c(z - t*w) = (t - 1)^2 touches 0 at t = 1 and is never negative.
    z = PairPoint.first(SparseSeq.unit(1), TailSeq.constant(0, [1]))
    w = PairPoint.first(SparseSeq.unit(1) + SparseSeq.unit(2), TailSeq.constant(0, [1]))
    assert (coupling_value(w), natural_couple(z, w)) == (1, 2)
    assert coupling_value(z - w) == 0
    graph = SampledGraph(DualSystem.FIRST, (w,))
    assert extension_probe(graph, z).status == WITNESS_FOUND
    assert_extension_matches(graph, z)
    # One more unit of cross coupling crosses the boundary: B^2 > 4AC.
    w = PairPoint.first(SparseSeq.unit(1) + SparseSeq.unit(2), TailSeq.constant(0, [F(3, 2)]))
    graph = SampledGraph(DualSystem.FIRST, (w,))
    verdict = extension_probe(graph, z)
    assert verdict.status == REFUTED
    assert_extension_matches(graph, z)


def test_extension_probe_couples_each_graph_point_once(monkeypatch):
    # Repeated probes of one graph reuse its couplings, and a point outside
    # the model (mass at infinity against an oscillating y) is skipped.
    calls = []

    def counting(w):
        calls.append(w)
        return coupling_value(w)

    monkeypatch.setattr(fitz, "coupling_value", counting)
    outside = PairPoint.second(ModelMeasure(SparseSeq.unit(1), F(1)), TailSeq.periodic([1, -1]))
    units = [ModelMeasure.from_atomic(SparseSeq.unit(k)) for k in (1, 2, 3)]
    points = [PairPoint.second(x, apply_G(x.atomic)) for x in units]
    graph = SampledGraph(DualSystem.SECOND, (outside, *points))
    probes = [PairPoint.second(x, TailSeq.constant(k, [0] * k)) for k, x in enumerate(units)]
    for z in probes:
        assert_extension_matches(graph, z)
        assert extension_probe(graph, z).stats["skipped"] == 1
    assert calls == list(graph.points)
