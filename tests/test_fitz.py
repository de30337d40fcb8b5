"""Fitzpatrick values: sampled lower bounds vs closed forms, the operator table,
annihilators."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gossez_lab.fitz import (
    MINUS_INF,
    OP_G_FIRST,
    OP_G_SECOND,
    OP_NEGG_SECOND,
    OPERATORS,
    PLUS_INF,
    SampledGraph,
    annihilator_truncated,
    annihilator_violation,
    divergence_certificate,
    fitz_sampled,
    orthogonality_report,
)
from gossez_lab.gossez import apply_G
from gossez_lab.sampling import (
    embed_first,
    fitz_graph_samples,
    graph_point_first,
    off_graph_first,
    rng_for,
    unit_graph_points,
)
from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    PairPoint,
    SparseSeq,
    SystemMismatchError,
    TailSeq,
)
from gossez_lab.verdict import INCONCLUSIVE, REFUTED, VERIFIED

import dense_reference as ref
from strategies import (
    constant_tail_seqs,
    model_measures,
    nonzero_rationals,
    seq,
    sparse_seqs,
    tail_seqs,
)

F = Fraction

UNIT_MASS = ModelMeasure(SparseSeq.zero(), F(1))
CANONICAL = PairPoint.second(UNIT_MASS, TailSeq.ones())
G_FIRST = OPERATORS[OP_G_FIRST]
G_SECOND = OPERATORS[OP_G_SECOND]
NEGG_SECOND = OPERATORS[OP_NEGG_SECOND]
# (mu, -G* mu) and (mu, G* mu): Fitzpatrick graph points of G and -G.
graph_negGstar_point = G_SECOND.fitz_point
graph_Gstar_point = NEGG_SECOND.fitz_point


def first_graph(*xs) -> SampledGraph:
    return SampledGraph(
        DualSystem.FIRST, tuple(graph_point_first(x) for x in xs), G_FIRST
    )


# ------------------------------------------------------------ sampled values


def test_fitz_sampled_zero_sample():
    g = SampledGraph(DualSystem.FIRST, (PairPoint.zero(DualSystem.FIRST),))
    assert fitz_sampled(PairPoint.first(seq(1), TailSeq.ones()), g) == 0


def test_fitz_sampled_on_graph_point():
    g = first_graph(SparseSeq.unit(1))
    assert fitz_sampled(g.points[0], g) == 0


def test_fitz_sampled_scaled_family_max():
    # family (t*e1, G(t*e1)) for t = 1..10 against z = (0, ones): value is t
    points = tuple(
        graph_point_first(SparseSeq.unit(1).scale(t)) for t in range(1, 11)
    )
    g = SampledGraph(DualSystem.FIRST, points, G_FIRST)
    z = PairPoint.first(SparseSeq.zero(), TailSeq.ones())
    assert fitz_sampled(z, g) == 10


def test_fitz_sampled_empty_is_minus_inf():
    empty = SampledGraph(DualSystem.FIRST, ())
    assert fitz_sampled(PairPoint.zero(DualSystem.FIRST), empty) == MINUS_INF


# -------------------------------------------------------------- closed forms


def test_fitz_closed_first_examples():
    assert G_FIRST.fitz_closed(graph_point_first(SparseSeq.unit(1))) == 0
    assert G_FIRST.fitz_closed(PairPoint.first(SparseSeq.zero(), TailSeq.ones())) == PLUS_INF
    assert G_FIRST.fitz_closed(PairPoint.zero(DualSystem.FIRST)) == 0


def test_fitz_closed_first_rejects_second_system():
    with pytest.raises(ValueError):
        G_FIRST.fitz_closed(CANONICAL)


@given(sparse_seqs())
def test_sampled_below_closed_on_graph(x):
    z = graph_point_first(x)
    g = first_graph(x, SparseSeq.unit(1), seq(1, -2))
    sampled = fitz_sampled(z, g)
    assert sampled <= G_FIRST.fitz_closed(z)
    assert sampled == 0


def test_divergence_certificate_exceeds_threshold():
    z = PairPoint.first(SparseSeq.zero(), TailSeq.ones())
    cert = divergence_certificate(G_FIRST, z, threshold=10**6)
    assert cert["value"] > 10**6
    on = graph_point_first(seq(1, 2))
    with pytest.raises(ValueError):
        divergence_certificate(G_FIRST, on)


@st.composite
def off_fitz_graph_points(draw, op_id):
    """(z, d): the row's Fitzpatrick point moved by a nonzero deviation d,
    often oscillating or zero on a head of up to six indices; second-system
    x-parts often carry mass at infinity."""
    op = OPERATORS[op_id]
    x = draw(sparse_seqs())
    if op.system is DualSystem.SECOND:
        x = ModelMeasure(x, draw(st.one_of(st.just(F(0)), nonzero_rationals())))
    zeros = tuple([0] * draw(st.integers(0, 6)))
    c = draw(nonzero_rationals())
    tail = draw(st.sampled_from([(c,), (1, -1), (0, c)]))
    deviation = draw(st.one_of(st.just(TailSeq(zeros, tail)), tail_seqs()))
    assume(deviation != TailSeq.zero())
    return PairPoint(op.system, x, op.fitz_y(x) + deviation), deviation


@pytest.mark.parametrize("op_id", [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND])
@given(data=st.data(), threshold=st.sampled_from([1, 10**3, 10**6]))
def test_divergence_certificate_on_every_row(op_id, data, threshold):
    # The certificate's value is the sampled Fitzpatrick value at one graph
    # point, scale * margin, with the margin the first nonzero deviation.
    op = OPERATORS[op_id]
    z, deviation = data.draw(off_fitz_graph_points(op_id))
    assert op.fitz_closed(z) == PLUS_INF
    cert = divergence_certificate(op, z, threshold)
    index, scale, margin = cert["direction_index"], cert["scale"], cert["margin"]
    assert all(deviation.value(n) == 0 for n in range(1, index))
    assert margin == deviation.value(index) != 0
    sample = op.sampled_graph([SparseSeq.unit(index).scale(scale)])
    assert cert["value"] == fitz_sampled(z, sample) == scale * margin > threshold
    assert cert["threshold"] == threshold


@given(sparse_seqs(), tail_seqs())
def test_divergence_certificate_matches_the_first_system_oracle(x, y):
    z = PairPoint.first(x, y)
    assume(not G_FIRST.on_fitz_graph(z))
    assert divergence_certificate(G_FIRST, z) == ref.divergence_certificate_first(z)


def test_divergence_certificate_matches_the_oracle_on_off_graph_samples():
    for z in off_graph_first(rng_for(0, "certificate-oracle"), 200, 32):
        assert divergence_certificate(G_FIRST, z) == ref.divergence_certificate_first(z)


@pytest.mark.parametrize("op_id", [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND])
def test_divergence_certificate_refuses_graph_and_other_system_points(op_id):
    op = OPERATORS[op_id]
    x = seq(1, F(-2, 3), 0, 4)
    x_part = x if op.system is DualSystem.FIRST else ModelMeasure(x, F(5, 2))
    with pytest.raises(ValueError, match="Fitzpatrick graph"):
        divergence_certificate(op, op.fitz_point(x_part))
    other = DualSystem.SECOND if op.system is DualSystem.FIRST else DualSystem.FIRST
    with pytest.raises(ValueError, match="expects"):
        divergence_certificate(op, PairPoint(other, PairPoint.zero(other).x, TailSeq.ones()))


def test_fitz_closed_second_G_examples():
    assert G_SECOND.fitz_closed(CANONICAL) == 0
    embedded = embed_first(SparseSeq.unit(1))
    assert G_SECOND.fitz_closed(embedded) == 0
    off = PairPoint.second(UNIT_MASS, TailSeq.zero())
    assert G_SECOND.fitz_closed(off) == PLUS_INF


def test_fitz_closed_second_negG_examples():
    on = PairPoint.second(UNIT_MASS, -TailSeq.ones())
    assert NEGG_SECOND.fitz_closed(on) == 0
    assert NEGG_SECOND.fitz_closed(CANONICAL) == PLUS_INF
    assert NEGG_SECOND.fitz_closed(PairPoint.zero(DualSystem.SECOND)) == 0


@given(model_measures())
def test_closed_forms_are_sign_mirrors(mu):
    z = graph_Gstar_point(mu)
    mirrored = PairPoint.second(z.x, -z.y)
    assert NEGG_SECOND.fitz_closed(z) == G_SECOND.fitz_closed(mirrored) == 0
    w = graph_negGstar_point(mu)
    assert G_SECOND.fitz_closed(w) == NEGG_SECOND.fitz_closed(
        PairPoint.second(w.x, -w.y)
    ) == 0


@given(model_measures())
def test_sign_mirror_holds_off_graph_too(mu):
    z = PairPoint.second(mu, TailSeq.constant(F(7, 3), head=[1]))
    mirrored = PairPoint.second(z.x, -z.y)
    assert NEGG_SECOND.fitz_closed(z) == G_SECOND.fitz_closed(mirrored)


@given(model_measures())
def test_second_sampled_vanishes_on_embedded_closure(mu):
    z = graph_negGstar_point(mu)
    embedded = SampledGraph(
        DualSystem.SECOND,
        tuple(embed_first(x) for x in (SparseSeq.unit(1), seq(1, 1), seq(0, 2, -3))),
        G_SECOND,
    )
    assert fitz_sampled(z, embedded) == 0 <= G_SECOND.fitz_closed(z)


# --------------------------------------------------------------- annihilator


def test_annihilator_first_system():
    n = 8
    spanning = unit_graph_points(n)
    result = annihilator_truncated(spanning, n, DualSystem.FIRST)
    assert result.truncation == n
    # free coordinates: the n graph directions plus the tail coordinate
    assert len(result.basis) == n + 1
    for vec in result.basis:
        assert annihilator_violation(vec, spanning) is None
    for x in (seq(1, -2, 3), SparseSeq.unit(5), seq(0, F(1, 3))):
        assert annihilator_violation(graph_point_first(x), spanning) is None
    off = PairPoint.first(seq(1), apply_G(seq(1)) + TailSeq.constant(0, head=[1]))
    assert annihilator_violation(off, spanning) is not None


def test_annihilator_of_zero_span_is_everything():
    n = 3
    spanning = [PairPoint.zero(DualSystem.FIRST)]
    result = annihilator_truncated(spanning, n, DualSystem.FIRST)
    assert len(result.basis) == 2 * n + 1


def test_annihilator_second_system_contains_mass_direction():
    n = 6
    spanning = [embed_first(SparseSeq.unit(k)) for k in range(1, n + 1)]
    result = annihilator_truncated(spanning, n, DualSystem.SECOND)
    assert len(result.basis) == n + 2
    for a in (F(1), F(-3, 2)):
        direction = PairPoint.second(
            ModelMeasure(SparseSeq.zero(), a), TailSeq.constant(a)
        )
        assert annihilator_violation(direction, spanning) is None
    for mu in (ModelMeasure(seq(1, 2), F(1, 2)), ModelMeasure.from_atomic(seq(-1))):
        assert annihilator_violation(graph_negGstar_point(mu), spanning) is None


def window_head(*values, tail=0):
    return TailSeq(tuple(F(v) for v in values), (F(tail),))


def test_unit_graph_annihilators_at_window_4_are_the_graph_parametrization():
    # The y-head pivots first: (e_k, (G e_k)_1..4, tail 0) for k = 1..4, then
    # the mass direction (second system only) and the tail direction.
    graph = [
        (seq(1), window_head(0, -1, -1, -1)),
        (seq(0, 1), window_head(1, 0, -1, -1)),
        (seq(0, 0, 1), window_head(1, 1, 0, -1)),
        (seq(0, 0, 0, 1), window_head(1, 1, 1, 0)),
    ]
    tail = (SparseSeq.zero(), window_head(0, 0, 0, 0, tail=1))
    first = annihilator_truncated(unit_graph_points(4), 4, DualSystem.FIRST)
    assert list(first.basis) == [PairPoint.first(x, y) for x, y in [*graph, tail]]
    spanning = [embed_first(SparseSeq.unit(k)) for k in range(1, 5)]
    second = annihilator_truncated(spanning, 4, DualSystem.SECOND)
    assert list(second.basis) == [
        *(PairPoint.second(ModelMeasure.from_atomic(x), y) for x, y in graph),
        PairPoint.second(UNIT_MASS, window_head(1, 1, 1, 1)),
        PairPoint.second(ModelMeasure.from_atomic(tail[0]), tail[1]),
    ]


@given(st.integers(1, 40))
def test_unit_graph_annihilators_are_the_graph_parametrization(n):
    window = range(1, n + 1)
    zeros = (F(0),) * n
    graph = []
    for k in window:
        y = apply_G(SparseSeq.unit(k))
        graph.append((SparseSeq.unit(k), TailSeq(tuple(y.value(j) for j in window), (F(0),))))
    first = annihilator_truncated(unit_graph_points(n), n, DualSystem.FIRST)
    tail = TailSeq(zeros, (F(1),))
    assert list(first.basis) == [
        *(PairPoint.first(x, y) for x, y in graph),
        PairPoint.first(SparseSeq.zero(), tail),
    ]
    spanning = [embed_first(SparseSeq.unit(k)) for k in window]
    second = annihilator_truncated(spanning, n, DualSystem.SECOND)
    assert list(second.basis) == [
        *(PairPoint.second(ModelMeasure.from_atomic(x), y) for x, y in graph),
        PairPoint.second(UNIT_MASS, TailSeq((F(1),) * n, (F(0),))),
        PairPoint.second(ModelMeasure.from_atomic(SparseSeq.zero()), tail),
    ]


def test_wide_unit_graph_window_has_one_x_entry_per_basis_vector():
    n = 256
    spanning = unit_graph_points(n)
    basis = annihilator_truncated(spanning, n, DualSystem.FIRST).basis
    assert len(basis) == n + 1
    for vec in basis:
        assert len(vec.x.indices) <= 1
        assert annihilator_violation(vec, spanning) is None


@st.composite
def spanning_sets(draw, system, n=5, max_head=4):
    """A few points with x inside the window; in the second system with
    mass at infinity and convergent y.  A y head may reach past the window."""
    points = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(sparse_seqs(max_index=n, max_size=3))
        if system is DualSystem.FIRST:
            points.append(PairPoint.first(x, draw(tail_seqs(max_head))))
        else:
            mu = ModelMeasure(x, draw(nonzero_rationals()))
            points.append(PairPoint.second(mu, draw(constant_tail_seqs(max_head))))
    return points


@pytest.mark.parametrize("system", [DualSystem.FIRST, DualSystem.SECOND])
@given(data=st.data())
def test_annihilator_matches_the_per_system_builders(system, data):
    n = 5
    spanning = data.draw(st.one_of(spanning_sets(system, n), spanning_sets(system, n, 9)))
    result = annihilator_truncated(spanning, n, system)
    assert list(result.basis) == ref.annihilator_basis(spanning, n, system)
    for vec in result.basis:
        assert annihilator_violation(vec, spanning) is None


def test_annihilator_rejects_wide_support():
    with pytest.raises(ValueError):
        annihilator_truncated([graph_point_first(SparseSeq.unit(9))], 4, DualSystem.FIRST)


def test_annihilator_rejects_points_of_the_other_system():
    # A second-system row is one coordinate longer; eliminating it as a
    # first-system row would return a wrong basis instead of failing.
    with pytest.raises(SystemMismatchError):
        annihilator_truncated([embed_first(SparseSeq.unit(1))], 4, DualSystem.FIRST)
    with pytest.raises(SystemMismatchError):
        annihilator_truncated(unit_graph_points(2), 4, DualSystem.SECOND)


# --------------------------------------------------------------- orthogonality


def test_orthogonality_graph_vs_itself():
    g = first_graph(SparseSeq.unit(1), SparseSeq.unit(2), seq(1, -1), seq(F(1, 2), 0, 3))
    report = orthogonality_report(g.points, g.points)
    assert report.status == VERIFIED
    assert report.stats["zeros"] == len(g.points) ** 2


def test_orthogonality_mass_direction_passes():
    g = first_graph(SparseSeq.unit(1), seq(2, -1))
    embedded = SampledGraph(
        DualSystem.SECOND,
        tuple(embed_first(p.x) for p in g.points),
        G_SECOND,
    )
    assert orthogonality_report(embedded.points, (CANONICAL,)).status == VERIFIED


def test_orthogonality_violation_is_reported():
    g = first_graph(SparseSeq.unit(1), SparseSeq.unit(2))
    b = (PairPoint.first(SparseSeq.zero(), TailSeq.ones()),)
    report = orthogonality_report(g.points, b)
    assert report.status == REFUTED
    witness = report.witnesses[0]
    assert witness["value"] == 1


def test_orthogonality_on_empty_graphs_is_inconclusive():
    # No pair is evaluated, so nothing is verified.
    g = first_graph(SparseSeq.unit(1))
    empty = ()
    for a, b in ((empty, empty), (g.points, empty), (empty, g.points)):
        report = orthogonality_report(a, b)
        assert report.status == INCONCLUSIVE
        assert report.stats["pairs_checked"] == 0


# ------------------------------------------------------------ operator table


def test_operator_table_entries():
    assert list(OPERATORS) == [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND]
    rows = {
        op.id: (op.system, op.fitz_graph, op.profile)
        for op in OPERATORS.values()
    }
    assert rows == {
        OP_G_FIRST: (DualSystem.FIRST, "Graph G", "maximal-consistent"),
        OP_G_SECOND: (DualSystem.SECOND, "Graph negG*", "not-maximal-consistent"),
        OP_NEGG_SECOND: (DualSystem.SECOND, "Graph G*", "NI-but-not-maximal-consistent"),
    }


def test_operator_table_membership():
    # The model slice of the closed graph of embedded G: mass-free points
    # with y = G(atomic); the closure's extra points are not representable.
    assert G_SECOND.fitz_closed(CANONICAL) == 0
    assert G_SECOND.on_graph(embed_first(seq(1, 2)))
    assert not G_SECOND.on_graph(CANONICAL)
    with_mass = PairPoint.second(ModelMeasure(seq(1, 2), F(1)), apply_G(seq(1, 2)))
    assert not G_SECOND.on_graph(with_mass)
    negated = PairPoint.second(ModelMeasure.from_atomic(seq(1)), -apply_G(seq(1)))
    assert NEGG_SECOND.on_graph(negated)
    assert not NEGG_SECOND.on_graph(embed_first(seq(1)))
    with pytest.raises(ValueError):
        G_SECOND.fitz_closed(PairPoint.zero(DualSystem.FIRST))


@given(sparse_seqs())
def test_graph_points_lie_on_their_graphs(x):
    for op in OPERATORS.values():
        z = op.graph_point(x)
        assert z.system is op.system
        assert op.on_graph(z)
        graph = op.sampled_graph([x, x])
        assert graph.points == (z,) and graph.op is op
    # Embedded graph points lie on the Fitzpatrick graph: Graph(-G*) for G,
    # Graph G* for -G.
    assert G_SECOND.fitz_closed(G_SECOND.graph_point(x)) == 0
    assert NEGG_SECOND.fitz_closed(NEGG_SECOND.graph_point(x)) == 0


def test_fitz_graph_samples_lie_on_the_fitzpatrick_graph():
    for op in (G_SECOND, NEGG_SECOND):
        points = fitz_graph_samples(op, 3, 12)
        assert points == fitz_graph_samples(op, 3, 12)
        assert all(op.on_fitz_graph(z) and op.fitz_closed(z) == 0 for z in points)
        assert any(z.x.infinity_mass != 0 for z in points)
    with pytest.raises(KeyError):
        fitz_graph_samples(G_FIRST, 3, 12)


def test_sampled_graph_dedup_and_json():
    p = graph_point_first(SparseSeq.unit(1))
    g = SampledGraph(DualSystem.FIRST, (p, p), G_FIRST)
    assert len(g.points) == 1
    doc = g.to_json()
    assert doc["op"] == OP_G_FIRST
    assert SampledGraph.from_json(doc).points == g.points
    assert SampledGraph.from_json(doc).op is G_FIRST
    rowless = SampledGraph(DualSystem.FIRST, (p,))
    assert rowless.to_json()["op"] is None
    assert SampledGraph.from_json(rowless.to_json()) == rowless


def test_sampled_graph_from_json_rejects_unknown_operator():
    # The row is read back by its id; an id outside the table is not a row.
    doc = SampledGraph(DualSystem.FIRST, ()).to_json()
    for op_id in ("bogus", "Graph G"):
        with pytest.raises(ValueError):
            SampledGraph.from_json({**doc, "op": op_id})


def test_sampled_graph_dedup_keeps_first_of_equal_objects_in_order():
    a = graph_point_first(SparseSeq.from_pairs([(2, F(1, 3))]))
    b = graph_point_first(SparseSeq.unit(1))
    # Built apart: equal to a and b, but other objects.
    a2 = PairPoint.first(
        SparseSeq.from_pairs([(2, F(2, 6))]), apply_G(SparseSeq.from_pairs([(2, F(1, 3))]))
    )
    b2 = PairPoint.first(SparseSeq.from_pairs([(1, 1)]), TailSeq.from_json(b.y.to_json()))
    assert a2 == a and a2 is not a and b2 == b and b2 is not b
    g = SampledGraph(DualSystem.FIRST, (a, b2, a2, b, a), G_FIRST)
    assert g.points == (a, b2)
    assert g.points[0] is a and g.points[1] is b2


@given(
    st.lists(st.integers(0, 4), max_size=12),
    st.lists(sparse_seqs(max_index=4, max_size=2), min_size=5, max_size=5),
)
def test_sampled_graph_dedup_matches_quadratic_scan(picks, xs):
    # Each pick rebuilds its point, so equal points are distinct objects.
    points = tuple(graph_point_first(SparseSeq.from_pairs(xs[k].entries)) for k in picks)
    unique = []
    for p in points:
        if p not in unique:
            unique.append(p)
    kept = SampledGraph(DualSystem.FIRST, points, G_FIRST).points
    assert kept == tuple(unique)
    assert all(k is u for k, u in zip(kept, unique))


def test_sampled_graph_rejects_mixed_systems():
    with pytest.raises(ValueError):
        SampledGraph(DualSystem.FIRST, (CANONICAL,))


def test_sampled_graph_rejects_a_row_of_the_other_system():
    points = (graph_point_first(SparseSeq.unit(1)),)
    for op in (G_SECOND, NEGG_SECOND):
        with pytest.raises(ValueError):
            SampledGraph(DualSystem.FIRST, points, op)
    with pytest.raises(ValueError):
        SampledGraph(DualSystem.SECOND, (CANONICAL,), G_FIRST)


def test_closed_reads_the_rows_closed_form_once_per_point():
    # CANONICAL lies on Graph(-G*) but not on Graph G*; the point with the
    # zero y lies on neither.
    off = PairPoint.second(UNIT_MASS, TailSeq.zero())
    for op, expected in ((G_SECOND, (0, PLUS_INF)), (NEGG_SECOND, (PLUS_INF, PLUS_INF))):
        graph = SampledGraph(DualSystem.SECOND, (CANONICAL, off), op)
        assert graph.closed == expected
        assert graph.closed is graph.closed


def test_closed_needs_a_row():
    # A point set sampled from no row has no closed form to read.
    graph = SampledGraph(DualSystem.FIRST, (graph_point_first(SparseSeq.unit(1)),))
    assert graph.op is None
    with pytest.raises(ValueError):
        graph.closed


# ------------------------------------------- derived methods vs the old table


def test_each_row_holds_exactly_two_maps():
    for op in OPERATORS.values():
        maps = [f.name for f in dataclasses.fields(op) if callable(getattr(op, f.name))]
        assert maps == ["graph_y", "fitz_y"]


@st.composite
def table_probes(draw, op_id):
    """(x, x-part, points) for one row: its graph and Fitzpatrick graph
    points, their sign flips, oscillating and arbitrary y, deviations off
    the graphs, and in the second system measures with mass at infinity."""
    op, oracle = OPERATORS[op_id], ref.OPERATOR_ORACLES[op_id]
    x = draw(sparse_seqs())
    if op.system is DualSystem.FIRST:
        x_parts = [x]
    else:
        mass = draw(nonzero_rationals())
        x_parts = [ModelMeasure.from_atomic(x), ModelMeasure(x, mass), draw(model_measures())]
    x_part = draw(st.sampled_from(x_parts))
    deviation = TailSeq.constant(0, [0] * draw(st.integers(0, 6)) + [draw(nonzero_rationals())])
    ys = [
        oracle.graph_point(x).y,
        oracle.fitz_point(x_part).y,
        draw(tail_seqs()),
        TailSeq.periodic([1, -1]),
    ]
    ys += [-y for y in ys[:2]] + [y + deviation for y in ys[:2]]
    points = [PairPoint(op.system, xp, y) for xp in x_parts for y in ys]
    return x, x_part, points


@pytest.mark.parametrize("op_id", [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND])
@given(data=st.data())
def test_derived_methods_match_the_old_table(op_id, data):
    op, oracle = OPERATORS[op_id], ref.OPERATOR_ORACLES[op_id]
    x, x_part, points = data.draw(table_probes(op_id))
    assert op.graph_point(x) == oracle.graph_point(x)
    assert op.fitz_point(x_part) == oracle.fitz_point(x_part)
    assert op.on_graph(oracle.graph_point(x))
    assert op.on_fitz_graph(oracle.fitz_point(x_part))
    graph = op.sampled_graph([x])
    for z in points:
        assert op.on_graph(z) == oracle.on_graph(z), z
        assert op.on_fitz_graph(z) == oracle.on_fitz_graph(z), z
        assert op.fitz_closed(z) == (0 if oracle.on_fitz_graph(z) else PLUS_INF)
        # The tests a sampled graph of the row reads, through its row.
        assert graph.op.on_graph(z) == oracle.on_graph(z)
        assert graph.op.on_fitz_graph(z) == oracle.on_fitz_graph(z)
