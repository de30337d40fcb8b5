"""Property checkers: monotonicity, extension probing, NI search, dichotomy."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab.fitz import (
    OP_G_FIRST,
    OP_G_SECOND,
    OP_NEGG_SECOND,
    OPERATORS,
    PLUS_INF,
    SampledGraph,
    orthogonality_report,
)
from gossez_lab.gossez import apply_G
from gossez_lab.props import (
    ProbeSet,
    dichotomy_crosscheck,
    extension_probe,
    is_monotone,
    representability_check,
)
from gossez_lab.sampling import (
    embed_first,
    graph_point_first,
    off_graph_first,
    random_sparse,
    rng_for,
    unit_graph_points,
)
from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    OutsideModelDomain,
    PairPoint,
    SparseSeq,
    TailSeq,
    coupling_value,
)
from gossez_lab.verdict import INCONCLUSIVE, REFUTED, VERIFIED, WITNESS_FOUND

from strategies import ni_search, random_graph_points, seq, sparse_seqs, tail_seqs

F = Fraction

UNIT_MASS = ModelMeasure(SparseSeq.zero(), F(1))
CANONICAL = PairPoint.second(UNIT_MASS, TailSeq.ones())


def represent(graph, probes, **kwargs):
    """``representability_check`` over the graph row's own probe values."""
    values = tuple(map(graph.op.evaluate, probes.points))
    return representability_check(graph, probes, values, **kwargs)


def graph_samples(count=20, seed=7) -> SampledGraph:
    rng = rng_for(seed, "test-graph")
    points = unit_graph_points(4) + random_graph_points(rng, count, 16, 4, 20, 20)
    return SampledGraph(DualSystem.FIRST, tuple(points), OPERATORS[OP_G_FIRST])


# ----------------------------------------------------------------- monotone


def test_is_monotone_on_graph_samples():
    g = graph_samples(30)
    verdict = is_monotone(g)
    assert verdict.status == VERIFIED
    n = len(g.points)
    assert verdict.stats == {"pairs_checked": n * (n - 1) // 2, "skipped": 0}
    # skew graph: every plane's quadratic vanishes identically
    couplings, cross = ref.plane_terms(g.points)
    assert set(couplings) == {0} and {v for row in cross for v in row} == {0}
    assert_monotone_matches_exact(g)


def test_is_monotone_refutes_with_exact_pair():
    w = PairPoint.first(SparseSeq.unit(1), -TailSeq.ones())
    bad = SampledGraph(DualSystem.FIRST, (PairPoint.zero(DualSystem.FIRST), w))
    verdict = is_monotone(bad)
    assert verdict.status == REFUTED
    witness = verdict.witnesses[0]
    # c(0 - t*w) = -t^2: the scale 1 refutes with value -1
    assert witness["z"] == PairPoint.zero(DualSystem.FIRST) and witness["w"] == w
    assert (witness["scale"], witness["value"]) == (1, -1)
    # the witness re-validates in isolation
    assert coupling_value(witness["z"] - witness["w"].scale(witness["scale"])) == witness["value"]
    assert_monotone_matches_exact(bad)


def test_is_monotone_refutes_on_a_plane_where_every_pair_difference_is_monotone():
    # c(w1) = 4, c(w2) = 1, w1.w2 = 9/2: c(w1 - w2) = 1/2, but
    # c(w1 - t*w2) = 4 - 9t/2 + t^2 is -17/16 at its vertex t = 9/4.
    w1 = PairPoint.first(SparseSeq.unit(1), TailSeq.constant(0, [4, F(9, 4)]))
    w2 = PairPoint.first(SparseSeq.unit(2), TailSeq.constant(0, [F(9, 4), 1]))
    graph = SampledGraph(DualSystem.FIRST, (w1, w2))
    assert coupling_value(w1 - w2) == F(1, 2)
    assert direct_is_monotone(graph) is None
    verdict = is_monotone(graph)
    assert verdict.status == REFUTED
    assert verdict.witnesses == ({"z": w1, "w": w2, "scale": F(9, 4), "value": F(-17, 16)},)
    assert_monotone_matches_exact(graph)


def test_is_monotone_single_point():
    # One point makes no pair: nothing is evaluated, nothing is verified.
    g = SampledGraph(DualSystem.FIRST, (graph_point_first(seq(1, 2)),), OPERATORS[OP_G_FIRST])
    verdict = is_monotone(g)
    assert verdict.status == INCONCLUSIVE
    assert verdict.stats["pairs_checked"] == 0


def test_is_monotone_empty_graph_is_inconclusive():
    verdict = is_monotone(SampledGraph(DualSystem.FIRST, (), OPERATORS[OP_G_FIRST]))
    assert verdict.status == INCONCLUSIVE
    assert verdict.stats["pairs_checked"] == 0


def test_monotonicity_inherited_by_subsets():
    g = graph_samples(16)
    rng = random.Random(5)
    for _ in range(5):
        subset = tuple(rng.sample(g.points, rng.randint(2, len(g.points))))
        sub = SampledGraph(DualSystem.FIRST, subset, OPERATORS[OP_G_FIRST])
        assert is_monotone(sub).status == VERIFIED


def direct_is_monotone(graph: SampledGraph) -> tuple | None:
    """The former scan of c(z1 - z2) at s = t = 1: the first sample pair
    (i, j), i < j, with c(w_i - w_j) < 0, or None."""
    for i, z1 in enumerate(graph.points):
        for j in range(i + 1, len(graph.points)):
            try:
                if coupling_value(z1 - graph.points[j]) < 0:
                    return i, j
            except OutsideModelDomain:
                pass
    return None


def assert_monotone_matches_exact(graph: SampledGraph) -> None:
    """is_monotone against the plane oracle: the same status, stats and
    refuting pair, and a refutation that re-checks exactly in Fractions.
    Against the weaker direct scan: each of its refutations is a plane
    refutation at the same pair or an earlier one when the plane test can
    decide that pair, and never meets a verified verdict."""
    verdict = is_monotone(graph)
    couplings, cross = ref.plane_terms(graph.points)
    position, checked, skipped = ref.monotone_exact(couplings, cross)
    assert verdict.stats == {"pairs_checked": checked, "skipped": skipped}
    if position is None:
        assert verdict.status == (VERIFIED if checked and not skipped else INCONCLUSIVE)
        assert verdict.witnesses == ()
    else:
        i, j = position
        assert verdict.status == REFUTED
        (witness,) = verdict.witnesses
        assert witness["z"] == graph.points[i]
        if j is None:
            assert witness["w"] == PairPoint.zero(graph.system) and witness["scale"] == 1
            zw = cw = 0
        else:
            assert witness["w"] == graph.points[j]
            zw, cw = cross[i][j], couplings[j]
        t, value = witness["scale"], witness["value"]
        assert type(t) is Fraction and type(value) is Fraction
        assert value == couplings[i] - t * zw + t * t * cw < 0
        assert coupling_value(witness["z"] - witness["w"].scale(t)) == value
    direct = direct_is_monotone(graph)
    if direct is not None:
        assert verdict.status != VERIFIED
        di, dj = direct
        if None not in (couplings[di], couplings[dj], cross[di][dj]):
            i, j = position
            assert (i, i if j is None else j) <= direct


first_points = st.builds(PairPoint.first, sparse_seqs(8, 4), tail_seqs(3))
# Masses from {0, 1, -1, 1/2} often coincide, so differences cancel the mass
# while a term on its own leaves the model.
masses = st.sampled_from([F(0), F(1), F(-1), F(1, 2)])
second_points = st.builds(
    PairPoint.second, st.builds(ModelMeasure, sparse_seqs(8, 4), masses), tail_seqs(3)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(first_points, max_size=6))
def test_bilinear_monotone_scan_equals_the_direct_one_first_system(points):
    assert_monotone_matches_exact(SampledGraph(DualSystem.FIRST, tuple(points)))


@settings(max_examples=60, deadline=None)
@given(st.lists(second_points, max_size=6))
def test_bilinear_monotone_scan_equals_the_direct_one_second_system(points):
    assert_monotone_matches_exact(SampledGraph(DualSystem.SECOND, tuple(points)))


def test_monotone_falls_back_where_a_term_leaves_the_model():
    # Equal masses cancel in the difference although each y oscillates:
    # c(z1 - z2) is in the model, but c(z1) is not, so the plane test
    # decides no pair with z1 and does not fall back to the difference.
    z1 = PairPoint.second(ModelMeasure(seq(0, 1), F(1)), TailSeq.periodic([0, 1]))
    z2 = PairPoint.second(ModelMeasure(SparseSeq.zero(), F(1)), TailSeq.periodic([1, 0]))
    z3 = PairPoint.second(ModelMeasure(SparseSeq.zero(), F(2)), TailSeq.ones())
    graph = SampledGraph(DualSystem.SECOND, (z1, z2, z3))
    with pytest.raises(OutsideModelDomain):
        coupling_value(z1)
    assert coupling_value(z1 - z2) == 1
    verdict = is_monotone(graph)
    # (z1, z2), (z1, z3) and (z2, z3) each meet a coupling outside the model.
    assert verdict.stats == {"pairs_checked": 0, "skipped": 3}
    assert verdict.status == INCONCLUSIVE
    assert_monotone_matches_exact(graph)


@pytest.mark.parametrize("op_id", [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND])
def test_bilinear_monotone_scan_on_sampled_graphs(op_id):
    op = OPERATORS[op_id]
    rng = random.Random(op_id)
    xs = [SparseSeq.unit(k) for k in range(1, 6)]
    for _ in range(10):
        values = {rng.randint(1, 12): F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)}
        xs.append(SparseSeq.from_pairs(values.items()))
    graph = op.sampled_graph(xs)
    assert is_monotone(graph).status == VERIFIED
    assert_monotone_matches_exact(graph)
    if op.system is DualSystem.SECOND:
        # A point with mass at infinity among the atomic graph points.
        with_mass = SampledGraph(op.system, graph.points + (CANONICAL,))
        assert_monotone_matches_exact(with_mass)


def as_tail(x: SparseSeq) -> TailSeq:
    return TailSeq.constant(0, [x.value(n) for n in range(1, x.max_index() + 1)])


def test_dichotomy_reports_a_non_monotone_graph():
    # c(x, Gx - x) = -sum x_n^2: the G-first graph stops being monotone.
    op = dataclasses.replace(OPERATORS[OP_G_FIRST], graph_y=lambda x: apply_G(x) - as_tail(x))
    verdict = dichotomy_crosscheck(op, seed=0, truncation=8, probe_count=20)
    assert verdict.stats["monotone"] == REFUTED
    assert verdict.status == REFUTED


def test_monotone_plane_test_is_not_the_orthogonality_test():
    # c(x, Gx + x) = sum x_n^2 >= 0 on every plane, while w.w = 2 sum x_n^2 != 0.
    op = dataclasses.replace(OPERATORS[OP_G_FIRST], graph_y=lambda x: apply_G(x) + as_tail(x))
    rng = random.Random(11)
    xs = [SparseSeq.unit(k) for k in range(1, 5)] + [random_sparse(rng, 8, 3, 9, 9) for _ in range(6)]
    graph = op.sampled_graph(xs)
    assert is_monotone(graph).status == VERIFIED
    assert orthogonality_report(graph.points, graph.points).status == REFUTED
    assert_monotone_matches_exact(graph)


# ---------------------------------------------------------------- extension


def test_extension_probe_flags_analytic_graph_point():
    g = graph_samples(10)
    fresh = graph_point_first(seq(0, 0, 0, 0, 0, F(7, 3)))
    assert fresh not in g.points
    verdict = extension_probe(g, fresh)
    assert verdict.status == WITNESS_FOUND
    assert verdict.stats["already_in_analytic_graph"] is True


def test_extension_probe_refutes_off_graph_first():
    g = SampledGraph(
        DualSystem.FIRST, tuple(unit_graph_points(8)), OPERATORS[OP_G_FIRST]
    )
    z = PairPoint.first(SparseSeq.zero(), TailSeq.ones())
    verdict = extension_probe(g, z)
    assert verdict.status == REFUTED
    w = verdict.witnesses[0]
    # exact re-validation: c(z - t*w) reproduces the recorded value
    assert coupling_value(z - w["w"].scale(w["scale"])) == w["value"] < 0


def test_extension_probe_needs_scaled_search():
    # c(z) = 1 while z.w = 1/10: unit-scale pair values stay nonnegative and
    # only the scaled family exposes the violation
    w_base = SparseSeq.unit(2).scale(F(1, 20))
    g = SampledGraph(DualSystem.FIRST, (graph_point_first(w_base),), OPERATORS[OP_G_FIRST])
    z = PairPoint.first(SparseSeq.unit(1), TailSeq.ones())
    for t in (1, -1):
        assert coupling_value(z - g.points[0].scale(t)) >= 0
    verdict = extension_probe(g, z)
    assert verdict.status == REFUTED
    assert abs(verdict.witnesses[0]["scale"]) > 1


def test_extension_probe_second_system_witness():
    embedded = SampledGraph(
        DualSystem.SECOND,
        tuple(embed_first(x) for x in (SparseSeq.unit(1), seq(1, -2), seq(0, 3))),
        OPERATORS[OP_G_SECOND],
    )
    verdict = extension_probe(embedded, CANONICAL)
    assert verdict.status == WITNESS_FOUND
    assert verdict.stats["already_in_analytic_graph"] is False
    assert coupling_value(CANONICAL) == 1


def test_extension_probe_negative_coupling_refuted_at_origin():
    g = graph_samples(5)
    z = PairPoint.first(SparseSeq.unit(1), -TailSeq.ones())
    verdict = extension_probe(g, z)
    assert verdict.status == REFUTED
    assert verdict.witnesses[0]["value"] == -1
    assert type(verdict.witnesses[0]["value"]) is Fraction


def test_extension_probe_undefined_own_coupling_is_inconclusive():
    # Mass at infinity against a periodic y: c(z) has no value in the model,
    # so the probe records the skip instead of raising.
    embedded = SampledGraph(
        DualSystem.SECOND, (embed_first(SparseSeq.unit(1)),), OPERATORS[OP_G_SECOND]
    )
    z = PairPoint.second(ModelMeasure(SparseSeq.zero(), F(1)), TailSeq.periodic([1, -1]))
    with pytest.raises(OutsideModelDomain):
        coupling_value(z)
    verdict = extension_probe(embedded, z)
    assert verdict.status == INCONCLUSIVE
    assert verdict.stats["skipped"] == 1
    assert verdict.stats["pairs_checked"] == 0
    assert not verdict.witnesses


def test_membership_test_runs_only_for_the_verdict_that_reports_it():
    # The graph's row counts the reads of its graph map, which its
    # membership test makes.
    calls = []
    op = dataclasses.replace(OPERATORS[OP_G_FIRST], graph_y=lambda x: calls.append(x) or apply_G(x))
    g = SampledGraph(DualSystem.FIRST, graph_samples(5).points, op)
    refuted_at_origin = PairPoint.first(SparseSeq.unit(1), -TailSeq.ones())
    refuted_in_scan = PairPoint.first(SparseSeq.zero(), TailSeq.ones())
    for z in (refuted_at_origin, refuted_in_scan):
        verdict = extension_probe(g, z)
        assert verdict.status == REFUTED and "already_in_analytic_graph" not in verdict.stats
    assert calls == []
    fresh = graph_point_first(seq(0, 0, 0, 0, 0, F(7, 3)))
    verdict = extension_probe(g, fresh)
    assert verdict.status == WITNESS_FOUND
    assert verdict.stats["already_in_analytic_graph"] is True
    assert calls == [fresh.x]


def test_off_graph_probes_all_refuted():
    rng = rng_for(3, "off")
    g = SampledGraph(
        DualSystem.FIRST, tuple(unit_graph_points(17)), OPERATORS[OP_G_FIRST]
    )
    for z in off_graph_first(rng, 25, 16):
        assert extension_probe(g, z).status == REFUTED


# ---------------------------------------------------------------- NI search


def test_ni_search_finds_canonical_witness_for_G_second():
    probes = ProbeSet.generate(OPERATORS[OP_G_SECOND], 0, 16, 100)
    verdict = ni_search(OP_G_SECOND, probes)
    assert verdict.status == WITNESS_FOUND
    witness = verdict.witnesses[0]
    assert witness["z"] == CANONICAL
    assert witness["margin"] == 1
    assert witness["fitz"] == 0 and witness["coupling"] == 1


def test_ni_margin_is_squared_mass():
    a = F(3, 2)
    z = OPERATORS[OP_G_SECOND].fitz_point(ModelMeasure(SparseSeq.zero(), a))
    probes = ProbeSet((z,))
    verdict = ni_search(OP_G_SECOND, probes)
    assert verdict.status == WITNESS_FOUND
    assert verdict.witnesses[0]["margin"] == a * a


def test_ni_search_finds_nothing_for_negG_second_and_G_first():
    second = ProbeSet.generate(OPERATORS[OP_NEGG_SECOND], 0, 16, 200)
    assert ni_search(OP_NEGG_SECOND, second).status == VERIFIED
    first = ProbeSet.generate(OPERATORS[OP_G_FIRST], 0, 16, 200)
    assert ni_search(OP_G_FIRST, first).status == VERIFIED


@pytest.mark.parametrize("op_id", [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND])
def test_ni_search_on_empty_probes_is_inconclusive(op_id):
    probes = ProbeSet(())
    verdict = ni_search(op_id, probes)
    assert verdict.status == INCONCLUSIVE
    assert verdict.stats == {"probes_checked": 0, "skipped": 0}


# ----------------------------------------------------------- representability


def test_representability_of_first_indicator():
    g = graph_samples(15)
    probes = ProbeSet.generate(OPERATORS[OP_G_FIRST], 1, 16, 150)
    verdict = represent(g, probes, seed=1)
    assert verdict.status == VERIFIED
    assert verdict.stats["equality_set"] > 0


def test_representability_of_second_fitzpatrick_reports_below_witness():
    embedded = SampledGraph(
        DualSystem.SECOND,
        tuple(embed_first(x) for x in (SparseSeq.unit(1), seq(2, -1))),
        OPERATORS[OP_G_SECOND],
    )
    probes = ProbeSet.generate(OPERATORS[OP_G_SECOND], 0, 16, 100)
    verdict = represent(embedded, probes, seed=0)
    assert verdict.status == WITNESS_FOUND
    witness = verdict.witnesses[0]
    assert witness["fn"] == 0 and witness["coupling"] > 0
    # equality set among probes collapses to the embedded (mass = 0) slice
    assert verdict.stats["equality_set"] == verdict.stats["equality_on_analytic_graph"]


def test_representability_refutes_wrong_function():
    # CANONICAL lies on Graph(-G*), not on Graph G*: the closed form of -G
    # is +inf there while the coupling is 1, so equality on the graph fails.
    g = SampledGraph(DualSystem.SECOND, (CANONICAL,), OPERATORS[OP_NEGG_SECOND])
    probes = ProbeSet.generate(OPERATORS[OP_NEGG_SECOND], 2, 16, 50)
    verdict = represent(g, probes, seed=2)
    assert verdict.status == REFUTED
    witness = verdict.witnesses[0]
    assert witness["z"] == CANONICAL
    assert witness["fn"] == PLUS_INF and witness["coupling"] == 1


@pytest.mark.parametrize("op_id", [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND])
def test_representability_with_nothing_to_evaluate_is_inconclusive(op_id):
    op = OPERATORS[op_id]
    graph = SampledGraph(op.system, (), op)
    no_probes = ProbeSet(())
    verdict = represent(graph, no_probes)
    assert verdict.status == INCONCLUSIVE
    assert verdict.stats["graph_points"] == 0 and verdict.stats["probes"] == 0
    # Graph points alone are evaluated (fn = c on each), so they verify.
    graph = op.sampled_graph([SparseSeq.unit(1), seq(2, -1)])
    assert represent(graph, no_probes).status == VERIFIED


@pytest.mark.parametrize("op_id", [OP_G_SECOND, OP_NEGG_SECOND])
def test_representability_skips_graph_points_outside_the_model(op_id):
    # Mass at infinity against an oscillating y: c(z) is undefined.  As a
    # graph point it is skipped just as it is as a probe, not a crash.
    op = OPERATORS[op_id]
    outside = PairPoint.second(UNIT_MASS, TailSeq.periodic([1, -1]))
    graph = SampledGraph(DualSystem.SECOND, (op.graph_point(SparseSeq.unit(1)), outside), op)
    no_probes = ProbeSet(())
    verdict = represent(graph, no_probes)
    assert verdict.status == INCONCLUSIVE
    assert verdict.stats["skipped"] == 1 and verdict.stats["graph_points"] == 2
    as_probe = represent(op.sampled_graph([SparseSeq.unit(1)]), ProbeSet((outside,)))
    assert as_probe.status == INCONCLUSIVE and as_probe.stats["skipped"] == 1


def test_representability_refutes_an_infinite_midpoint_between_finite_ends():
    # The indicator of a non-convex set: one-point supports map by G, other
    # points by G + ones.  The probes at e1 and e2 lie on it (value 0), their
    # midpoint does not (value +inf > 0).
    op = OPERATORS[OP_G_FIRST]

    def fitz_y(x):
        return apply_G(x) if len(x.entries) == 1 else apply_G(x) + TailSeq.ones()

    defective = dataclasses.replace(op, fitz_y=fitz_y)
    graph = defective.sampled_graph([SparseSeq.unit(1), SparseSeq.unit(2)])
    verdict = represent(graph, ProbeSet(graph.points))
    assert verdict.status == REFUTED
    assert verdict.stats == {"reason": "midpoint convexity violated"}
    assert verdict.witnesses[0]["midpoint_value"] == PLUS_INF
    assert {verdict.witnesses[0]["z1"], verdict.witnesses[0]["z2"]} == set(graph.points)


@pytest.mark.parametrize("op_id", [OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND])
def test_representability_evaluates_each_probe_once(op_id):
    # fn runs once per graph point, once per probe and once per convexity
    # midpoint; the probe values are reused for the finite set and the ends.
    calls = []
    op = OPERATORS[op_id]
    counting = dataclasses.replace(op, fitz_y=lambda x: calls.append(x) or op.fitz_y(x))
    xs = [SparseSeq.unit(1), seq(2, -1)]
    graph = counting.sampled_graph(xs)
    probes = ProbeSet.generate(op, 3, 16, 60)
    verdict = represent(graph, probes, seed=3)
    assert verdict == represent(op.sampled_graph(xs), probes, seed=3)
    assert verdict.stats["convexity_pairs"] > 0
    midpoints = verdict.stats["convexity_pairs"] + verdict.stats["skipped"]
    assert len(calls) <= len(graph.points) + len(probes.points) + midpoints


# ------------------------------------------------------------------ dichotomy


@pytest.mark.parametrize(
    "op_id, profile",
    [
        (OP_G_FIRST, "maximal-consistent"),
        (OP_G_SECOND, "not-maximal-consistent"),
        (OP_NEGG_SECOND, "NI-but-not-maximal-consistent"),
    ],
)
def test_dichotomy_profiles(op_id, profile):
    verdict = dichotomy_crosscheck(OPERATORS[op_id], seed=0, truncation=16, probe_count=120)
    assert verdict.status == VERIFIED
    assert verdict.stats["profile"] == profile


def test_dichotomy_compares_against_the_table():
    # The same observations refute the dichotomy once the operator's
    # expected verdicts say otherwise.
    op = dataclasses.replace(OPERATORS[OP_G_FIRST], expected=(VERIFIED, VERIFIED, WITNESS_FOUND))
    verdict = dichotomy_crosscheck(op, seed=0, truncation=8, probe_count=40)
    assert verdict.status == REFUTED
    assert verdict.stats["extension_refuted"] == 20
    assert verdict.stats["extension_witness_found"] is False


def test_probe_set_reproducible_from_descriptor():
    # generate's arguments are the whole recipe: the same row, seed,
    # window and count draw the same points, and another seed does not.
    recipe = (OPERATORS[OP_G_SECOND], 4, 16, 60)
    p1 = ProbeSet.generate(*recipe)
    assert p1.points == ProbeSet.generate(*recipe).points
    assert p1.points != ProbeSet.generate(OPERATORS[OP_G_SECOND], 5, 16, 60).points
