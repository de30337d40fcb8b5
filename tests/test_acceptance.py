"""Acceptance suite: one test per criterion, every assertion exact.

Each criterion prints one pass line (visible with `pytest -s` or in the
captured output); a failure surfaces as a normal assertion error.
"""

import time
from fractions import Fraction

from gossez_lab.adjoint import apply_Gstar
from gossez_lab.checks import CheckConfig, emit, run_checks
from gossez_lab.fitz import (
    OP_G_FIRST,
    OP_G_SECOND,
    OP_NEGG_SECOND,
    OPERATORS,
    SampledGraph,
    annihilator_truncated,
    annihilator_violation,
    divergence_certificate,
    fitz_sampled,
    orthogonality_report,
)
from gossez_lab.gossez import apply_G, range_ratio_family, solve_G, weakstar_approximate
from gossez_lab.props import (
    ProbeSet,
    dichotomy_crosscheck,
    extension_probe,
)
from gossez_lab.sampling import (
    embed_first,
    graph_point_first,
    off_graph_first,
    random_measure,
    random_sparse,
    rng_for,
    unit_graph_points,
)
from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    PairPoint,
    SparseSeq,
    TailSeq,
    couple,
    pair_measure,
)
from gossez_lab.verdict import REFUTED, VERIFIED, WITNESS_FOUND
from strategies import ni_search, random_graph_points

F = Fraction

TRIALS = 1000
SEED = 0

UNIT_MASS = ModelMeasure(SparseSeq.zero(), F(1))
CANONICAL = PairPoint.second(UNIT_MASS, TailSeq.ones())


def _passed(number: int, text: str) -> None:
    print(f"PASS criterion {number:>2}: {text}")


def _samples(label: str, count: int = TRIALS):
    rng = rng_for(SEED, f"acceptance:{label}")
    return [random_sparse(rng, 64, 64, 1000, 1000) for _ in range(count)]


def test_criterion_01_skewness():
    hits = sum(1 for x in _samples("skew") if couple(x, apply_G(x)) == 0)
    assert hits == TRIALS
    _passed(1, f"skewness <x,Gx> = 0 exactly, {hits}/{TRIALS}")


def test_criterion_02_anti_symmetry():
    xs = _samples("anti-x")
    ys = _samples("anti-y")
    hits = sum(
        1 for x, y in zip(xs, ys) if couple(x, apply_G(y)) + couple(y, apply_G(x)) == 0
    )
    assert hits == TRIALS
    _passed(2, f"anti-symmetry <x,Gy> + <y,Gx> = 0 exactly, {hits}/{TRIALS}")


def test_criterion_03_norm_bound():
    for x in _samples("norm"):
        assert apply_G(x).linf_norm() <= x.l1_norm()
    e1 = SparseSeq.unit(1)
    assert apply_G(e1).linf_norm() == 1 == e1.l1_norm()
    _passed(3, f"norm bound sup|Gx| <= sum|x| for {TRIALS} samples, equality at e1")


def test_criterion_04_range_law_and_injectivity():
    for x in _samples("range-law"):
        gx = apply_G(x)
        assert gx.is_convergent() and gx.limit() == -x.entry_sum()
        cert = solve_G(gx)
        assert cert.feasible and cert.preimage == x
    ones_cert = solve_G(TailSeq.ones())
    e1_cert = solve_G(TailSeq.constant(0, head=[1]))
    for cert in (ones_cert, e1_cert):
        assert not cert.feasible
        assert "alternating" in cert.obstruction
    assert "2/1" in ones_cert.obstruction
    _passed(4, f"range law and exact inversion {TRIALS}/{TRIALS}; "
               "ones and e1 targets infeasible with alternating obstruction")


def test_criterion_05_adjoint_identity():
    rng = rng_for(SEED, "acceptance:adjoint")
    for _ in range(TRIALS):
        y = random_sparse(rng, 64, 64, 1000, 1000)
        mu = random_measure(rng, 32, 8, 1000, 1000)
        assert couple(y, apply_Gstar(mu)) == pair_measure(mu, apply_G(y))
    _passed(5, f"adjoint identity <y,G*mu> = <mu,Gy> exactly, {TRIALS}/{TRIALS}")


def test_criterion_06_fitz_first_duality():
    rng = rng_for(SEED, "acceptance:fds")
    pool = unit_graph_points(12) + random_graph_points(rng, 188, 16, 6, 20, 20)
    graph = SampledGraph(DualSystem.FIRST, tuple(pool), OPERATORS[OP_G_FIRST])
    assert len(graph.points) == 200
    g_first = OPERATORS[OP_G_FIRST]
    for z in graph.points:
        assert g_first.fitz_closed(z) == 0
    for z in off_graph_first(rng, 50, 32):
        cert = divergence_certificate(g_first, z, threshold=10**6)
        assert cert["value"] > 10**6
    combos = 10**4
    for _ in range(combos):
        if rng.random() < 0.5:
            z = graph.points[rng.randrange(len(graph.points))]
        else:
            z = off_graph_first(rng, 1, 16)[0]
        subset = tuple(rng.sample(graph.points, rng.randint(1, 6)))
        sub = SampledGraph(DualSystem.FIRST, subset, g_first)
        assert fitz_sampled(z, sub) <= g_first.fitz_closed(z)
    _passed(6, "Fitzpatrick first duality: 0 on 200 graph points, divergence "
               f"past 1e6 on 50 off-graph points, lower bound on {combos} combos")


def test_criterion_07_self_orthogonality():
    rng = rng_for(SEED, "acceptance:orth")
    forty = SampledGraph(
        DualSystem.FIRST,
        tuple(random_graph_points(rng, 40, 32, 6, 100, 100)),
        OPERATORS[OP_G_FIRST],
    )
    assert len(forty.points) == 40
    report = orthogonality_report(forty.points, forty.points)
    assert report.status == VERIFIED
    assert report.stats["zeros"] == 1600
    n = 32
    spanning = unit_graph_points(n)
    basis = annihilator_truncated(spanning, n, DualSystem.FIRST)
    assert len(basis.basis) == n + 1
    for _ in range(50):
        x = random_sparse(rng, n, 8, 100, 100)
        assert annihilator_violation(graph_point_first(x), spanning) is None
    excluded = sum(
        1 for z in off_graph_first(rng, 100, n) if annihilator_violation(z, spanning) is not None
    )
    assert excluded == 100
    _passed(7, "self-orthogonality: 1600 exact zeros over 40x40 pairs; "
               "truncated annihilator keeps graph points, excludes 100/100")


def test_criterion_08_ni_dichotomy():
    probes = ProbeSet.generate(OPERATORS[OP_G_SECOND], SEED, 64, TRIALS)
    verdict = ni_search(OP_G_SECOND, probes)
    assert verdict.status == WITNESS_FOUND
    witness = verdict.witnesses[0]
    assert witness["z"] == CANONICAL and witness["margin"] == 1
    assert ni_search(
        OP_NEGG_SECOND, ProbeSet.generate(OPERATORS[OP_NEGG_SECOND], SEED, 64, TRIALS)
    ).status == VERIFIED
    assert ni_search(
        OP_G_FIRST, ProbeSet.generate(OPERATORS[OP_G_FIRST], SEED, 64, TRIALS)
    ).status == VERIFIED
    rng = rng_for(SEED, "acceptance:mass")
    for _ in range(TRIALS):
        mu = random_measure(rng, 32, 8, 1000, 1000)
        a = mu.infinity_mass
        gstar = apply_Gstar(mu)
        assert pair_measure(mu, -gstar) == a * a
        assert pair_measure(mu, gstar) == -a * a
    _passed(8, "NI dichotomy: witness margin exactly 1 at ((0,1), ones); no "
               f"witness for negG-second/G-first over {TRIALS}-point grids; "
               f"coupling = +/- a^2 for {TRIALS} measures")


def test_criterion_09_maximality_contrast():
    rng = rng_for(SEED, "acceptance:ext")
    graph = SampledGraph(
        DualSystem.FIRST,
        tuple(unit_graph_points(33) + random_graph_points(rng, 20, 32, 6, 20, 20)),
        OPERATORS[OP_G_FIRST],
    )
    refuted = 0
    for z in off_graph_first(rng, 100, 32):
        if extension_probe(graph, z).status == REFUTED:
            refuted += 1
    assert refuted == 100
    embedded = SampledGraph(
        DualSystem.SECOND,
        tuple(embed_first(p.x) for p in graph.points if isinstance(p.x, SparseSeq)),
        OPERATORS[OP_G_SECOND],
    )
    witness = extension_probe(embedded, CANONICAL)
    assert witness.status == WITNESS_FOUND
    profiles = {}
    for op in (OP_G_FIRST, OP_G_SECOND, OP_NEGG_SECOND):
        verdict = dichotomy_crosscheck(OPERATORS[op], seed=SEED, truncation=32, probe_count=200)
        assert verdict.status == VERIFIED
        profiles[op] = verdict.stats["profile"]
    assert profiles == {
        OP_G_FIRST: "maximal-consistent",
        OP_G_SECOND: "not-maximal-consistent",
        OP_NEGG_SECOND: "NI-but-not-maximal-consistent",
    }
    _passed(9, "maximality contrast: 100/100 off-graph probes refuted, "
               "unit-mass extension witness found, three profiles consistent")


def test_criterion_10_range_pathology():
    for m in (1, 10, 100, 1000):
        assert range_ratio_family(m) <= F(1, m)
    target = TailSeq.periodic([1, -1])
    rng = rng_for(SEED, "acceptance:osc")
    for _ in range(500):
        x = random_sparse(rng, 64, 64, 1000, 1000)
        assert (apply_G(x) - target).linf_norm() >= 1
    ones = TailSeq.ones()
    tests = [random_sparse(rng, 16, 4, 20, 20) for _ in range(5)]
    x = weakstar_approximate(ones, tests)
    for w in tests:
        assert couple(w, apply_G(x)) == couple(w, ones)
    _passed(10, "range pathology: ratio <= 1/m for m in {1,10,100,1000}; 500 "
                "oscillation distances >= 1; 5 weak-star moments matched")


def test_criterion_11_report_determinism():
    config = CheckConfig()
    start = time.perf_counter()
    first = run_checks(config)
    elapsed = time.perf_counter() - start
    assert first.all_passed
    assert elapsed < 60
    second = run_checks(config)
    assert emit(first, "json") == emit(second, "json")
    _passed(11, f"byte-identical canonical json across runs; full suite in {elapsed:.1f}s")
