"""Named theorem checks, deterministic report assembly, and serialization.

The catalog is data: one entry per verifiable claim, each with a stable
name, the mathematical claim it certifies, an expected verdict status, and
a runner.  A run is reproducible from its configuration alone; the emitted
report never contains timing, so identical configurations produce
bit-identical bytes in every format (per-check wallclock goes to the
console, a side channel outside the artifact).

Each check draws from its own generator and shares with the others only
the deterministic facts of one window (``_Window``), computed on first read
and never kept across reports, so no result depends on which checks are
selected.  ``run_checks`` runs them in up to one forked worker per usable
CPU, at most one per check and each with a fresh window, or else in this
process on one window: with fewer than two workers, without fork, or while
other threads are alive here.  Results come back in catalog order, so the
report bytes do not depend on the CPU count.  A check's wallclock is its own
and includes the facts it read first; pin a profiler to one CPU to see it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Callable, Iterable

from .adjoint import apply_Gstar
from .fitz import (
    OP_G_FIRST,
    OP_G_SECOND,
    OP_NEGG_SECOND,
    OPERATORS,
    PLUS_INF,
    annihilator_truncated,
    annihilator_violation,
    divergence_certificate,
)
from .gossez import apply_G, range_ratio_family, solve_G, weakstar_approximate
from .linalg import nullspace
from .props import ProbeSet, dichotomy_crosscheck, extension_probe, ni_witness_search
from .sampling import (
    fitz_graph_samples,
    off_graph_first,
    random_measure,
    random_rational,
    random_sparse,
    random_tail,
    rng_for,
    unit_graph_points,
)
from .spaces import (
    DualSystem,
    ModelMeasure,
    OutsideModelDomain,
    PairPoint,
    SparseSeq,
    TailSeq,
    couple,
    coupling_value,
    pair_measure,
)
from .verdict import REFUTED, VERIFIED, WITNESS_FOUND, to_jsonable

ARTIFACT_VERSION = "0.6.0"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class UnknownCheckError(ValueError):
    """A requested check name is not in the catalog."""


@dataclass(frozen=True)
class CheckConfig:
    checks: tuple[str, ...] = ("all",)
    truncation: int = 64
    trials: int = 1000
    seed: int = 0
    scale_max: int = 10**6
    out_format: str = "json"
    out_path: str | None = None

    def __post_init__(self) -> None:
        # Zero trials would issue "verified-on-samples" on no samples, and a
        # window below one has no index to sample from.
        for name in ("truncation", "trials", "scale_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_json(self) -> dict:
        return {**asdict(self), "checks": list(self.checks)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    title: str
    claim: str
    expected_status: str
    status: str
    passed: bool
    witnesses: tuple = ()
    stats: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    wallclock_s: float = 0.0  # console-only; never serialized

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "title": self.title,
            "claim": self.claim,
            "expected_status": self.expected_status,
            "status": self.status,
            "passed": self.passed,
            "witnesses": to_jsonable(list(self.witnesses)),
            "stats": to_jsonable(self.stats),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ReportDoc:
    version: str
    config: CheckConfig
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def first_failure(self) -> str | None:
        return next((r.name for r in self.results if not r.passed), None)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.to_json(),
            "all_passed": self.all_passed,
            "checks": [r.to_json() for r in self.results],
        }


class _Tally:
    """Collects named property failures for one check run."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.failures: list[dict] = []

    def record(self, prop: str, ok: bool, witness: dict | None = None) -> None:
        self.counts[prop] = self.counts.get(prop, 0) + 1
        if not ok:
            payload = {"property": prop}
            if witness:
                payload.update(witness)
            self.failures.append(payload)

    def decide(self, prop: str, cases: Iterable[tuple[list | int | str, bool]]) -> None:
        """Record one window decision over its (basis pair or column, holds)
        cases; a failure names the first case that breaks it."""
        broken = next((where for where, ok in cases if not ok), None)
        broken_at = "basis_pair" if type(broken) is list else "column"
        self.record(prop, broken is None, {broken_at: broken})


# A runner's (witnesses, stats, notes); ``run_checks`` seeds its generator by
# the check's name and derives the status and "failures" from its tally.
_Outcome = tuple[tuple, dict, tuple[str, ...]]

# Work that is cubic in the window, or a quadratic scan, reads at most this
# many of its columns: the annihilators, gstar's model kernel and dichotomy.
SCAN_CAP = 32


def _symmetric_cases(cols: list[list]) -> Iterable[tuple[list, bool]]:
    """([i, j], holds) for i <= j counted from 1: whether (M + M^T)_ij is 0, for M
    with columns ``cols``; an entry None (a pairing without a limit) breaks it."""
    return (
        ([i + 1, j + 1], None not in (col[i], cols[i][j]) and col[i] + cols[i][j] == 0)
        for j, col in enumerate(cols)
        for i in range(j + 1)
    )


def _pairing_columns(images: list[TailSeq], n: int) -> tuple[list[list], int]:
    """Each image's values at 1..n, then its limit (None without one): its pairings with
    the unit atoms and the unit mass, as numerators over the common denominator returned."""
    den = math.lcm(*(y.den for y in images))
    return [
        [*y._dense(n, den // y.den), y.tail_nums[0] * (den // y.den) if y.is_convergent() else None]
        for y in images
    ], den


def _adjoint_cases(g_images: list[TailSeq], stars: list[TailSeq]) -> Iterable[tuple[list, bool]]:
    """([i, m], <e_i, G* m> == <m, G e_i>) for the columns G e_1..G e_N against
    the unit atoms at 1..N and the unit mass m, with images ``stars``
    (``_Window.stars``): in the second system, whether the graph point of
    e_i is orthogonal to (m, -G* m)."""
    n = len(g_images)
    cols = _pairing_columns(g_images + stars, n)[0]
    measures = (*range(1, n + 1), "mass")
    return (
        ([i, m], star[i - 1] == g[j])
        for i, g in enumerate(cols[:n], 1)
        for j, (m, star) in enumerate(zip(measures, cols[n:]))
    )


def _coupling_cases(stars: list[TailSeq]) -> Iterable[tuple[list, bool]]:
    """The form B(mu, nu) = <mu, G* nu> on the unit atoms at 1..N and the unit
    mass, with images ``stars`` (``_Window.stars``): c(mu, +-G* mu) = -+a^2 on their
    span iff B + B^T = -2 (mass x mass), iff B + (mass x mass) is skew, for either sign."""
    n = len(stars) - 1
    cols, den = _pairing_columns(stars, n)
    cols[n][n] = None if cols[n][n] is None else cols[n][n] + den  # B + (mass x mass)
    measures = (*range(1, n + 1), "mass")
    cases = _symmetric_cases(cols)
    return (([measures[i - 1], measures[j - 1]], ok) for (i, j), ok in cases)


def _fact(cases: Callable[[_Window], Iterable[tuple[list, bool]]]) -> cached_property:
    """A window fact, decided on first read: [its first broken case], or [] if it holds."""
    return cached_property(lambda window: next(([c] for c in cases(window) if not c[1]), []))


class _Window:
    """One report's window, N = ``--truncation``: G e_1..G e_N with their values at
    1..N + 1 over one common denominator (``g_columns``), G* of the unit atoms at
    1..N and of the unit mass (``stars``), and the three bilinear facts on them."""

    def __init__(self, n: int) -> None:
        self.n = n

    @cached_property
    def g_columns(self) -> tuple[list[TailSeq], list[list[int]], int]:
        images = [apply_G(SparseSeq.unit(k)) for k in range(1, self.n + 1)]
        den = math.lcm(*(gx.den for gx in images))
        return images, [gx._dense(self.n + 1, den // gx.den) for gx in images], den

    @cached_property
    def stars(self) -> list[TailSeq]:
        units = [ModelMeasure.from_atomic(SparseSeq.unit(j)) for j in range(1, self.n + 1)]
        return [apply_Gstar(mu) for mu in units + [ModelMeasure(SparseSeq.zero(), 1)]]

    skew = _fact(lambda window: _symmetric_cases(window.g_columns[1]))
    adjoint = _fact(lambda window: _adjoint_cases(window.g_columns[0], window.stars))
    coupling = _fact(lambda window: _coupling_cases(window.stars))


def _run_g_basic(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    # The linear claims are decided on the columns G e_k of the window; they
    # extend to its span by linearity, which the loop below samples.
    n = cfg.truncation
    images, cols, den = window.g_columns
    tally.decide("skew", window.skew)
    indexed = list(enumerate(images, 1))
    tally.decide("norm-bound", ((k, gx.linf_norm() <= 1) for k, gx in indexed))
    tally.decide("range-law", ((k, gx.is_convergent() and gx.limit() == -1) for k, gx in indexed))
    # (G e_k)_{i+1} - (G e_k)_i = -(e_k(i) + e_k(i+1)) for i = 1..n.
    tally.decide(
        "difference-recurrence",
        (
            ([i, k], col[i] - col[i - 1] == -den * (k in (i, i + 1)))
            for k, col in enumerate(cols, 1)
            for i in range(1, n + 1)
        ),
    )
    neg_g = OPERATORS[OP_NEGG_SECOND].graph_y
    tally.decide("negation", ((k, neg_g(SparseSeq.unit(k)) == -gx) for k, gx in indexed))
    for _ in range(cfg.trials):
        x = random_sparse(rng, n, 8, 1000, 1000)
        y = random_sparse(rng, n, 8, 1000, 1000)
        gx, gy = apply_G(x), apply_G(y)
        cert = solve_G(gx)
        tally.record("injectivity-roundtrip", cert.feasible and cert.preimage == x, {"x": x})
        a = random_rational(rng, 20, 20)
        b = random_rational(rng, 20, 20)
        tally.record(
            "linearity",
            apply_G(x.scale(a) + y.scale(b)) == gx.scale(a) + gy.scale(b),
            {"x": x, "y": y, "a": a, "b": b},
        )
    sharp = images[0].linf_norm() == 1 == SparseSeq.unit(1).l1_norm()
    tally.record("norm-bound-equality-at-e1", sharp)
    certs = {"ones": solve_G(TailSeq.ones()), "e1": solve_G(TailSeq.constant(0, [1]))}
    for name, cert in certs.items():
        tally.record(
            f"{name}-not-in-range", not cert.feasible and "alternating" in (cert.obstruction or "")
        )
    stats = {"trials": cfg.trials, "window": n, "properties": tally.counts}
    return ({f"{name}_certificate": cert for name, cert in certs.items()},), stats, ()


def _run_g_orth(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    # The graph points (e_i, G e_i) and (e_j, G e_j) couple to (M + M^T)_ij, so
    # the graph of the window is self-orthogonal iff G's columns are skew.
    tally.decide("self-orthogonality", window.skew)
    n = min(cfg.truncation, SCAN_CAP)
    spanning = unit_graph_points(n)
    basis = annihilator_truncated(spanning, n, DualSystem.FIRST)
    tally.record("annihilator-basis-dimension", len(basis.basis) == n + 1)
    for vec in basis.basis:
        tally.record("basis-annihilates", annihilator_violation(vec, spanning) is None)
    mismatch = annihilator_violation(PairPoint.first(SparseSeq.zero(), TailSeq.ones()), spanning)
    tally.record("ones-direction-not-orthogonal", mismatch is not None)
    stats = {"window": cfg.truncation, "scan_window": n, "basis_size": len(basis.basis)}
    return (), stats, ()


def _run_gstar(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    # <e_i, G* mu> = <mu, G e_i> for e_1..e_N against the unit atoms at 1..N and the mass.
    n = cfg.truncation
    tally.decide("adjoint-identity", window.adjoint)
    # Full column rank on indices 1..s + 1 (the limits add a row that is not
    # needed) makes G* one-to-one on the unit atoms at 1..s and the mass.  A
    # kernel vector's last nonzero entry names an image that the earlier ones span.
    s = min(n, SCAN_CAP)
    scanned, measures = window.stars[:s] + window.stars[-1:], (*range(1, s + 1), "mass")
    kernel = nullspace([[y.value(i) for y in scanned] for i in range(1, s + 2)], s + 1)
    tally.decide(
        "model-kernel",
        ((measures[max(j for j, v in enumerate(vec) if v)], False) for vec in kernel[:1]),
    )
    for _ in range(cfg.trials):
        y = random_sparse(rng, n, 8, 1000, 1000)
        mu = random_measure(rng, n, 6, 100, 100)
        nu = random_measure(rng, n, 6, 100, 100)
        c = random_rational(rng, 20, 20)
        tally.record(
            "linearity",
            apply_Gstar(mu + nu.scale(c)) == apply_Gstar(mu) + apply_Gstar(nu).scale(c),
            {"mu": mu, "nu": nu, "c": c},
        )
        t = random_tail(rng)
        try:
            same = pair_measure(ModelMeasure.from_atomic(y), t) == couple(y, t)
        except OutsideModelDomain:  # a measure without mass pairs with every tail
            same = False
        tally.record("restriction-consistency", same, {"y": y, "t": t})
    tally.record("unit-mass-image", window.stars[-1] == TailSeq.constant(-1))
    tally.record("atom-image", window.stars[0] == TailSeq.constant(1, [0]))
    x = random_sparse(rng, n, 6, 100, 100)
    embedded = OPERATORS[OP_G_SECOND].fitz_point(ModelMeasure.from_atomic(x))
    reduced = PairPoint.second(ModelMeasure.from_atomic(x), apply_G(x))
    tally.record("embedding-reduction", embedded == reduced)
    notes = (
        "the adjoint fails injectivity only through measures with no atoms "
        "and no mass at infinity, which are not representable in the model",
    )
    stats = {"trials": cfg.trials, "window": n, "scan_window": s, "properties": tally.counts}
    return (), stats, notes


def _run_range(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    ratios = {m: range_ratio_family(m) for m in (1, 10, 100, 1000)}
    for m, ratio in ratios.items():
        tally.record("ratio-collapse", ratio == Fraction(1, 2 * m) and ratio <= Fraction(1, m))
    target = TailSeq.periodic([1, -1])
    tally.record("oscillation-value", target.oscillation() == 1)
    # Every G e_k of the window converges, so by linearity every G x does,
    # and a convergent sequence stays target.oscillation() = 1 from target.
    tally.decide(
        "distance-to-oscillating-target",
        ((k, gx.is_convergent()) for k, gx in enumerate(window.g_columns[0], 1)),
    )
    ones = TailSeq.ones()
    tests = [random_sparse(rng, 16, 4, 20, 20) for _ in range(5)]
    x = weakstar_approximate(ones, tests)
    matched = all(couple(w, apply_G(x)) == couple(w, ones) for w in tests)
    tally.record("weakstar-moment-matching", matched, {"x": x})
    frozen = weakstar_approximate(ones, [SparseSeq.unit(1)])
    tally.record("weakstar-canonical", frozen == SparseSeq.unit(2))
    notes = (
        "non-closedness has no representable limit-point witness; it is "
        "certified indirectly by the vanishing lower bound of the norm "
        "ratio along the alternating family (open mapping argument)",
    )
    stats = {"ratios": {str(m): r for m, r in ratios.items()}, "window": cfg.truncation}
    return ({"matched_tests": tests, "x": x},), stats, notes


def _run_fds(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    # Graph points (x, Gx) and (x', Gx') couple to x (M + M^T) x' and c is half
    # that on the diagonal, so skew columns G e_1..G e_N make every term
    # z.w - c(w) over x drawn from the window 0: the sup on the graph is 0 = c.
    # With +inf off the graph, certified below, the closed form dominates c
    # (NI) and equals it exactly on the graph, and as the indicator of a
    # linear graph it is convex: it represents G.
    g_first = OPERATORS[OP_G_FIRST]
    tally.decide("vanishes-on-graph", window.skew)
    for z in off_graph_first(rng, 50, cfg.truncation):
        cert = divergence_certificate(g_first, z, cfg.scale_max)
        tally.record("divergence", cert["value"] > cfg.scale_max, {"z": z, "certificate": cert})
    return (), {"window": cfg.truncation, "divergence_points": 50}, ()


def _run_sds_i(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    g_second = OPERATORS[OP_G_SECOND]
    # The NI search stops at its first probe and the uniqueness scan reads 100.
    probes = ProbeSet.generate(g_second, cfg.seed, cfg.truncation, min(cfg.trials, 100))
    ni = ni_witness_search(probes, map(g_second.evaluate, probes.points))
    canonical = PairPoint.second(ModelMeasure(SparseSeq.zero(), Fraction(1)), TailSeq.ones())
    ni_ok = (
        ni.status == WITNESS_FOUND
        and ni.witnesses[0]["z"] == canonical
        and ni.witnesses[0]["margin"] == 1
    )
    tally.record("ni-fails-with-margin", ni_ok)
    # Decided on e_1..e_N, the unit atoms at 1..N and the mass: Graph(-G*)
    # couples to a^2, Graph G is skew, and the adjoint identity makes the two orthogonal.
    n = cfg.truncation
    tally.decide("coupling-is-mass-squared", window.coupling)
    off = PairPoint.second(ModelMeasure(SparseSeq.zero(), Fraction(1)), TailSeq.zero())
    tally.record(
        "indicator-off-graph",
        g_second.fitz_closed(off) == PLUS_INF
        and divergence_certificate(g_second, off, cfg.scale_max)["value"] > cfg.scale_max,
    )
    embedded = g_second.sampled_graph(random_sparse(rng, n, 5, 50, 50) for _ in range(30))
    tally.decide("embedded-graph-skew", window.skew)
    ext = extension_probe(embedded, canonical)
    tally.record(
        "extension-witness",
        ext.status == WITNESS_FOUND
        and not ext.stats["already_in_analytic_graph"]
        and coupling_value(canonical) == 1,
    )
    tally.decide("graph-orthogonal-to-negGstar", window.adjoint)
    s = min(n, SCAN_CAP)
    spanning = [g_second.graph_point(SparseSeq.unit(k)) for k in range(1, s + 1)]
    basis = annihilator_truncated(spanning, s, DualSystem.SECOND)
    tally.record("annihilator-basis-dimension", len(basis.basis) == s + 2)
    unique_support = g_second.sampled_graph(SparseSeq.unit(k) for k in range(1, n + 2))
    witnesses_checked = 0
    witnesses_on_graph = 0
    for z in probes.points[:100]:
        verdict = extension_probe(unique_support, z)
        if verdict.status == WITNESS_FOUND:
            witnesses_checked += 1
            if g_second.on_fitz_graph(z):
                witnesses_on_graph += 1
    tally.record(
        "uniqueness-support",
        witnesses_checked > 0 and witnesses_checked == witnesses_on_graph,
    )
    notes = (
        "every monotone-extension witness found lies on Graph(-G*); "
        "uniqueness of the maximal extension is supported, not proven",
    )
    stats = {
        "ni": ni.stats,
        "window": n,
        "scan_window": s,
        "extension_witnesses_checked": witnesses_checked,
        "extension_witnesses_on_negGstar": witnesses_on_graph,
        "annihilator_basis": len(basis.basis),
    }
    return tuple(ni.witnesses), stats, notes


def _run_sds_ii(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    negg_second = OPERATORS[OP_NEGG_SECOND]
    # On the span of the window's unit atoms and mass, c = -a^2 <= 0 on Graph G*,
    # where the closed form is 0, and the closed form is +inf off it: -G is NI.
    n = cfg.truncation
    tally.decide("coupling-on-Gstar", window.coupling)
    neg_embedded = negg_second.sampled_graph(random_sparse(rng, n, 5, 50, 50) for _ in range(30))
    samples = fitz_graph_samples(negg_second, cfg.seed + 1, 50, n)
    candidates = [z for z in samples if z.x.infinity_mass]
    refuted = sum(extension_probe(neg_embedded, z).status == REFUTED for z in candidates)
    tally.record("no-representable-extension", 0 < refuted == len(candidates))
    # The closed form is 0 at (x, -Gx), on Graph G*, and c(x, -Gx) = -<x, Gx>
    # is 0 for x in 1..N, the window ``neg_embedded`` draws from, iff G's
    # columns are skew there.
    tally.decide("representability-on-model", window.skew)
    notes = (
        "the unique maximal extension (the closure of the graph) adds only "
        "points outside the measure model; non-maximality is asserted "
        "analytically while every in-model candidate is refuted exactly",
    )
    return (), {"window": n, "extension_candidates_refuted": refuted}, notes


def _run_dichotomy(cfg: CheckConfig, rng: Random, tally: _Tally, window: _Window) -> _Outcome:
    n = min(cfg.truncation, SCAN_CAP)
    profiles = {}
    for op in OPERATORS.values():
        verdict = dichotomy_crosscheck(op, seed=cfg.seed, truncation=n, probe_count=200)
        profiles[op.id] = verdict.stats
        tally.record(f"profile-{op.id}", verdict.status == VERIFIED)
    return (), {"profiles": profiles, "window": cfg.truncation, "scan_window": n}, ()


@dataclass(frozen=True)
class CheckSpec:
    name: str
    title: str
    claim: str
    expected_status: str
    runner: Callable[[CheckConfig, Random, _Tally, _Window], _Outcome]


CATALOG: tuple[CheckSpec, ...] = (
    CheckSpec(
        "g-basic",
        "Skew operator fundamentals",
        "G is linear, bounded and skew on summable sequences: <x,Gx> = 0, "
        "<x,Gy> = -<y,Gx>, sup|Gx| <= sum|x|; the image always converges to "
        "-sum(x) and G is one-to-one with an exact inverse on its range",
        VERIFIED,
        _run_g_basic,
    ),
    CheckSpec(
        "g-orth",
        "Self-orthogonality of the graph",
        "Graph G equals its own orthogonal under the product coupling: "
        "every pair of graph points couples to zero, and the truncated "
        "annihilator contains exactly the graph directions plus the free "
        "tail coordinate",
        VERIFIED,
        _run_g_orth,
    ),
    CheckSpec(
        "gstar",
        "Adjoint on the measure model",
        "G* mu = -(mass at infinity) * ones - G(atoms), with the adjoint "
        "identity <y, G* mu> = <mu, G y> exact; the model kernel is trivial",
        VERIFIED,
        _run_gstar,
    ),
    CheckSpec(
        "range",
        "Range pathology",
        "R(G) is weak-star dense but neither closed nor norm-dense: finite "
        "functional systems are matched exactly, the alternating family "
        "collapses the norm ratio like 1/(2m), and oscillating targets stay "
        "at distance >= 1",
        VERIFIED,
        _run_range,
    ),
    CheckSpec(
        "fds",
        "First dual system: Fitzpatrick collapse",
        "In the (l1, linf) duality the Fitzpatrick function of G is the "
        "indicator of Graph G: it vanishes on the graph, decided on the "
        "window as skewness of G e_1..G e_N, and divergence certificates "
        "exceed scale_max off it, so it dominates the coupling (NI) and "
        "equals it on the graph (representable); G is maximal monotone there",
        VERIFIED,
        _run_fds,
    ),
    CheckSpec(
        "sds-i",
        "Second dual system: G loses NI and maximality",
        "Seen in the (linf*, linf) duality the Fitzpatrick function of G is "
        "the indicator of Graph(-G*); points with mass a at infinity give "
        "coupling a^2 > 0 = Fitzpatrick value, refuting NI, and the "
        "unit-mass point extends Graph G monotonically",
        WITNESS_FOUND,
        _run_sds_i,
    ),
    CheckSpec(
        "sds-ii",
        "Second dual system: -G is NI but not maximal",
        "The Fitzpatrick function of -G is the indicator of Graph G*, which "
        "dominates the coupling (c = -a^2 there, decided on the unit atoms "
        "at 1..N and the mass: -G is NI) and equals it on Graph(-G) "
        "(c = 0 by skew columns: representable); no extension witness is "
        "representable in the model, matching a closure that only adds "
        "unrepresentable points",
        VERIFIED,
        _run_sds_ii,
    ),
    CheckSpec(
        "dichotomy",
        "Maximality dichotomy cross-validation",
        "maximal monotone iff representable and NI: the three operator "
        "profiles (G first system; G and -G second system) combine their "
        "component verdicts consistently",
        VERIFIED,
        _run_dichotomy,
    ),
)


def select_checks(names: tuple[str, ...]) -> tuple[CheckSpec, ...]:
    if names == ("all",):
        return CATALOG
    if not names:
        return ()  # header-only report
    by_name = {spec.name: spec for spec in CATALOG}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise UnknownCheckError(f"unknown checks: {', '.join(unknown)}")
    # Run in catalog order regardless of request order.
    wanted = set(names)
    return tuple(spec for spec in CATALOG if spec.name in wanted)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_spec(config: CheckConfig, spec: CheckSpec, window: _Window) -> CheckResult:
    """Run one check on its own generator and the report's window; its tally gives its status."""
    tally = _Tally()
    start = time.perf_counter()
    witnesses, stats, notes = spec.runner(config, rng_for(config.seed, spec.name), tally, window)
    elapsed = time.perf_counter() - start
    status = REFUTED if tally.failures else spec.expected_status
    return CheckResult(
        name=spec.name,
        title=spec.title,
        claim=spec.claim,
        expected_status=spec.expected_status,
        status=status,
        passed=status == spec.expected_status,
        witnesses=witnesses,
        stats={**stats, "failures": tally.failures[:3]},
        notes=notes,
        wallclock_s=elapsed,
    )


def _run_index(job: tuple[CheckConfig, int]) -> CheckResult:
    """A worker's job: the check at this index of the catalog it inherited, on a fresh window."""
    config, index = job
    return _run_spec(config, CATALOG[index], _Window(config.truncation))


def run_checks(config: CheckConfig) -> ReportDoc:
    """Execute the selected checks and assemble the report, catalog order.

    With two or more usable CPUs and checks, the checks run in forked
    workers, one per CPU and at most one per check; the results, and so the
    report bytes, do not depend on the worker count.
    """
    specs = select_checks(config.checks)
    jobs = min(_usable_cpus(), len(specs))
    if jobs >= 2:
        # Imported here, not with the module: the import of the pool costs
        # about 20 ms, a quarter of importing the lab.
        import multiprocessing
        import threading

        # A fork copies only the calling thread, and the locks of the others
        # as they stand; with other threads alive the checks stay here.
        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            jobs = 1
    if jobs < 2:
        window = _Window(config.truncation)
        results = [_run_spec(config, spec, window) for spec in specs]
        return ReportDoc(ARTIFACT_VERSION, config, tuple(results))
    # Fork, whatever the platform default: workers inherit the catalog and
    # its runners as they are, and import nothing again.
    pool = multiprocessing.get_context("fork").Pool(jobs)
    try:
        work = [(config, CATALOG.index(spec)) for spec in specs]
        results = pool.map(_run_index, work, chunksize=1)
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
    return ReportDoc(ARTIFACT_VERSION, config, tuple(results))


def emit(report: ReportDoc, out_format: str) -> bytes:
    """Serialize a report deterministically; json is canonical (sorted keys)."""
    if out_format == "json":
        text = json.dumps(report.to_json(), sort_keys=True, indent=2, ensure_ascii=True)
        return (text + "\n").encode("utf-8")
    if out_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["name", "title", "status", "expected_status", "passed", "witnesses", "stats", "notes"]
        )
        for r in report.results:
            writer.writerow(
                [
                    r.name,
                    r.title,
                    r.status,
                    r.expected_status,
                    r.passed,
                    json.dumps(to_jsonable(list(r.witnesses)), sort_keys=True),
                    json.dumps(to_jsonable(r.stats), sort_keys=True),
                    "; ".join(r.notes),
                ]
            )
        return buffer.getvalue().encode("utf-8")
    if out_format == "md":
        lines = [
            "# gossez-lab report",
            "",
            f"version: {report.version}",
            "",
            "## Configuration",
            "",
            "```json",
            json.dumps(report.config.to_json(), sort_keys=True, indent=2),
            "```",
            "",
            "## Checks",
            "",
            "| check | status | expected | pass |",
            "|---|---|---|---|",
        ]
        for r in report.results:
            flag = "pass" if r.passed else "FAIL"
            lines.append(f"| {r.name} | {r.status} | {r.expected_status} | {flag} |")
        lines.append("")
        for r in report.results:
            lines.extend([f"### {r.name}: {r.title}", "", r.claim, ""])
            if r.notes:
                for note in r.notes:
                    lines.append(f"- note: {note}")
                lines.append("")
            lines.extend(
                ["```json", json.dumps(to_jsonable(r.stats), sort_keys=True, indent=2), "```", ""]
            )
        lines.append(f"overall: {'all checks passed' if report.all_passed else 'FAILURES PRESENT'}")
        lines.append("")
        return "\n".join(lines).encode("utf-8")
    raise ValueError(f"unknown output format {out_format!r}")
