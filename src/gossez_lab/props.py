"""Property checkers: monotonicity, extensions, negative-infimum, representability.

Maximality is never verified outright, only refuted (a violating pair) or
supported (a monotone-extension witness off the graph refutes maximality of
the sampled source).  On a linear graph every scaled sample is still a graph
point, so one line test decides c(z - t*w) >= 0 for every real t at once,
from the quadratic it is in t: an extension probe applies it to the probe
against each sample, and the monotonicity check to each sample against the
samples after it, which decides each plane that two samples span.

Every function that acts on a profile takes its ``fitz.OPERATORS`` row,
and a sampled graph carries the row it samples: the extension probe reads
its membership test there, and the representability check its closed form
and graph values.  The NI search and the representability check read the
probe values ``Operator.evaluate`` gives, passed in by the caller, so one
set of values serves both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .fitz import OP_G_FIRST, OP_G_SECOND, PLUS_INF, Operator, SampledGraph
from .sampling import ProbeSet, off_graph_first, random_sparse, rng_for
from .spaces import (
    ModelMeasure,
    OutsideModelDomain,
    PairPoint,
    SparseSeq,
    TailSeq,
    coupling_value,
    natural_couple_terms,
)
from .verdict import INCONCLUSIVE, REFUTED, VERIFIED, WITNESS_FOUND, PropertyVerdict


def _refuting_scale(a: int, b: int, c: int) -> Fraction | None:
    """A t with a - t*b + t^2*c < 0 for integers a >= 0, b and c, or None if none exists.

    The quadratic is nonnegative for every real t iff c > 0 and b^2 <= 4ac,
    or b = c = 0.  Otherwise: the vertex b/(2c) when c > 0; when c <= 0 != b,
    t = (a+1)/b gives -1 + t^2*c; when b = 0 > c, t = a+1 gives at most
    a - (a+1)^2, since c <= -1.
    """
    if c > 0:
        return Fraction(b, 2 * c) if b * b > 4 * a * c else None
    if b:
        return Fraction(a + 1, b)
    return Fraction(a + 1) if c else None


def _line_scan(
    z: PairPoint, cz: Fraction, points: Iterable[PairPoint], couplings: Iterable[Fraction | None]
) -> tuple[dict | None, int, int]:
    """Decide c(z - t*w) >= 0 for every real t, for each sample w in turn.

    ``cz`` = c(z) >= 0 and ``couplings`` holds c(w) per sample, None outside
    the model.  c(z - t*w) = c(z) - t*z.w + t^2*c(w) has the sign of
    a - t*b + t^2*c, the numerators of the three terms over one positive
    denominator.  Returns (witness, checked, skipped): the first refuting
    sample's {"w", "scale", "value"}, or None, and the counts of samples
    decided and of samples whose c(w) or z.w leaves the model.
    """
    checked = 0
    skipped = 0
    cz_num, cz_den = cz.numerator, cz.denominator
    for w, cw in zip(points, couplings):
        if cw is None:
            skipped += 1
            continue
        try:
            zw_num, zw_den = natural_couple_terms(z, w)
        except OutsideModelDomain:
            skipped += 1
            continue
        checked += 1
        cw_den = cw.denominator
        den = math.lcm(cz_den, zw_den, cw_den)
        t = _refuting_scale(
            cz_num * (den // cz_den), zw_num * (den // zw_den), cw.numerator * (den // cw_den)
        )
        if t is not None:
            value = cz - t * Fraction(zw_num, zw_den) + t * t * cw
            return {"w": w, "scale": t, "value": value}, checked, skipped
    return None, checked, skipped


def is_monotone(graph: SampledGraph) -> PropertyVerdict:
    """Decide c(s*w_i - t*w_j) >= 0 for all real s, t on each plane two samples
    of a linear graph span.

    Each sample w_i is checked against the origin (c(w_i) < 0 refutes), then
    `_line_scan` decides c(w_i - t*w_j) >= 0 for every real t against each
    later sample w_j; with c(w_i) >= 0 that covers the plane.  A refutation
    re-checks as c(z - w.scale(t)) == value < 0.  ``pairs_checked`` and
    ``skipped`` count the sample pairs decided and those where c(w_i),
    c(w_j) or w_i.w_j leaves the model.  Verified only if at least one pair
    was decided and none was skipped.
    """
    points, couplings = graph.points, graph.couplings
    checked = 0
    skipped = 0
    for i, (z, cz) in enumerate(zip(points, couplings)):
        if cz is None:
            skipped += len(points) - i - 1
            continue
        if cz < 0:
            witness = {"w": PairPoint.zero(graph.system), "scale": Fraction(1), "value": cz}
        else:
            witness, n, s = _line_scan(z, cz, points[i + 1 :], couplings[i + 1 :])
            checked += n
            skipped += s
        if witness is not None:
            return PropertyVerdict(
                status=REFUTED,
                witnesses=({"z": z, **witness},),
                stats={"pairs_checked": checked, "skipped": skipped},
            )
    return PropertyVerdict(
        status=VERIFIED if checked and not skipped else INCONCLUSIVE,
        stats={"pairs_checked": checked, "skipped": skipped},
    )


def extension_probe(graph: SampledGraph, z: PairPoint) -> PropertyVerdict:
    """Decide whether z extends the sampled graph monotonically.

    On a linear graph every scaled sample t*w is a graph point, and
    `_line_scan` decides c(z - t*w) >= 0 for every real t at once, for each
    sample w (plus the zero point, a graph point of every linear source).
    A violation refutes, naming an exact scale and its value; survival makes
    z a monotone-extension witness, flagged in
    ``stats["already_in_analytic_graph"]`` when the graph carries a row,
    by the row's ``on_graph``.  A flagged witness refutes no maximality, so
    ``dichotomy_crosscheck`` and the ``sds-i`` check count only unflagged ones.
    """
    try:
        cz = coupling_value(z)
    except OutsideModelDomain:
        # z's own coupling is undefined in the model: nothing is decidable.
        return PropertyVerdict(
            status=INCONCLUSIVE,
            stats={"pairs_checked": 0, "skipped": 1},
        )
    if cz < 0:
        # Violation against the origin, a graph point of any linear source.
        return PropertyVerdict(
            status=REFUTED,
            witnesses=({"w": PairPoint.zero(graph.system), "scale": Fraction(1), "value": cz},),
            stats={"pairs_checked": 1},
        )
    witness, checked, skipped = _line_scan(z, cz, graph.points, graph.couplings)
    stats = {"pairs_checked": 1 + checked, "skipped": skipped}
    if witness is not None:
        return PropertyVerdict(status=REFUTED, witnesses=(witness,), stats=stats)
    if graph.op is not None:
        stats["already_in_analytic_graph"] = graph.op.on_graph(z)
    status = INCONCLUSIVE if skipped else WITNESS_FOUND
    return PropertyVerdict(
        status=status,
        witnesses=({"point": z, "coupling": cz},),
        stats=stats,
    )


def ni_witness_search(probes: ProbeSet, values: Iterable[tuple]) -> PropertyVerdict:
    """Search probes for fitz(z) < c(z), refuting the negative-infimum property.

    The closed-form Fitzpatrick value is an indicator here, so a witness is
    a graph point of the indicator's graph whose coupling is positive.
    ``values`` are the pairs ``Operator.evaluate(z)`` along ``probes.points``,
    read only as far as the search goes.  Verified only if at least one
    probe was evaluated and none was skipped.
    """
    checked = 0
    skipped = 0
    for z, (fv, cv) in zip(probes.points, values):
        if cv is None:
            skipped += 1
            continue
        checked += 1
        if fv < cv:
            return PropertyVerdict(
                status=WITNESS_FOUND,
                witnesses=({"z": z, "fitz": fv, "coupling": cv, "margin": cv - fv},),
                stats={"probes_checked": checked, "skipped": skipped},
            )
    return PropertyVerdict(
        status=VERIFIED if checked and not skipped else INCONCLUSIVE,
        stats={"probes_checked": checked, "skipped": skipped},
    )


def representability_check(
    graph: SampledGraph, probes: ProbeSet, values: tuple, seed: int = 0
) -> PropertyVerdict:
    """Check the closed-form Fitzpatrick function of ``graph.op`` as a
    candidate representative.

    Three conditions: exact equality fn = c on the graph samples, fn >= c
    on every probe, and midpoint convexity on 100 random probe pairs with
    both values finite.  A probe strictly below the coupling is reported as
    a witness (it disqualifies fn from the representative class); equality on
    the graph failing refutes outright.  The equality set among probes is
    reported for comparison with op's analytic graph.  A graph point or
    probe whose coupling leaves the model is skipped.  With no graph points
    and no probes nothing is evaluated, and the verdict is inconclusive.
    ``values`` is a sequence, read twice, of the pairs ``Operator.evaluate(z)``
    along ``probes.points``; the graph values are ``graph.closed`` and
    ``graph.couplings``.
    """
    op = graph.op
    skipped = 0
    for z, fv, cv in zip(graph.points, graph.closed, graph.couplings):
        if cv is None:
            skipped += 1
            continue
        if fv != cv:
            return PropertyVerdict(
                status=REFUTED,
                witnesses=({"z": z, "fn": fv, "coupling": cv},),
                stats={"graph_points": len(graph.points)},
            )
    below: dict | None = None
    equality_set = 0
    equality_on_analytic = 0
    for z, (fv, cv) in zip(probes.points, values):
        if cv is None:
            skipped += 1
            continue
        if fv < cv and below is None:
            below = {"z": z, "fn": fv, "coupling": cv, "margin": cv - fv}
        if fv == cv:
            equality_set += 1
            if op.on_graph(z):
                equality_on_analytic += 1
    rng = rng_for(seed, f"convexity:indicator({op.fitz_graph})")
    # A probe enters by its fn value alone, even if its coupling is outside the model.
    finite = [(z, fv) for z, (fv, _) in zip(probes.points, values) if fv != PLUS_INF]
    convex_checked = 0
    for _ in range(100):
        if len(finite) < 2:
            break
        (z1, f1), (z2, f2) = rng.sample(finite, 2)
        fm = op.fitz_closed((z1 + z2).scale(Fraction(1, 2)))
        convex_checked += 1
        if fm > (f1 + f2) / 2:
            return PropertyVerdict(
                status=REFUTED,
                witnesses=({"z1": z1, "z2": z2, "midpoint_value": fm},),
                stats={"reason": "midpoint convexity violated"},
            )
    stats = {
        "graph_points": len(graph.points),
        "probes": len(probes.points),
        "equality_set": equality_set,
        "equality_on_analytic_graph": equality_on_analytic,
        "convexity_pairs": convex_checked,
        "skipped": skipped,
    }
    if below is not None:
        return PropertyVerdict(
            status=WITNESS_FOUND,
            witnesses=(below,),
            stats=stats,
        )
    evaluated = graph.points or probes.points
    return PropertyVerdict(
        status=VERIFIED if evaluated and not skipped else INCONCLUSIVE,
        stats=stats,
    )


def dichotomy_crosscheck(
    op: Operator,
    seed: int = 0,
    truncation: int = 32,
    probe_count: int = 200,
) -> PropertyVerdict:
    """Aggregate the checker suite for one operator and test its coherence.

    The three profiles follow the characterization "maximal monotone iff
    representable and NI":

    - G-first: monotone, NI, representable, every off-graph probe refuted
      as an extension.
    - G-second: monotone but an NI witness and a proper extension witness
      exist, and the candidate representative dips below the coupling.
    - negG-second: monotone and NI; no extension witness is representable
      in the measure model (the closure points that refute maximality live
      outside it), so non-maximality is recorded as analytic.

    The observed (NI, representability, extension) verdicts must equal the
    operator's expected ones; anything else is reported as refuted.
    """
    # Unit points must cover the whole truncation window (plus one index for
    # tail-only deviations), or off-graph probes deviating on uncovered
    # indices would survive the refutation scan.
    rng = rng_for(seed, f"graph:{op.id}:{truncation}:20")
    graph = op.sampled_graph(
        [SparseSeq.unit(k) for k in range(1, truncation + 2)]
        + [random_sparse(rng, truncation, 6, 50, 50) for _ in range(20)]
    )
    probes = ProbeSet.generate(op, seed, truncation, probe_count)
    monotone = is_monotone(graph)
    values = tuple(map(op.evaluate, probes.points))
    ni = ni_witness_search(probes, values)
    representative = representability_check(graph, probes, values, seed=seed)

    notes: list[str] = []
    if op.id == OP_G_FIRST:
        candidates = off_graph_first(rng_for(seed, "dichotomy-off-graph"), 20, truncation)
    elif op.id == OP_G_SECOND:
        unit_mass = ModelMeasure(SparseSeq.zero(), Fraction(1))
        candidates = [PairPoint.second(unit_mass, TailSeq.ones())]
    else:
        candidates = [z for z in probes.points if z.x.infinity_mass != 0 and op.on_fitz_graph(z)]
        notes.append(
            "no proper extension witness is representable in the model; "
            "the closure of the graph adds only unrepresentable points, "
            "so non-maximality is asserted analytically"
        )
    extension_found: dict | None = None
    extension_refuted = 0
    for z in candidates:
        verdict = extension_probe(graph, z)
        if verdict.status == REFUTED:
            extension_refuted += 1
        elif verdict.status == WITNESS_FOUND and not verdict.stats["already_in_analytic_graph"]:
            extension_found = verdict.witnesses[0]
    if extension_found is not None:
        extension = WITNESS_FOUND
    elif candidates and extension_refuted == len(candidates):
        extension = REFUTED
    else:
        extension = INCONCLUSIVE
    observed = (ni.status, representative.status, extension)
    consistent = monotone.status == VERIFIED and observed == op.expected
    stats: dict = {
        "profile": op.profile,
        "monotone": monotone.status,
        "ni": ni.status,
        "representability": representative.status,
        "extension_refuted": extension_refuted,
        "extension_witness_found": extension_found is not None,
    }
    if notes:
        stats["notes"] = notes
    witnesses = []
    if extension_found is not None:
        witnesses.append({"extension": extension_found})
    if ni.status == WITNESS_FOUND:
        witnesses.extend(ni.witnesses)
    return PropertyVerdict(
        status=VERIFIED if consistent else REFUTED,
        witnesses=tuple(witnesses),
        stats=stats,
    )
