"""Property checkers: monotonicity, extensions, negative-infimum, representability.

Maximality is never verified outright, only refuted (a violating pair) or
supported (a monotone-extension witness off the graph refutes maximality of
the sampled source).  On a linear graph every scaled sample is still a graph
point, so an extension probe decides each sample for every real scale at
once, from the quadratic that the coupling of z - t*w is in t.

The NI search, the representability check and the dichotomy take what they
know of an operator from its ``fitz.OPERATORS`` entry.  The NI search and
the representability check read the probe values ``Operator.evaluate``
gives, passed in by the caller, so one set of values serves both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .fitz import (
    OP_G_FIRST,
    OP_G_SECOND,
    PLUS_INF,
    SOURCE_MEMBERSHIP,
    Operator,
    SampledGraph,
    operator_for,
)
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

__all__ = [
    "ProbeSet",
    "PropertyVerdict",
    "is_monotone",
    "extension_probe",
    "ni_witness_search",
    "representability_check",
    "dichotomy_crosscheck",
]


def _difference_terms(
    z1: PairPoint, t1: tuple[int, int] | None, z2: PairPoint, t2: tuple[int, int] | None
) -> tuple[int, int]:
    """c(z1 - z2) as an unreduced (numerator, denominator > 0) pair, from the
    couplings t1 = c(z1) and t2 = c(z2) as (numerator, denominator) when both exist.

    The coupling is bilinear: c(z1 - z2) = c(z1) + c(z2) - z1.z2.  A term
    may leave the model where the difference does not (two measures with
    equal mass at infinity cancel it), so the difference point is built
    only then.  Raises OutsideModelDomain when c(z1 - z2) itself does.
    """
    if t1 is not None and t2 is not None:
        try:
            a, d = natural_couple_terms(z1, z2)
        except OutsideModelDomain:
            pass
        else:
            (p1, q1), (p2, q2) = t1, t2
            return (p1 * q2 + p2 * q1) * d - a * q1 * q2, q1 * q2 * d
    value = coupling_value(z1 - z2)
    return value.numerator, value.denominator


def is_monotone(graph: SampledGraph) -> PropertyVerdict:
    """Check c(z1 - z2) >= 0 over all unordered sample pairs.

    c(z) is computed once per sample point.  The pair values stay integer
    fractions over positive denominators, so signs and the running minimum
    are decided on ints.  Verified only if at least one pair was evaluated
    and none was skipped.
    """
    terms = [None if c is None else (c.numerator, c.denominator) for c in graph.couplings]
    checked = 0
    skipped = 0
    min_num, min_den = 0, 0  # no value yet
    for (z1, t1), (z2, t2) in combinations(zip(graph.points, terms), 2):
        try:
            num, den = _difference_terms(z1, t1, z2, t2)
        except OutsideModelDomain:
            skipped += 1
            continue
        checked += 1
        if not min_den or num * min_den < min_num * den:
            min_num, min_den = num, den
        if num < 0:
            return PropertyVerdict(
                property="monotone",
                status=REFUTED,
                witnesses=({"z1": z1, "z2": z2, "value": Fraction(num, den)},),
                stats={"pairs_checked": checked, "skipped": skipped},
            )
    stats = {"pairs_checked": checked, "skipped": skipped}
    if min_den:
        stats["min_value"] = Fraction(min_num, min_den)
    return PropertyVerdict(
        property="monotone",
        status=VERIFIED if checked and not skipped else INCONCLUSIVE,
        stats=stats,
    )


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


def extension_probe(graph: SampledGraph, z: PairPoint) -> PropertyVerdict:
    """Decide whether z extends the sampled graph monotonically.

    On a linear graph every scaled sample t*w is a graph point, and
    c(z - t*w) = c(z) - t*z.w + t^2*c(w) is a quadratic in t, so each
    sample is decided for every real t at once (plus the zero point, a
    graph point of every linear source).  A violation refutes, naming an
    exact scale and its value; survival makes z a monotone-extension witness,
    flagged in ``stats["already_in_analytic_graph"]`` when the graph's source
    has a membership test.  A flagged witness refutes no maximality, so
    ``dichotomy_crosscheck`` and the ``sds-i`` check count only unflagged ones.
    """
    try:
        cz = coupling_value(z)
    except OutsideModelDomain:
        # z's own coupling is undefined in the model: nothing is decidable.
        return PropertyVerdict(
            property="extension",
            status=INCONCLUSIVE,
            stats={"pairs_checked": 0, "skipped": 1},
        )
    if cz < 0:
        # Violation against the origin, a graph point of any linear source.
        return PropertyVerdict(
            property="extension",
            status=REFUTED,
            witnesses=({"w": PairPoint.zero(graph.system), "scale": Fraction(1), "value": cz},),
            stats={"pairs_checked": 1},
        )
    checked = 1
    skipped = 0
    cz_num, cz_den = cz.numerator, cz.denominator
    for w, cw in zip(graph.points, graph.couplings):
        if cw is None:
            skipped += 1
            continue
        try:
            zw_num, zw_den = natural_couple_terms(z, w)
        except OutsideModelDomain:
            skipped += 1
            continue
        checked += 1
        # The sign of c(z - t*w) is that of a - t*b + t^2*c, the numerators
        # of cz, zw and cw over one positive denominator.
        cw_den = cw.denominator
        den = math.lcm(cz_den, zw_den, cw_den)
        t = _refuting_scale(
            cz_num * (den // cz_den), zw_num * (den // zw_den), cw.numerator * (den // cw_den)
        )
        if t is not None:
            value = cz - t * Fraction(zw_num, zw_den) + t * t * cw
            return PropertyVerdict(
                property="extension",
                status=REFUTED,
                witnesses=({"w": w, "scale": t, "value": value},),
                stats={"pairs_checked": checked, "skipped": skipped},
            )
    stats = {"pairs_checked": checked, "skipped": skipped}
    membership = SOURCE_MEMBERSHIP.get(graph.source)
    if membership is not None:
        stats["already_in_analytic_graph"] = membership(z)
    status = INCONCLUSIVE if skipped else WITNESS_FOUND
    return PropertyVerdict(
        property="extension",
        status=status,
        witnesses=({"point": z, "coupling": cz},),
        stats=stats,
    )


def ni_witness_search(op_id: str, probes: ProbeSet, values: Iterable[tuple]) -> PropertyVerdict:
    """Search probes for fitz(z) < c(z), refuting the negative-infimum property.

    The closed-form Fitzpatrick value is an indicator here, so a witness is
    a graph point of the indicator's graph whose coupling is positive.
    ``values`` are the pairs ``Operator.evaluate(z)`` along ``probes.points``,
    read only as far as the search goes.  Verified only if at least one
    probe was evaluated and none was skipped.
    """
    seed = probes.descriptor.get("seed")
    checked = 0
    skipped = 0
    for z, (fv, cv) in zip(probes.points, values):
        if cv is None:
            skipped += 1
            continue
        checked += 1
        if fv < cv:
            return PropertyVerdict(
                property=f"NI({op_id})",
                status=WITNESS_FOUND,
                witnesses=({"z": z, "fitz": fv, "coupling": cv, "margin": cv - fv},),
                stats={"probes_checked": checked, "skipped": skipped},
                seed=seed,
            )
    return PropertyVerdict(
        property=f"NI({op_id})",
        status=VERIFIED if checked and not skipped else INCONCLUSIVE,
        stats={"probes_checked": checked, "skipped": skipped},
        seed=seed,
    )


def representability_check(
    op: Operator,
    graph: SampledGraph,
    probes: ProbeSet,
    values: tuple,
    seed: int = 0,
) -> PropertyVerdict:
    """Check op's closed-form Fitzpatrick function as a candidate representative.

    Three conditions: exact equality fn = c on the graph samples, fn >= c
    on every probe, and midpoint convexity on 100 random probe pairs with
    both values finite.  A probe strictly below the coupling is reported as
    a witness (it disqualifies fn from the representative class); equality on
    the graph failing refutes outright.  The equality set among probes is
    reported for comparison with op's analytic graph.  A graph point or
    probe whose coupling leaves the model is skipped.  With no graph points
    and no probes nothing is evaluated, and the verdict is inconclusive.
    ``values`` is a sequence, read twice, of the pairs ``Operator.evaluate(z)``
    along ``probes.points``; the graph couplings are ``graph.couplings``.
    """
    fn = op.fitz_closed
    name = f"indicator({op.fitz_graph})"
    skipped = 0
    for z, cv in zip(graph.points, graph.couplings):
        if cv is None:
            skipped += 1
            continue
        fv = fn(z)
        if fv != cv:
            return PropertyVerdict(
                property=f"representability({name})",
                status=REFUTED,
                witnesses=({"z": z, "fn": fv, "coupling": cv},),
                stats={"graph_points": len(graph.points)},
                seed=seed,
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
    rng = rng_for(seed, f"convexity:{name}")
    # A probe enters by its fn value alone, even if its coupling is outside the model.
    finite = [(z, fv) for z, (fv, _) in zip(probes.points, values) if fv != PLUS_INF]
    convex_checked = 0
    for _ in range(100):
        if len(finite) < 2:
            break
        (z1, f1), (z2, f2) = rng.sample(finite, 2)
        fm = fn((z1 + z2).scale(Fraction(1, 2)))
        convex_checked += 1
        if fm != PLUS_INF and fm > (f1 + f2) / 2:
            return PropertyVerdict(
                property=f"representability({name})",
                status=REFUTED,
                witnesses=({"z1": z1, "z2": z2, "midpoint_value": fm},),
                stats={"reason": "midpoint convexity violated"},
                seed=seed,
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
            property=f"representability({name})",
            status=WITNESS_FOUND,
            witnesses=(below,),
            stats=stats,
            seed=seed,
        )
    evaluated = graph.points or probes.points
    return PropertyVerdict(
        property=f"representability({name})",
        status=VERIFIED if evaluated and not skipped else INCONCLUSIVE,
        stats=stats,
        seed=seed,
    )


def dichotomy_crosscheck(
    op_id: str,
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
    op = operator_for(op_id)
    # Unit points must cover the whole truncation window (plus one index for
    # tail-only deviations), or off-graph probes deviating on uncovered
    # indices would survive the refutation scan.
    rng = rng_for(seed, f"graph:{op_id}:{truncation}:20")
    graph = op.sampled_graph(
        [SparseSeq.unit(k) for k in range(1, truncation + 2)]
        + [random_sparse(rng, truncation, 6, 50, 50) for _ in range(20)]
    )
    probes = ProbeSet.generate(op_id, seed, truncation, probe_count)
    monotone = is_monotone(graph)
    values = tuple(map(op.evaluate, probes.points))
    ni = ni_witness_search(op_id, probes, values)
    representative = representability_check(op, graph, probes, values, seed=seed)

    notes: list[str] = []
    if op_id == OP_G_FIRST:
        candidates = off_graph_first(rng_for(seed, "dichotomy-off-graph"), 20, truncation)
    elif op_id == OP_G_SECOND:
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
        property=f"dichotomy({op_id})",
        status=VERIFIED if consistent else REFUTED,
        witnesses=tuple(witnesses),
        stats=stats,
        seed=seed,
    )
