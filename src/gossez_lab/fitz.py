"""Fitzpatrick machinery, the operator table and truncated conjugates.

The Fitzpatrick value of a graph A at z is sup over w in A of
(z.w - c(w)).  Over an infinite graph the sup is not computable, so it is
split into two routes that check each other:

- ``fitz_sampled``: the exact max over a finite sample, always a lower
  bound for the full value over any superset.
- closed forms, where the sup collapses to an indicator: membership in
  Graph G (G in the first system), Graph(-G*) (G seen in the second
  system) and Graph G* (-G there); Fitzpatrick (1988), Gossez (1971).

``OPERATORS`` describes the three operator profiles in one place: each
``Operator`` holds its dual system, two maps (onto its graph and onto the
graph its closed-form Fitzpatrick function is the indicator of) from which
its graph points and tests derive, and the verdicts the dichotomy expects.
The row is the one handle on a profile: a ``SampledGraph`` of its graph
carries it, with the closed form and coupling of each point computed once.
``Operator.evaluate`` is the one evaluation of a point, (closed form,
coupling); ``divergence_certificate`` backs the +inf off the Fitzpatrick
graph of any row with a sampled value above a threshold.

Conjugation with respect to the product coupling is implemented for
indicators of finitely spanned subspaces only: the conjugate of such an
indicator is the indicator of the annihilator, computed by exact nullspace
elimination inside a truncation window (``annihilator_truncated``).  The
window coordinates are ordered y-head 1..N, x 1..N, mass at infinity
(second system), tail.  A unit spanning set (e_j, y_j), j = 1..N, then
arrives as an identity block on the y-head, already reduced, and its
annihilator basis is the graph parametrization: x = e_k with the y-head
that annihilates every row (for Graph G, (G e_k)_1..N), then the mass
direction in the second system and the tail direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Sequence, Union

from . import linalg
from .adjoint import apply_Gstar
from .gossez import apply_G
from .spaces import (
    DualSystem,
    ModelMeasure,
    OutsideModelDomain,
    PairPoint,
    SparseSeq,
    SystemMismatchError,
    TailSeq,
    XPart,
    coupling_value,
    natural_couple_terms,
)
from .verdict import INCONCLUSIVE, REFUTED, VERIFIED, WITNESS_FOUND, PropertyVerdict

PLUS_INF = math.inf
MINUS_INF = -math.inf

# Finite values are always Fraction; the float infinities are pure
# sentinels, compared against but never mixed into arithmetic.
ExtendedRational = Union[Fraction, float]

OP_G_FIRST = "G-first"
OP_G_SECOND = "G-second"
OP_NEGG_SECOND = "negG-second"


def coupling_or_none(z: PairPoint) -> Fraction | None:
    """c(z), None where z leaves the model."""
    try:
        return coupling_value(z)
    except OutsideModelDomain:
        return None


@dataclass(frozen=True)
class SampledGraph:
    """A finite list of graph points sharing one dual system.

    Duplicates (under canonical equality) are dropped at construction.
    ``op`` is the ``OPERATORS`` row whose graph the points sample, or None
    for any other point set; a row of another system is a ``ValueError``.
    """

    system: DualSystem
    points: tuple[PairPoint, ...]
    op: Operator | None = None

    def __post_init__(self) -> None:
        if self.op is not None and self.op.system is not self.system:
            raise ValueError(f"{self.op.id} samples {self.op.system.value}-system graphs")
        for p in self.points:
            if p.system is not self.system:
                raise ValueError("all points of a sampled graph must share its system")
        # Canonical points hash by value; the first of equal points stays, in order.
        object.__setattr__(self, "points", tuple(dict.fromkeys(self.points)))

    @cached_property
    def couplings(self) -> tuple[Fraction | None, ...]:
        """c(w) of each point, None where w leaves the model; computed once."""
        return tuple(map(coupling_or_none, self.points))

    @cached_property
    def closed(self) -> tuple[ExtendedRational, ...]:
        """The row's closed-form Fitzpatrick value at each point; computed once."""
        if self.op is None:
            raise ValueError("a sampled graph without an operator row has no closed form")
        return tuple(map(self.op.fitz_closed, self.points))

    def to_json(self) -> dict:
        return {
            "system": self.system.value,
            "op": None if self.op is None else self.op.id,
            "points": [p.to_json() for p in self.points],
        }

    @staticmethod
    def from_json(obj: dict) -> SampledGraph:
        op_id = obj["op"]
        if op_id is not None and op_id not in OPERATORS:
            raise ValueError(f"unknown operator id {op_id!r}")
        return SampledGraph(
            DualSystem(obj["system"]),
            tuple(PairPoint.from_json(p) for p in obj["points"]),
            None if op_id is None else OPERATORS[op_id],
        )


def fitz_sampled(z: PairPoint, graph: SampledGraph) -> ExtendedRational:
    """Exact max of z.w - c(w) over the sample; -inf for the empty sample.

    A lower bound for the Fitzpatrick value over any graph containing the
    sample.  Raises OutsideModelDomain if a pairing is not evaluable.  The
    candidates are compared as integer fractions over positive
    denominators; the max alone becomes a ``Fraction``.
    """
    best_num, best_den = -1, 0  # -inf: below every candidate
    for w, cw in zip(graph.points, graph.couplings):
        if cw is None:
            raise OutsideModelDomain("a sample point's coupling leaves the model")
        a, d = natural_couple_terms(z, w)
        p, q = cw.numerator, cw.denominator
        num, den = a * q - p * d, d * q
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den) if best_den else MINUS_INF


@dataclass(frozen=True)
class Operator:
    """One operator profile: G or -G in one dual system.

    ``graph_y`` maps x in l1 to the y of its graph point (x embedded as an
    atomic measure in the second system); sampled graphs carry the row.
    ``fitz_y`` maps an x-part to the y of its point on the graph
    ``fitz_graph``, of which the closed-form Fitzpatrick function is the
    indicator.  ``expected`` holds the (NI, representability, extension)
    verdicts that the dichotomy predicts for ``profile``.
    """

    id: str
    system: DualSystem
    graph_y: Callable[[SparseSeq], TailSeq]
    fitz_graph: str
    fitz_y: Callable[[XPart], TailSeq]
    profile: str
    expected: tuple[str, str, str]

    def graph_point(self, x: SparseSeq) -> PairPoint:
        x_part = x if self.system is DualSystem.FIRST else ModelMeasure.from_atomic(x)
        return PairPoint(self.system, x_part, self.graph_y(x))

    def on_graph(self, z: PairPoint) -> bool:
        # Within the model, second-system graph points carry no mass at infinity.
        if self.system is DualSystem.FIRST:
            return z.y == self.graph_y(z.x)
        return z.x.infinity_mass == 0 and z.y == self.graph_y(z.x.atomic)

    def fitz_point(self, x_part: XPart) -> PairPoint:
        return PairPoint(self.system, x_part, self.fitz_y(x_part))

    def on_fitz_graph(self, z: PairPoint) -> bool:
        return z.y == self.fitz_y(z.x)

    def fitz_closed(self, z: PairPoint) -> ExtendedRational:
        """Closed-form Fitzpatrick value: 0 on the Fitzpatrick graph, +inf off it."""
        if z.system is not self.system:
            raise ValueError(f"{self.id} expects a {self.system.value}-system point")
        return Fraction(0) if self.on_fitz_graph(z) else PLUS_INF

    def evaluate(self, z: PairPoint) -> tuple[ExtendedRational, Fraction | None]:
        """(fitz_closed(z), c(z)), the coupling None where z leaves the model.

        The one evaluation the NI search and the representability check read.
        """
        return self.fitz_closed(z), coupling_or_none(z)

    def sampled_graph(self, xs: Iterable[SparseSeq]) -> SampledGraph:
        return SampledGraph(self.system, tuple(self.graph_point(x) for x in xs), self)


# The lambdas look apply_G and apply_Gstar up when called, so rebinding the
# module attributes (as a tracer does) reaches every call.
OPERATORS: dict[str, Operator] = {
    op.id: op
    for op in (
        # Off the graph some direction u has <u, y - Gx> != 0 and scaling u
        # blows the sampled values up without bound; on the graph
        # anti-symmetry kills every term, so the sup is 0.
        Operator(
            id=OP_G_FIRST,
            system=DualSystem.FIRST,
            graph_y=lambda x: apply_G(x),
            fitz_graph="Graph G",
            fitz_y=lambda x: apply_G(x),
            profile="maximal-consistent",
            expected=(VERIFIED, VERIFIED, REFUTED),
        ),
        Operator(
            id=OP_G_SECOND,
            system=DualSystem.SECOND,
            graph_y=lambda x: apply_G(x),
            fitz_graph="Graph negG*",
            fitz_y=lambda mu: -apply_Gstar(mu),
            profile="not-maximal-consistent",
            expected=(WITNESS_FOUND, WITNESS_FOUND, WITNESS_FOUND),
        ),
        # The sign mirror of G-second: Graph G* is Graph(-G*) with y negated.
        Operator(
            id=OP_NEGG_SECOND,
            system=DualSystem.SECOND,
            graph_y=lambda x: -apply_G(x),
            fitz_graph="Graph G*",
            fitz_y=lambda mu: apply_Gstar(mu),
            profile="NI-but-not-maximal-consistent",
            expected=(VERIFIED, VERIFIED, REFUTED),
        ),
    )
}

def divergence_certificate(op: Operator, z: PairPoint, threshold: int = 10**6) -> dict:
    """Exhibit a sampled Fitzpatrick value of ``op`` above ``threshold`` at a
    point z off its Fitzpatrick graph, where the closed form is +inf.

    Let d = z.y - fitz_y(z.x) and n the first index with d_n != 0.  The
    graph point w of t*e_n pairs with z to t*d_n and c(w) = 0 (G is skew),
    so the sampled value over the one-point graph is t*d_n, unbounded in t;
    t grows by powers of ten until it exceeds ``threshold``.  Returns the
    witness: direction index, scale, exact value and the margin d_n.
    """
    if z.system is not op.system:
        raise ValueError(f"{op.id} expects a {op.system.value}-system point")
    first = (z.y - op.fitz_y(z.x)).first_nonzero()
    if first is None:
        raise ValueError("point lies on the Fitzpatrick graph; no divergence available")
    index, margin = first
    scale = Fraction(1) if margin > 0 else Fraction(-1)
    while scale * margin <= threshold:
        scale *= 10
    value = fitz_sampled(z, op.sampled_graph([SparseSeq.unit(index).scale(scale)]))
    return {
        "direction_index": index,
        "scale": scale,
        "value": value,
        "threshold": threshold,
        "margin": margin,
    }


@dataclass(frozen=True)
class TruncatedAnnihilator:
    """Basis of the annihilator of a finite spanning set, inside a window.

    Coordinates, in elimination order: the y-head 1..N, the x-entries
    1..N, the mass at infinity (second system only) and one constant-tail
    coordinate.  For a unit spanning set the basis is the graph
    parametrization, one x entry per vector, then the mass and tail
    directions (see ``annihilator_truncated``).  Results are certified
    only for vectors representable inside this window; ``truncation``
    records N.
    """

    system: DualSystem
    truncation: int
    basis: tuple[PairPoint, ...]


def _annihilator_row(w: PairPoint, n: int) -> list[int]:
    """Coefficients of z -> z.w on z's window coordinates: y-head 1..N
    (pairs with w.x), x 1..N (with w.y), in the second system the mass
    (with lim w.y), and the tail (with w's mass).

    Scaled by the lcm of their denominators, which leaves the annihilator
    alone, and read as integers.  The y-head comes first so that a unit
    graph point (e_j, y) gives the row (e_j | y_1..y_N | ...): a unit
    spanning set is an identity block followed by the rest, already reduced.
    """
    second = w.system is DualSystem.SECOND
    v, atomic = w.y, (w.x.atomic if second else w.x)
    if atomic.max_index() > n:
        raise ValueError("spanning first component exceeds the truncation window")
    if second and not v.is_convergent():
        raise OutsideModelDomain("spanning point with oscillating y is not pairable")
    mass = w.x.infinity_mass if second else Fraction(0)
    scale = math.lcm(v.den, atomic.den, mass.denominator)
    x_coeffs = v._dense(n, scale // v.den)
    if second:
        lim = v.limit()
        x_coeffs.append(lim.numerator * (scale // lim.denominator))
    y_coeffs = [0] * n
    x_scale = scale // atomic.den
    for index, num in zip(atomic.indices, atomic.nums):
        y_coeffs[index - 1] = num * x_scale
    return y_coeffs + x_coeffs + [mass.numerator * (scale // mass.denominator)]


def annihilator_truncated(
    spanning: Iterable[PairPoint], n: int, system: DualSystem
) -> TruncatedAnnihilator:
    """Basis of {z : z.w = 0 for all spanning w} on window coordinates.

    Exact elimination on integers over the coordinates y-head 1..N, x 1..N,
    the mass (second system) and the tail, in that order; the basis vectors
    are returned as points (x supported in 1..N, y with head 1..N and a
    constant tail), built from the integer vectors of ``linalg.nullspace``
    over their common denominator without a ``Fraction`` per entry.

    The free columns are the x-entries, the mass and the tail, so for the
    unit spanning set (e_j, y_j), j = 1..N, the basis is the graph
    parametrization: for each k the point with x = e_k and y-head
    -(y_j)_k over j (for G, skew, that is (G e_k)_1..N) and tail 0; in the
    second system the mass direction, mass 1 and y-head -lim y_j over j;
    and last the tail direction.  Each of these has at most one x entry.
    """
    spanning = list(spanning)
    if any(w.system is not system for w in spanning):
        raise SystemMismatchError(f"all spanning points must be {system.value}-system points")
    rows = [_annihilator_row(w, n) for w in spanning]
    m = int(system is DualSystem.SECOND)  # the mass coordinate after the x-entries
    vectors = linalg.nullspace(rows, 2 * n + 1 + m)
    # The common denominator is the last nonzero entry of every vector.
    d = next(v for v in reversed(vectors[0]) if v) if vectors else 1
    window = range(1, n + 1)
    basis = []
    for vec in vectors:
        xs = vec[n : 2 * n]
        atomic = SparseSeq._from_ints(tuple(compress(window, xs)), tuple(filter(None, xs)), d)
        x: XPart = ModelMeasure(atomic, Fraction(vec[2 * n], d)) if m else atomic
        y = TailSeq._from_values(vec[:n], (vec[2 * n + m],), d)
        basis.append(PairPoint(system, x, y))
    return TruncatedAnnihilator(system, n, tuple(basis))


def annihilator_violation(z: PairPoint, spanning: Iterable[PairPoint]) -> dict | None:
    """First spanning element w with z.w != 0, or None if z annihilates all."""
    for w in spanning:
        num, den = natural_couple_terms(z, w)
        if num:
            return {"point": z, "against": w, "value": Fraction(num, den)}
    return None


def orthogonality_report(a: Sequence[PairPoint], b: Sequence[PairPoint]) -> PropertyVerdict:
    """Check z.w = 0 for every z in b, w in a.

    Pairings outside the model domain are skipped and counted; the first
    violation refutes with the exact pair and value.  Verified only if at
    least one pair was evaluated and none was skipped.
    """
    zeros = 0
    skipped = 0
    for z in b:
        for w in a:
            try:
                num, den = natural_couple_terms(z, w)
            except OutsideModelDomain:
                skipped += 1
                continue
            if num:
                return PropertyVerdict(
                    status=REFUTED,
                    witnesses=({"z": z, "w": w, "value": Fraction(num, den)},),
                    stats={
                        "pairs_checked": zeros + skipped + 1,
                        "zeros": zeros,
                        "skipped": skipped,
                    },
                )
            zeros += 1
    status = VERIFIED if zeros and not skipped else INCONCLUSIVE
    return PropertyVerdict(
        status=status,
        stats={"pairs_checked": zeros + skipped, "zeros": zeros, "skipped": skipped},
    )
