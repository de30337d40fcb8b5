"""Gossez's skew operator G on summable sequences, exactly.

G maps a finitely supported rational sequence x to the bounded sequence

    (Gx)_n = -(sum of x_k for k < n) + (sum of x_k for k > n).

For finitely supported x the image has a finite head (up to the last support
index) followed by the constant -sum(x), so it always lands in the
convergent-sequence class and is representable as a TailSeq with a constant
tail.

Besides the forward map this module provides the exact inverse on the
eventually-constant class (``solve_G``, a decision procedure for range
membership built on the two-term recurrence satisfied by consecutive image
entries), finite weak-star moment matching (``weakstar_approximate``), and
the alternating family whose image/preimage norm ratio collapses like 1/m
(``range_ratio_family``), the certificate that G admits no lower norm bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import solve_minimal
from .spaces import SparseSeq, TailSeq, couple, format_rational

_ZERO = Fraction(0)


def apply_G(x: SparseSeq) -> TailSeq:
    """Evaluate Gx; head covers indices 1..max(support), tail is -sum(x).

    Between support points the image is constant, total - 2*prefix, so the
    image is built as runs: one per gap and one per support point, with
    neighbours of equal value merged.  Its cost grows with |supp x|, not
    with the largest support index.
    """
    return _shifted_G(x, 1, _ZERO)


def _shifted_G(x: SparseSeq, sign: int, shift: Fraction) -> TailSeq:
    """shift * ones + sign * Gx, the kernel of G and of G* (sign -1).

    The prefix sums run on Python ints over D, the lcm of the denominators
    of x and of shift.  The head is emitted as runs of integer numerators
    over D: a run per gap and per support point, merged with its neighbour
    when the numerators are equal (adjacent points with x_{n+1} = -x_n give
    equal images).  The TailSeq keeps them as ints; no Fraction is built.
    """
    den = math.lcm(shift.denominator, x.den)
    base = shift.numerator * (den // shift.denominator)
    factor = den // x.den
    nums = x.nums if factor == 1 else [v * factor for v in x.nums]
    level = sum(nums)  # total - 2*prefix, times D
    ends: list[int] = []
    runs: list[int] = []  # numerators over D, one per run
    covered = 0
    for n, here in zip(x.indices, nums):
        if n - 1 > covered:  # the gap before n; it never equals its neighbours
            ends.append(n - 1)
            runs.append(base + sign * level)
        num = base + sign * (level - here)  # -prefix + (total - prefix - here)
        if runs and runs[-1] == num:
            ends[-1] = n
        else:
            ends.append(n)
            runs.append(num)
        covered = n
        level -= 2 * here
    return TailSeq._from_runs(tuple(ends), tuple(runs), (base + sign * level,), den)


@dataclass(frozen=True)
class RangeCertificate:
    """Outcome of deciding whether a TailSeq lies in the range of G.

    When feasible, ``preimage`` satisfies apply_G(preimage) == target
    exactly (re-checked during construction of the certificate).  When
    infeasible, ``obstruction`` names the reason: either the target does not
    converge, or the inversion recurrence forces an alternating tail of some
    fixed nonzero magnitude, which no summable sequence can produce.
    """

    target: TailSeq
    feasible: bool
    preimage: SparseSeq | None = None
    obstruction: str | None = None

    def to_json(self) -> dict:
        doc: dict = {"feasible": self.feasible}
        if self.preimage is not None:
            doc["preimage"] = self.preimage.to_json()
        if self.obstruction is not None:
            doc["obstruction"] = self.obstruction
        return doc


def solve_G(y: TailSeq) -> RangeCertificate:
    """Decide y in R(G) within the TailSeq class, with witness.

    Consecutive image entries satisfy (Gx)_{n+1} - (Gx)_n = -(x_n + x_{n+1})
    and the limit pins the first entry: x_1 = -lim(y) - y_1.  Running the
    recurrence across the head leaves x_{H+1}; past the head y is constant,
    so the recurrence degenerates to x_{n+1} = -x_n.  Feasibility therefore
    reduces to one exact check: x_{H+1} = 0.  Otherwise x would alternate
    with constant magnitude |x_{H+1}| forever and could not be summable.
    """
    if not y.is_convergent():
        return RangeCertificate(y, False, obstruction="not in c: tail oscillates, no limit")
    # The recurrence runs on the numerators of y over y.den.
    ends, nums, den = y.run_ends, y.run_nums, y.den
    lim = y.tail_nums[0]
    # Inside a run of y the difference vanishes and x flips sign at every
    # index, so one pass over the runs finds x at each run start and at H+1.
    firsts = []
    current = -lim - (nums[0] if nums else lim)
    start = 1
    for end, here, following in zip(ends, nums, nums[1:] + (lim,)):
        firsts.append(current)
        last = current if (end - start) % 2 == 0 else -current
        current = (here - following) - last
        start = end + 1
    if current:
        return RangeCertificate(
            y,
            False,
            obstruction=(
                "recurrence forces an alternating tail of magnitude "
                f"{format_rational(Fraction(abs(current), den))}, not summable"
            ),
        )
    # The preimage as numerators over den, alternating in sign along each
    # run where x is nonzero.
    indices: list[int] = []
    values: list[int] = []
    start = 1
    for end, first in zip(ends, firsts):
        if first:
            signs = (first, -first)
            indices += range(start, end + 1)
            values += [signs[k % 2] for k in range(end + 1 - start)]
        start = end + 1
    candidate = SparseSeq._from_ints(tuple(indices), tuple(values), den)
    if apply_G(candidate) != y:  # cannot happen for consistent inputs; keep honest
        return RangeCertificate(y, False, obstruction="round-trip mismatch")
    return RangeCertificate(y, True, preimage=candidate)


def weakstar_approximate(y: TailSeq, tests: list[SparseSeq]) -> SparseSeq:
    """Find x with <w, Gx> = <w, y> exactly for every test functional w.

    Finitely many summable-sequence functionals can always be matched inside
    the range of G; this is the finite mechanics of weak-star density.  Via
    anti-symmetry each constraint reads <x, Gw> = -<w, y>, a linear system
    in the entries of x.  The unknown support starts at 1..(len(tests)+2)
    and grows until the exact system is consistent; leftmost-pivot
    elimination with zero free variables makes the answer deterministic and
    supported on minimal indices.
    """
    if not tests:
        return SparseSeq.zero()
    images = [apply_G(w) for w in tests]
    # Constraint i on integers: with -<w_i, y> = p_i / q_i, the numerators
    # of Gw_i times q_i against p_i * den(Gw_i), divided by their gcd.
    constraints = []
    for w, gw in zip(tests, images):
        b = -couple(w, y)
        constraints.append((gw, b.denominator, b.numerator * gw.den))
    max_support = max((w.max_index() for w in tests), default=0)
    size = len(tests) + 2
    # Consistency is guaranteed once the support covers the tests' support
    # plus one extra column (any dependent rows then have matching rhs).
    max_size = max(size, max_support + len(tests) + 1)
    while True:
        rows, rhs = [], []
        for gw, q, p in constraints:
            row = gw._dense(size, q)
            common = math.gcd(p, *row)  # 0 for a zero test
            if common > 1:
                row, p = [v // common for v in row], p // common
            rows.append(row)
            rhs.append(p)
        solution = solve_minimal(rows, rhs)
        if solution is not None:
            return SparseSeq.from_pairs((j + 1, v) for j, v in enumerate(solution))
        if size >= max_size:
            raise RuntimeError("moment-matching system unexpectedly inconsistent")
        size += 1


def alternating(length: int) -> SparseSeq:
    """The sign-alternating sequence (1, -1, 1, -1, ...) of given length."""
    return SparseSeq.from_values(Fraction((-1) ** (n - 1)) for n in range(1, length + 1))


def range_ratio_family(m: int) -> Fraction:
    """Norm ratio |G x|_inf / |x|_1 for the alternating x of length 2m.

    The partial sums of the alternating sequence stay in {0, 1}, so the
    image keeps norm 1 while the preimage norm grows like 2m; the exact
    ratio 1/(2m) <= 1/m certifies that the injective G has no bounded
    inverse on its range.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x = alternating(2 * m)
    return apply_G(x).linf_norm() / x.l1_norm()
