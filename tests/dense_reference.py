"""Dense reference for the G kernels, TailSeq arithmetic, couplings and elimination.

These are the original implementations, one ``Fraction`` operation per
index, per term or per matrix entry, kept as the oracle for the run-aware
and integer-numerator kernels and the integer elimination in
``gossez_lab``; ``bareiss_gauss_jordan`` is the integer Gauss-Jordan
elimination whose (rows, pivots, d) the forward and back passes of
``linalg._rref`` must reproduce, and ``list_rref`` those two passes on
lists of ints, written apart from the library.  They work on plain tuples and
lists so that nothing here shares code with the library: a sequence is a
canonical ``(head, tail)`` pair, a summable sequence a dict
``{index: value}`` without zeros, a matrix a list of ``Fraction`` rows.

The oracles at the end are the exception: they build library points.  The
operator-table oracles are the former written-out description of the three
operator profiles (the per-profile lambdas of ``fitz.OPERATORS`` and the
adjoint's graph-point helpers) and call the library's ``apply_G`` and
``apply_Gstar``: they check how ``Operator``'s derived methods wire the
kernels (which kernel, which sign, the mass condition), not the kernels.
``annihilator_basis`` is the former per-system row builders and basis
branches of ``fitz.annihilator_truncated`` over ``nullspace`` above, and
``divergence_certificate_first`` the former first-system-only divergence
certificate, with its own copy of G-first's Fitzpatrick map, and
``fitz_sampled_fractions`` the former ``Fraction`` sampled value.  The
sampling oracles are the former ``sampling`` generators: they draw through
the stdlib's ``randint``, ``sample`` and ``random`` and build ``Fraction``
values and dense heads through the public constructors, as the integer
draws must reproduce bit for bit.
"""

from bisect import bisect
from collections import namedtuple
from fractions import Fraction
import math
from operator import add, neg, sub

from gossez_lab.adjoint import apply_Gstar as lib_apply_Gstar
from gossez_lab.fitz import SampledGraph, fitz_sampled
from gossez_lab.gossez import apply_G as lib_apply_G
from gossez_lab.spaces import (
    DualSystem,
    ModelMeasure,
    PairPoint,
    SparseSeq,
    TailSeq,
    coupling_value,
    natural_couple,
)


def minimal_period(pattern):
    length = len(pattern)
    for d in range(1, length + 1):
        if length % d == 0 and pattern == pattern[:d] * (length // d):
            return pattern[:d]
    return pattern


def canonical(head, tail):
    """Minimal period, then absorb the head into the cycle one pop at a time."""
    head = [Fraction(v) for v in head]
    tail = minimal_period(tuple(Fraction(v) for v in tail))
    while head and head[-1] == tail[-1]:
        head.pop()
        tail = tail[-1:] + tail[:-1]
    return tuple(head), tail


def value(seq, n):
    head, tail = seq
    if n <= len(head):
        return head[n - 1]
    return tail[(n - len(head) - 1) % len(tail)]


def combine(a, b, op):
    head_len = max(len(a[0]), len(b[0]))
    period = math.lcm(len(a[1]), len(b[1]))
    head = [op(value(a, n), value(b, n)) for n in range(1, head_len + 1)]
    tail = [op(value(a, n), value(b, n)) for n in range(head_len + 1, head_len + period + 1)]
    return canonical(head, tail)


def negate(a):
    return canonical([-v for v in a[0]], [-v for v in a[1]])


def scale(a, factor):
    if factor == 0:
        return canonical((), (Fraction(0),))
    return canonical([factor * v for v in a[0]], [factor * v for v in a[1]])


def alpha(k, n):
    """Sign kernel of G: -1 below the diagonal (k < n), 0 on it, +1 above."""
    if k < n:
        return -1
    if k > n:
        return 1
    return 0


def apply_G(x):
    top = max(x, default=0)
    total = sum(x.values(), Fraction(0))
    head = []
    prefix = Fraction(0)
    for n in range(1, top + 1):
        here = x.get(n, Fraction(0))
        head.append(total - 2 * prefix - here)
        prefix += here
    return canonical(head, (-total,))


def apply_Gstar(x, a):
    """-a * ones - Gx for the measure with atoms x and mass a at infinity."""
    return combine(canonical((), (-a,)), apply_G(x), lambda u, v: u - v)


def couple(x, y):
    """sum_n x_n * y_n as a Fraction sum of products."""
    return sum((v * value(y, n) for n, v in x.items()), Fraction(0))


def linf_norm(y):
    """max |v| over the head plus the tail pattern."""
    head, tail = y
    return max(abs(v) for v in head + tail)


def scale_ladder(scale_max):
    ladder = []
    t = Fraction(1)
    while t <= scale_max:
        ladder.extend((t, -t))
        t *= 10
    return ladder


def line_refutes(cz, zw, cw):
    """Whether cz - t*zw + t^2*cw < 0 at some real t, for cz >= 0, by its
    infimum over t: cz - zw^2/(4*cw) when cw > 0, -infinity when cw < 0 or
    when cw = 0 != zw, and cz when cw = zw = 0."""
    if cw > 0:
        return cz - zw * zw / (4 * cw) < 0
    return cw < 0 or zw != 0


def extension_exact(cz, couplings):
    """The exact extension decision over every real scale, on Fractions.

    ``couplings`` holds (z.w, c(w)) per sample w, or None for a skipped w;
    c(z - t*w) = cz - t*zw + t^2*cw, decided by ``line_refutes``.  Returns
    (sample index, pairs checked) for the first refuting sample, or
    (None, pairs checked).  cz itself counts as the first pair checked,
    and each unskipped sample as one more.
    """
    checked = 1
    for i, pair in enumerate(couplings):
        if pair is None:
            continue
        checked += 1
        if line_refutes(cz, *pair):
            return i, checked
    return None, checked


def monotone_exact(couplings, cross):
    """The exact monotonicity decision on each plane two samples span, on Fractions.

    ``couplings[i]`` is c(w_i) and ``cross[i][j]`` (i < j) is w_i.w_j, None
    outside the model.  c(s*w_i - t*w_j) >= 0 for every real s and t iff
    c(w_i) >= 0 and c(w_i - t*w_j) >= 0 for every t (``line_refutes``; a
    negative c(w_j) refutes there).  Samples go in order, each checked
    against the origin and then against every later sample.  Returns
    (position, pairs checked, pairs skipped): position (i, None) when
    c(w_i) < 0, (i, j) for the first refuting pair, or None.  A pair is
    skipped when c(w_i), c(w_j) or w_i.w_j is None.
    """
    checked = skipped = 0
    n = len(couplings)
    for i, ci in enumerate(couplings):
        if ci is None:
            skipped += n - i - 1
            continue
        if ci < 0:
            return (i, None), checked, skipped
        for j in range(i + 1, n):
            if couplings[j] is None or cross[i][j] is None:
                skipped += 1
                continue
            checked += 1
            if line_refutes(ci, cross[i][j], couplings[j]):
                return (i, j), checked, skipped
    return None, checked, skipped


def extension_scan(cz, couplings, scale_max):
    """The former ladder scan of an extension probe, on Fractions: a weaker
    oracle, tried only at t = +-1, +-10, ..., +-scale_max.

    ``couplings`` holds (z.w, c(w)) per sample w, or None for a skipped w.
    Returns the index of the first sample with c(z - t*w) = cz - t*zw +
    t^2*cw < 0 at some ladder t, or None.
    """
    for i, pair in enumerate(couplings):
        if pair is None:
            continue
        zw, cw = pair
        if any(cz - t * zw + t * t * cw < 0 for t in scale_ladder(scale_max)):
            return i
    return None


def solve_G(y):
    """(feasible, preimage dict or None, obstruction or None)."""
    head, tail = y
    if len(tail) != 1:
        return False, None, "not in c: tail oscillates, no limit"
    lim = tail[0]
    values = []
    current = -lim - value(y, 1)
    for n in range(1, len(head) + 1):
        values.append(current)
        current = (value(y, n) - value(y, n + 1)) - current
    if current != 0:
        magnitude = abs(current)
        return False, None, (
            "recurrence forces an alternating tail of magnitude "
            f"{magnitude.numerator}/{magnitude.denominator}, not summable"
        )
    candidate = {n: v for n, v in enumerate(values, start=1) if v != 0}
    if apply_G(candidate) != y:
        return False, None, "round-trip mismatch"
    return True, candidate, None


def rref(matrix):
    """Reduced row echelon form on Fraction rows: (rref, pivot column per row)."""
    rows = [row[:] for row in matrix]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def bareiss_gauss_jordan(matrix):
    """Integer Gauss-Jordan after Bareiss: (rows, pivot column per row, d).

    Every row is scaled by the lcm of its denominators; at each pivot p
    (d the previous one, 1 at the start) every other row becomes
    (p*a - f*b) // d over all columns.  The rows over d are the reduced
    row echelon form, and d is the last pivot.
    """
    rows = []
    for row in matrix:
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    pivots = []
    d = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[col]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][col]
                rows[i] = [(p * a - f * b) // d for a, b in zip(rows[i], pivot)]
        d = p
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots, d


def minus_multiple(a, b, h):
    """a - h*b entrywise; h = +-1 takes an ``operator`` map, with no
    integer multiplication in the interpreter."""
    if h == 1:
        return map(sub, a, b)
    if h == -1:
        return map(add, a, b)
    return [x - h * y for x, y in zip(a, b)]


def list_rref(matrix):
    """Forward Bareiss and fraction-free back substitution on lists of ints.

    Written apart from ``linalg._rref``, which runs the same two passes:
    unit steps keep the rows below the pivot times one common sign, and
    back substitution works on the free columns only.  It returns (rows,
    pivot column per row, d) as ``bareiss_gauss_jordan`` does.
    """
    rows = []
    for row in matrix:
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    pivots = []
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    d = 1
    # Forward pass: one-step Bareiss on the rows below the pivot, over the
    # columns from the pivot on; their earlier columns are zero already.
    # The rows not yet pivotal hold their Bareiss values times ``sign``.
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if sign == -1:
            rows[r][col:] = map(neg, rows[r][col:])
        pivot = rows[r][col:]
        p = pivot[0]
        if (p == 1 or p == -1) and (d == 1 or d == -1):
            # (p*a - f*b) // d == (p*d) * (a - (f*p)*b) when |p| == |d| == 1:
            # the row keeps a - (f*p)*b and the sign takes the factor p*d.
            for row in rows[r + 1 :]:
                f = row[col]
                if f:
                    row[col:] = minus_multiple(row[col:], pivot, f * p)
            sign *= p * d
        else:
            for row in rows[r + 1 :]:
                f = row[col]
                if f:
                    row[col:] = [(p * a - f * b) // d for a, b in zip(row[col:], pivot)]
                elif p != d:
                    row[col:] = [p * a // d for a in row[col:]]
        d = p
        pivots.append(col)
    # Back substitution on the free columns, bottom pivot row first.
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    reduced = []  # R_l on the free columns after p_l, bottom row first
    for i in range(len(pivots) - 1, -1, -1):
        row, col = rows[i], pivots[i]
        cols = free[bisect(free, col) :]
        part = [d * row[j] for j in cols]
        for other, other_col in zip(reversed(reduced), pivots[i + 1 :]):
            c = row[other_col]
            if c:
                start = len(part) - len(other)
                part[start:] = minus_multiple(part[start:], other, c)
        u = row[col]
        if u != 1:
            part = [a // u for a in part]
        reduced.append(part)
        row = [0] * ncols
        row[col] = d
        for j, v in zip(cols, part):
            row[j] = v
        rows[i] = row
    return rows, pivots, d


def solve_minimal(rows, rhs):
    """rows * x = rhs with free variables zero, or None if inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        solution[col] = row[-1]
    return solution


def nullspace(rows, ncols):
    """Basis of {x : rows * x = 0}, one vector per free column."""
    if not rows:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vector = [Fraction(0)] * ncols
        vector[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vector[col] = -row[free]
        basis.append(vector)
    return basis


def runs(head):
    """Run-length form of a dense head: (end indices, one value per run).

    Neighbouring runs hold unequal values; equal values merge whatever
    objects hold them.
    """
    ends, values = [], []
    for n, v in enumerate(head, start=1):
        if values and v == values[-1]:
            ends[-1] = n
        else:
            ends.append(n)
            values.append(v)
    return tuple(ends), tuple(values)


# ------------------------------------------------------ operator-table oracles


def graph_negGstar_point(mu):
    """The graph point (mu, -G* mu) of the sign-flipped adjoint."""
    return PairPoint.second(mu, -lib_apply_Gstar(mu))


def graph_Gstar_point(mu):
    """The graph point (mu, G* mu) of the adjoint itself."""
    return PairPoint.second(mu, lib_apply_Gstar(mu))


OperatorOracle = namedtuple("OperatorOracle", "graph_point on_graph fitz_point on_fitz_graph")

OPERATOR_ORACLES = {
    "G-first": OperatorOracle(
        graph_point=lambda x: PairPoint.first(x, lib_apply_G(x)),
        on_graph=lambda z: z.y == lib_apply_G(z.x),
        fitz_point=lambda x: PairPoint.first(x, lib_apply_G(x)),
        on_fitz_graph=lambda z: z.y == lib_apply_G(z.x),
    ),
    "G-second": OperatorOracle(
        graph_point=lambda x: PairPoint.second(ModelMeasure.from_atomic(x), lib_apply_G(x)),
        on_graph=lambda z: z.x.infinity_mass == 0 and z.y == lib_apply_G(z.x.atomic),
        fitz_point=graph_negGstar_point,
        on_fitz_graph=lambda z: z.y == -lib_apply_Gstar(z.x),
    ),
    "negG-second": OperatorOracle(
        graph_point=lambda x: PairPoint.second(ModelMeasure.from_atomic(x), -lib_apply_G(x)),
        on_graph=lambda z: z.x.infinity_mass == 0 and z.y == -lib_apply_G(z.x.atomic),
        fitz_point=graph_Gstar_point,
        on_fitz_graph=lambda z: z.y == lib_apply_Gstar(z.x),
    ),
}


def annihilator_basis(spanning, n, system):
    """Basis points of the window annihilator, one system per branch.

    The coordinates are ordered y-head 1..N, x 1..N, the mass (second
    system) and the tail, as ``fitz._annihilator_row`` orders them.
    """
    rows = []
    for w in spanning:
        x_coeffs = [w.y.value(j) for j in range(1, n + 1)]
        if system is DualSystem.FIRST:
            y_coeffs = [w.x.value(j) for j in range(1, n + 1)]
            rows.append(y_coeffs + x_coeffs + [Fraction(0)])
        else:
            y_coeffs = [w.x.atomic.value(j) for j in range(1, n + 1)]
            rows.append(y_coeffs + x_coeffs + [w.y.limit(), w.x.infinity_mass])
    ncols = 2 * n + 1 if system is DualSystem.FIRST else 2 * n + 2
    basis = []
    for vec in nullspace(rows, ncols):
        atomic = SparseSeq.from_pairs((j + 1, vec[n + j]) for j in range(n))
        y = TailSeq(tuple(vec[:n]), (vec[-1],))
        if system is DualSystem.FIRST:
            basis.append(PairPoint.first(atomic, y))
        else:
            basis.append(PairPoint.second(ModelMeasure(atomic, vec[2 * n]), y))
    return basis


def divergence_certificate_first(z, threshold=10**6):
    """Sampled values past ``threshold`` at an off-graph first-system point,
    along the unit direction of the first index where y - Gx is nonzero."""
    if z.system is not DualSystem.FIRST:
        raise ValueError("divergence certificate works in the first system")
    deviation = z.y - lib_apply_G(z.x)
    head, tail = deviation.head, deviation.tail
    entries = list(head) + list(tail)
    index = next((n for n, v in enumerate(entries, start=1) if v != 0), None)
    if index is None:
        raise ValueError("point lies on the graph; no divergence available")
    margin = entries[index - 1]
    scale = Fraction(1) if margin > 0 else Fraction(-1)
    while scale * margin <= threshold:
        scale *= 10
    direction = SparseSeq.unit(index).scale(scale)
    sample = SampledGraph(DualSystem.FIRST, (PairPoint.first(direction, lib_apply_G(direction)),))
    return {
        "direction_index": index,
        "scale": scale,
        "value": fitz_sampled(z, sample),
        "threshold": threshold,
        "margin": margin,
    }


def fitz_sampled_fractions(z, graph):
    """The former ``fitz_sampled``: z.w - c(w) as Fractions, one
    ``natural_couple`` and one ``coupling_value`` per sample point."""
    best = -math.inf
    for w in graph.points:
        candidate = natural_couple(z, w) - coupling_value(w)
        if best == -math.inf or candidate > best:
            best = candidate
    return best


def point_coupling(x, y):
    """The coupling of an x-part with y by ``couple`` above, None outside
    the model (mass at infinity against a non-convergent y)."""
    if isinstance(x, SparseSeq):
        return couple(dict(x.entries), (y.head, y.tail))
    atomic = couple(dict(x.atomic.entries), (y.head, y.tail))
    if x.infinity_mass == 0:
        return atomic
    if len(y.tail) != 1:
        return None
    return atomic + x.infinity_mass * y.tail[0]


def plane_terms(points):
    """(c(w_i) per point, the matrix of w_i.w_j) by ``point_coupling``, None
    outside the model: the input of ``monotone_exact``."""
    couplings = [point_coupling(w.x, w.y) for w in points]
    cross = []
    for v in points:
        row = []
        for w in points:
            parts = (point_coupling(v.x, w.y), point_coupling(w.x, v.y))
            row.append(None if None in parts else parts[0] + parts[1])
        cross.append(row)
    return couplings, cross


# ------------------------------------------------------------ sampling oracles


def random_rational(rng, max_num=1000, max_den=1000, nonzero=False):
    num = rng.randint(-max_num, max_num)
    while nonzero and num == 0:
        num = rng.randint(-max_num, max_num)
    return Fraction(num, rng.randint(1, max_den))


def random_sparse(rng, max_index=64, max_support=8, max_num=1000, max_den=1000):
    k = rng.randint(1, min(max_support, max_index))
    indices = sorted(rng.sample(range(1, max_index + 1), k))
    return SparseSeq.from_pairs(
        [(n, random_rational(rng, max_num, max_den, nonzero=True)) for n in indices]
    )


def random_tail(rng, max_head=4, max_num=100, max_den=100):
    head = tuple(random_rational(rng, max_num, max_den) for _ in range(rng.randint(0, max_head)))
    if rng.random() < 0.5:
        tail = (random_rational(rng, max_num, max_den),)
    else:
        tail = tuple(random_rational(rng, max_num, max_den) for _ in range(rng.randint(2, 3)))
    return TailSeq(head, tail)


def random_constant_tail(rng, max_head=4, max_num=100, max_den=100):
    head = tuple(random_rational(rng, max_num, max_den) for _ in range(rng.randint(0, max_head)))
    return TailSeq.constant(random_rational(rng, max_num, max_den), head)


def off_graph_first(rng, count, max_index=32, max_num=10, max_den=10):
    """Points (x, Gx + d), the deviation d a dense Fraction head."""
    points = []
    for _ in range(count):
        x = random_sparse(rng, max_index, 6, max_num, max_den)
        dev_index = rng.randint(1, max_index)
        values = {dev_index: random_rational(rng, max_num, max_den, nonzero=True)}
        extra = random_sparse(rng, max_index, 3, max_num, max_den)
        for n, v in extra.entries:
            if n != dev_index and rng.random() < 0.5:
                values[n] = v
        head = [values.get(n, Fraction(0)) for n in range(1, max(values) + 1)]
        points.append(PairPoint.first(x, lib_apply_G(x) + TailSeq.constant(0, head)))
    return points
