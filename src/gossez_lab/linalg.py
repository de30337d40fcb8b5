"""Exact Gaussian elimination over the rationals, done on integers.

Small and deterministic: pivots are chosen leftmost-first, so solutions put
their nonzero entries on the smallest possible column indices and free
variables are fixed to zero.  Used for the finite moment-matching systems
and for truncated annihilator (nullspace) computations.

The elimination is integer-preserving after Bareiss (1968, *Math. Comp.*
22, "Sylvester's identity and multistep integer-preserving Gaussian
elimination"), with fraction-free back substitution (Nakos, Turner and
Williams, *Math. Comput. Educ.* 1997).  Each row is scaled once by the lcm
of its denominators; then two passes run on Python ints.

- Forward pass.  With p the new pivot and d the previous one (1 at the
  start), every row below the pivot row becomes (p*a - f*b) // d, where f
  is its entry in the pivot column and b the pivot row, over the columns
  from the pivot on: the earlier ones are zero already.  By Sylvester's
  identity every entry stays a minor of the scaled matrix, so the division
  is exact.  The result is an echelon form U whose pivot U_ii is the pivot
  value of step i; the last one is d.
- Back substitution.  From the bottom pivot row up, row i becomes
  R_i = (d*U_i - sum_{l>i} U_i[p_l] * R_l) // U_ii on the free columns,
  with d at its own pivot and 0 at the other pivots.  R_i is d times row i
  of the reduced row echelon form, whose entries times d are integers
  (minors again), so this division is exact too.
- Unit multipliers.  When |p| == |d| == 1, (p*a - f*b) // d equals
  (p*d) * (a - (f*p)*b).  The rows below keep a - (f*p)*b and one sign
  for all of them takes the factor p*d; a row takes that sign when it
  becomes the pivot row.  A multiplier of +-1, in that step or in back
  substitution, subtracts or adds the other row with ``operator.sub`` or
  ``operator.add`` mapped over it: no product or division per entry.

The reduced row echelon form is the integer rows divided by d.  That form
is unique, so the bases and solutions equal those of elimination on
``Fraction`` rows; a ``Fraction`` is built only for the entries returned.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import lcm
from operator import add, neg, sub

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _minus_multiple(a: list[int], b: list[int], h: int):
    """a - h*b entrywise; h = +-1 takes an ``operator`` map, with no
    integer multiplication in the interpreter."""
    if h == 1:
        return map(sub, a, b)
    if h == -1:
        return map(add, a, b)
    return [x - h * y for x, y in zip(a, b)]


def _rref(matrix: Matrix) -> tuple[list[list[int]], list[int], int]:
    """Integer reduced row echelon form: (rows, pivot column per row, d).

    The rational reduced row echelon form of ``matrix`` is ``rows`` divided
    entrywise by ``d``.
    """
    rows = []
    for row in matrix:
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    pivots: list[int] = []
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
                    row[col:] = _minus_multiple(row[col:], pivot, f * p)
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
    reduced: list[list[int]] = []  # R_l on the free columns after p_l, bottom row first
    for i in range(len(pivots) - 1, -1, -1):
        row, col = rows[i], pivots[i]
        cols = free[bisect(free, col) :]
        part = [d * row[j] for j in cols]
        for other, other_col in zip(reversed(reduced), pivots[i + 1 :]):
            c = row[other_col]
            if c:
                start = len(part) - len(other)
                part[start:] = _minus_multiple(part[start:], other, c)
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


def solve_minimal(rows: Matrix, rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve rows * x = rhs exactly, or return None if inconsistent.

    Free variables are zero, so the returned solution is supported on the
    leftmost pivot columns only.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    reduced, pivots, d = _rref(augmented)
    if ncols in pivots:
        return None  # a row reduced to 0 = nonzero
    solution = [_ZERO] * ncols
    for row, col in zip(reduced, pivots):
        solution[col] = Fraction(row[-1], d)
    return solution


def nullspace(rows: Matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of {x : rows * x = 0}, one vector per free column."""
    if not rows:
        return [[_ONE if i == j else _ZERO for i in range(ncols)] for j in range(ncols)]
    reduced, pivots, d = _rref(rows)
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vector = [_ZERO] * ncols
        vector[free] = _ONE
        for row, col in zip(reduced, pivots):
            vector[col] = Fraction(-row[free], d)
        basis.append(vector)
    return basis
