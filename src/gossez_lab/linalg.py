"""Exact Gaussian elimination over the rationals, done on integers.

Small and deterministic: pivots are chosen leftmost-first, so solutions put
their nonzero entries on the smallest possible column indices and free
variables are fixed to zero.  Used for the finite moment-matching systems
and for truncated annihilator (nullspace) computations.

The elimination is integer-preserving Gauss-Jordan after Bareiss (1968,
*Math. Comp.* 22, "Sylvester's identity and multistep integer-preserving
Gaussian elimination").  Each row is scaled once by the lcm of its
denominators.  With p the new pivot and d the previous one (1 at the
start), every other row becomes (p*a - f*b) // d, where f is its entry in
the pivot column and b the pivot row.  By Sylvester's identity every entry
stays a minor of the scaled matrix, so the division is exact and no
rational arithmetic happens inside the loop.  When the loop ends, every
pivot row carries the same pivot value d, and the reduced row echelon form
is the integer rows divided by d.  That form is unique, so the bases and
solutions equal those of elimination on ``Fraction`` rows; a ``Fraction``
is built only for the entries returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    ncols = len(rows[0]) if rows else 0
    d = 1
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[col]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][col]
            if f != 0:
                rows[i] = [(p * a - f * b) // d for a, b in zip(rows[i], pivot)]
            elif p != d:
                rows[i] = [p * a // d for a in rows[i]]
        d = p
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
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
