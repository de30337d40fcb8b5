"""Exact Gaussian elimination over the rationals, done on integer rows.

Small and deterministic: pivots are chosen leftmost-first, so solutions put
their nonzero entries on the smallest possible column indices and free
variables are fixed to zero.  Used for the finite moment-matching systems
and for truncated annihilator (nullspace) computations.  Entries are ints
or ``Fraction``s; each row is scaled once by the lcm of its denominators,
into a list of ints of its own, so the caller's rows are never changed.

The elimination is integer-preserving after Bareiss (1968, *Math. Comp.*
22, "Sylvester's identity and multistep integer-preserving Gaussian
elimination"), with fraction-free back substitution (Nakos, Turner and
Williams, *Math. Comput. Educ.* 1997).

- Forward pass.  With p the new pivot and d the previous one (1 at the
  start), every row below the pivot row becomes (p*a - f*b) // d over the
  columns from the pivot on, where f is its entry in the pivot column and
  b the pivot row; its earlier columns are zero already.  By Sylvester's
  identity every entry stays a minor of the scaled matrix, so the division
  is exact.  The result is an echelon form U whose pivot U_ii is the pivot
  value of step i; the last one is d.
- Back substitution.  From the bottom pivot row up, row i becomes
  R_i = (d*U_i - sum_{l>i} U_i[p_l] * R_l) // U_ii, which is d at its own
  pivot and 0 at the other pivots.  R_i is d times row i of the reduced
  row echelon form, whose entries times d are integers (minors again), so
  this division is exact too.  When U_ii == d and U_i is 0 at every later
  pivot, R_i = U_i and the row is kept as it is.

An annihilator row orders the window coordinates y-head first (see
``fitz``), so a unit spanning set arrives as [I | A], already reduced with
d = 1: no row below a pivot changes, and every row is kept.

The reduced row echelon form is the integer rows divided by d.  That form
is unique, so the bases and solutions equal those of elimination on
``Fraction`` rows.  ``solve_minimal`` builds one ``Fraction`` per pivot
entry of its solution; ``nullspace`` returns integers: the canonical basis
(free variables 0 or 1) times |d|, so each vector holds |d| at its own free
column, its last nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

Entry = Union[int, Fraction]
Matrix = list[list[Entry]]

_ZERO = Fraction(0)


def _integer_row(row: list[Entry], ncols: int) -> list[int]:
    """A new list: the row times the lcm of its denominators."""
    if len(row) != ncols:
        raise ValueError(f"ragged matrix: a row of {len(row)} entries among rows of {ncols}")
    kinds = set(map(type, row))
    if kinds <= {int}:
        return list(row)
    if not kinds <= {int, Fraction}:
        bad = next(v for v in row if type(v) is not int and type(v) is not Fraction)
        raise TypeError(f"matrix entries must be int or Fraction, got {type(bad).__name__}")
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _rref(matrix: Matrix) -> tuple[list[list[int]], list[int], int]:
    """Integer reduced row echelon form: (rows, pivot column per row, d).

    The rational reduced row echelon form of ``matrix`` is ``rows`` divided
    entrywise by ``d``.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    rows = [_integer_row(row, ncols) for row in matrix]
    pivots: list[int] = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        i = next((i for i in range(r, nrows) if rows[i][col]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r][col:]
        p = pivot[0]
        for row in rows[r + 1 :]:
            f = row[col]
            if f:
                row[col:] = [(p * a - f * b) // d for a, b in zip(row[col:], pivot)]
            elif p != d:
                row[col:] = [p * a // d for a in row[col:]]
        d = p
        pivots.append(col)
    # Back substitution, bottom pivot row first: rows[i] becomes R_i, which
    # is zero left of its pivot, so each term starts at its own pivot.
    for i in range(len(pivots) - 1, -1, -1):
        row, col = rows[i], pivots[i]
        u = row[col]
        terms = [(row[c], c, rows[l]) for l, c in enumerate(pivots[i + 1 :], i + 1) if row[c]]
        if u == d and not terms:
            continue
        new = [d * a for a in row[col:]]
        for c, start, other in terms:
            k = start - col
            new[k:] = [a - c * b for a, b in zip(new[k:], other[start:])]
        row[col:] = new if u == 1 else [a // u for a in new]
    return rows, pivots, d


def solve_minimal(rows: Matrix, rhs: list[Entry]) -> list[Fraction] | None:
    """Solve rows * x = rhs exactly, or return None if inconsistent.

    Free variables are zero, so the returned solution is supported on the
    leftmost pivot columns only.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if not rows:
        return []
    ncols = len(rows[0])
    augmented = [[*row, b] for row, b in zip(rows, rhs)]
    reduced, pivots, d = _rref(augmented)
    if ncols in pivots:
        return None  # a row reduced to 0 = nonzero
    solution = [_ZERO] * ncols
    for row, col in zip(reduced, pivots):
        solution[col] = Fraction(row[-1], d)
    return solution


def nullspace(rows: Matrix, ncols: int) -> list[list[int]]:
    """Basis of {x : rows * x = 0}, one integer vector per free column.

    The vectors are the canonical basis (leftmost pivots; each free
    variable 1 in its own vector, 0 in the others) times one common
    denominator d > 0 of its entries, the absolute value of the last
    pivot.  A vector holds d at its own free column, and that is its last
    nonzero entry: the reduced rows are zero left of their pivots.
    """
    if not rows:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    if len(rows[0]) != ncols:
        raise ValueError(f"rows have {len(rows[0])} entries, expected ncols = {ncols}")
    reduced, pivots, d = _rref(rows)
    # x_col = -row[free] / d on the pivot columns; times |d| that is
    # -row[free] for d > 0 and row[free] for d < 0.
    sign = -1 if d > 0 else 1
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vector = [0] * ncols
        vector[free] = abs(d)
        for row, col in zip(reduced, pivots):
            vector[col] = sign * row[free]
        basis.append(vector)
    return basis
