"""Exact Gaussian elimination over the rationals, done on packed integers.

Small and deterministic: pivots are chosen leftmost-first, so solutions put
their nonzero entries on the smallest possible column indices and free
variables are fixed to zero.  Used for the finite moment-matching systems
and for truncated annihilator (nullspace) computations.  Entries are ints
or ``Fraction``s; each row is scaled once by the lcm of its denominators.

The elimination is integer-preserving after Bareiss (1968, *Math. Comp.*
22, "Sylvester's identity and multistep integer-preserving Gaussian
elimination"), with fraction-free back substitution (Nakos, Turner and
Williams, *Math. Comput. Educ.* 1997).

- Forward pass.  With p the new pivot and d the previous one (1 at the
  start), every row below the pivot row becomes (p*a - f*b) // d, where f
  is its entry in the pivot column and b the pivot row.  By Sylvester's
  identity every entry stays a minor of the scaled matrix, so the division
  is exact.  The result is an echelon form U whose pivot U_ii is the pivot
  value of step i; the last one is d.  When |p| == |d| == 1 the rows below
  keep a - (f*p)*b and one sign for all of them takes the factor p*d; a
  row takes that sign when it becomes the pivot row.
- Back substitution.  From the bottom pivot row up, row i becomes
  R_i = (d*U_i - sum_{l>i} U_i[p_l] * R_l) // U_ii, which is d at its own
  pivot and 0 at the other pivots.  R_i is d times row i of the reduced
  row echelon form, whose entries times d are integers (minors again), so
  this division is exact too.

Packed rows (Kronecker substitution; Dumas, Fousse and Salvy, *J. Symbolic
Comput.* 46(7), 2011).  Both passes run on rows stored as single ints, so
each row operation above is one big-int operation in C.

- Slot layout.  A row (a_0, ..., a_{n-1}) is the int
  X = sum_j a_j * B**(n-1-j) with B = 2**w: column j sits in slot n-1-j of
  w bits, column 0 the most significant.  The digits are balanced: a
  negative entry borrows from the slot above.  w is a whole number of
  bytes, 16 bits at the least.
- Bound invariant.  Each row carries a bound b >= max |a_j|, and
  b < 2**(w-1) - 1.  While it holds, balanced digits are unique, so X
  decodes exactly.
- Signed digits with an XOR offset.  Let O hold 2**(w-1) in every slot.
  Written as w-bit two's-complement digits, the entries read as one
  unsigned int U; flipping each slot's top bit adds 2**(w-1) to its digit,
  so X = (U ^ O) - O.  Backwards, X + O has the plain digits
  a_j + 2**(w-1), and (X + O) ^ O has the two's-complement ones.  Slots of
  16, 32 and 64 bits go between a row and its bytes through a signed
  ``array`` (with ``int.from_bytes``/``to_bytes`` on the whole row), so
  the codec runs in C; wider slots take one signed ``to_bytes`` or
  ``from_bytes`` per entry.  The bound of a row is
  max(max(row), -min(row)).
- Entry read.  While a row's earlier columns are zero, its entry at
  column j is (X + 2**(s-1)) >> s with s = w*(n-1-j) (X itself for
  s = 0), because everything below that slot is less than half of it.  It
  is read shift-first, as ((X >> (s-1)) + 1) >> 1, the same value, with
  the add on the small top part instead of the whole row.  A row with
  -2**(s-1) <= X < 2**(s-1) has entry 0 there and is not shifted at all;
  rows that arrive reduced, an identity block first, read every entry
  below a pivot that way.
- Exact packed division.  Evaluation at B is Z-linear, so p*X - f*Y packs
  the entrywise combination, whatever its digits.  d divides every entry
  of that combination, so it divides the integer, and the quotient packs
  the entrywise quotients.  Intermediate products may overflow their
  slots; only results must fit.
- Bounds follow the operations: (|p|*b_a + |f|*b_b) // |d| in the forward
  pass.  A pivot row's bound is made exact when it is chosen, and the row
  is not touched again in that pass.  Back substitution bounds in two
  steps: first (|d|*b_U + max_l b_l * sum |U_i[p_l]|) // |U_ii| with the
  largest bound of the rows R_l done so far, and only when that reaches
  the cap the per-term (|d|*b_U + sum |U_i[p_l]|*b_l) // |U_ii|.
- Tightening and widening.  Before an operation whose bound would reach
  the cap 2**(w-1) - 1, its rows are decoded and their bounds made exact.
  If the bound still reaches the cap, w doubles and every row is
  repacked.  No row is ever decoded past its bound, so nothing overflows
  and no second path is needed.
- Back substitution decodes each U_i once, to read its coefficients, and
  each R_i once: that makes its bound exact and is the row returned.  When
  U_ii == d and U_i is 0 at every later pivot, R_i = U_i: the decoded U_i
  and its exact bound stand, with no recombination and no second decode.

The reduced row echelon form is the integer rows divided by d.  That form
is unique, so the bases and solutions equal those of elimination on
``Fraction`` rows.  ``solve_minimal`` builds one ``Fraction`` per pivot
entry of its solution; ``nullspace`` returns integers: the canonical basis
(free variables 0 or 1) times |d|, so each vector holds |d| at its own free
column, its last nonzero entry.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import lcm
from typing import Union

Entry = Union[int, Fraction]
Matrix = list[list[Entry]]

_ZERO = Fraction(0)

# Signed array type codes by item size: slots of 16 to 64 bits are encoded
# and decoded through the buffer protocol, wider ones one entry at a time.
_CODES = {array(code).itemsize: code for code in "hiq"}
_LITTLE = sys.byteorder == "little"


def _bound(row: list[int]) -> int:
    """max |entry| of an int row."""
    return max(max(row, default=0), -min(row, default=0))


class _Slots:
    """The packing of rows of ``ncols`` entries into slots of ``width`` bits."""

    def __init__(self, width: int, ncols: int) -> None:
        self.width = width
        self.ncols = ncols
        self.half = 1 << (width - 1)
        self.cap = self.half - 1
        self.size = width // 8
        self.code = _CODES.get(self.size)
        # half in every slot: XOR flips each slot's top bit.
        self.offset = int.from_bytes((b"\x80" + bytes(self.size - 1)) * ncols, "big")

    @staticmethod
    def fitting(bound: int, ncols: int) -> _Slots:
        """The narrowest slots, 16 bits or a doubling of that, holding ``bound``."""
        width = 16
        while bound >= (1 << (width - 1)) - 1:
            width *= 2
        return _Slots(width, ncols)

    def pack(self, row: list[int]) -> int:
        if self.code:
            raw = array(self.code, row)
            if _LITTLE:
                raw.byteswap()
        else:
            size = self.size
            raw = b"".join([a.to_bytes(size, "big", signed=True) for a in row])
        # Two's-complement slots read as one unsigned int; flipping each top
        # bit adds half to every slot, and subtracting the offset takes it off
        # as balanced digits.
        return (int.from_bytes(raw, "big") ^ self.offset) - self.offset

    def _raw(self, x: int, order: str) -> bytes:
        """The slots of x as w-bit two's-complement digits in byte
        ``order``; big-endian puts column 0 first."""
        return ((x + self.offset) ^ self.offset).to_bytes(self.size * self.ncols, order)

    def unpack(self, x: int) -> list[int]:
        if self.code:
            digits = array(self.code, self._raw(x, "big"))
            if _LITTLE:
                digits.byteswap()
            return digits.tolist()
        raw, size = self._raw(x, "big"), self.size
        return [
            int.from_bytes(raw[k : k + size], "big", signed=True) for k in range(0, len(raw), size)
        ]

    def bound(self, x: int) -> int:
        """max |entry| of the packed row x."""
        if self.code:
            # Native order: the columns come reversed, which a bound ignores.
            return _bound(array(self.code, self._raw(x, sys.byteorder)).tolist())
        return _bound(self.unpack(x))


def _integer_row(row: list[Entry], ncols: int) -> list[int]:
    """The row times the lcm of its denominators."""
    if len(row) != ncols:
        raise ValueError(f"ragged matrix: a row of {len(row)} entries among rows of {ncols}")
    kinds = set(map(type, row))
    if kinds <= {int}:
        return row
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
    bounds = [_bound(row) for row in rows]
    slots = _Slots.fitting(max(bounds, default=0), ncols)
    packed = [slots.pack(row) for row in rows]

    def make_room(terms: list[tuple[int, int]], divisor: int) -> int:
        """The bound of sum(c * row i) // divisor over (c, i) in ``terms``,
        after tightening those rows' bounds and widening the slots to hold it."""
        nonlocal slots
        for _, i in terms:
            bounds[i] = slots.bound(packed[i])
        bound = sum(abs(c) * bounds[i] for c, i in terms) // divisor
        while bound >= slots.cap:
            wider = _Slots(2 * slots.width, ncols)
            packed[:] = [wider.pack(slots.unpack(x)) for x in packed]
            slots = wider
        return bound

    pivots: list[int] = []
    d = 1
    # Forward pass.  The rows not yet pivotal hold their Bareiss values
    # times ``sign``.
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        shift = slots.width * (ncols - 1 - col)
        # Entries at col of the rows from r on; their earlier columns are
        # zero.  (x + 2**(shift-1)) >> shift, with the add on the top part;
        # a row in [-2**(shift-1), 2**(shift-1)) reads 0 without a shift.
        if shift:
            high = 1 << (shift - 1)
            low = -high
            entries = [
                0 if low <= x < high else ((x >> (shift - 1)) + 1) >> 1 for x in packed[r:]
            ]
        else:
            entries = packed[r:]
        k = next((k for k, f in enumerate(entries) if f), None)
        if k is None:
            continue
        i = r + k
        packed[r], packed[i] = packed[i], packed[r]
        bounds[r], bounds[i] = bounds[i], bounds[r]
        entries[0], entries[k] = entries[k], entries[0]
        p = entries[0]
        bounds[r] = slots.bound(packed[r])
        if sign == -1:
            packed[r] = -packed[r]
            p = -p
        abs_p, abs_d = abs(p), abs(d)
        unit = abs_p == 1 and abs_d == 1
        for i, f in enumerate(entries[1:], r + 1):
            if not f and (unit or p == d):
                continue
            bound = (abs_p * bounds[i] + abs(f) * bounds[r]) // abs_d
            if bound >= slots.cap:
                bound = make_room([(p, i), (f, r)], abs_d)
            bounds[i] = bound
            if unit:
                # (p*a - f*b) // d == (p*d) * (a - (f*p)*b); the sign takes p*d.
                h = f * p
                if h == 1:
                    packed[i] -= packed[r]
                elif h == -1:
                    packed[i] += packed[r]
                else:
                    packed[i] -= h * packed[r]
            else:
                packed[i] = (p * packed[i] - f * packed[r]) // d
        if unit:
            sign *= p * d
        d = p
        pivots.append(col)
    # Back substitution, bottom pivot row first: packed[l] becomes R_l.
    rank = len(pivots)
    upper = [slots.unpack(x) for x in packed[:rank]]
    result = upper + [[0] * ncols for _ in range(rank, nrows)]
    abs_d = abs(d)
    top = 0  # the largest bound of the rows R_l done so far
    for i in range(rank - 1, -1, -1):
        row = upper[i]
        u = row[pivots[i]]
        coeffs = [row[c] for c in pivots[i + 1 :]]
        if u == d and not any(coeffs):
            # R_i = d*U_i // u = U_i: the unpacked row and its exact bound stand.
            top = max(top, bounds[i])
            continue
        # bounds[i] is exact: a pivot row's bound is made exact when it is
        # chosen.  Bound first with the largest bound of the rows below,
        # then term by term.
        bound = (abs_d * bounds[i] + top * sum(map(abs, coeffs))) // abs(u)
        if bound >= slots.cap:
            terms = [(c, l) for l, c in enumerate(coeffs, i + 1) if c]
            bound = (abs_d * bounds[i] + sum(abs(c) * bounds[l] for c, l in terms)) // abs(u)
            if bound >= slots.cap:
                make_room([(d, i), *terms], abs(u))
        x = d * packed[i]
        for l, c in enumerate(coeffs, i + 1):
            if c == 1:
                x -= packed[l]
            elif c == -1:
                x += packed[l]
            elif c:
                x -= c * packed[l]
        if u != 1:
            x //= u
        packed[i] = x
        result[i] = slots.unpack(x)
        bounds[i] = _bound(result[i])
        top = max(top, bounds[i])
    return result, pivots, d


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
