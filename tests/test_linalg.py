"""Exact elimination: minimal-support solving and nullspace bases.

The integer elimination is checked for exact equality against the
``Fraction`` elimination kept in ``dense_reference``, and its integer
(rows, pivots, d) against the Gauss-Jordan Bareiss elimination and the
list elimination kept there, also where the entries grow far beyond
those of the scaled rows.  None of the three entry points changes the
rows or right-hand sides it is given.  ``nullspace`` returns integer
vectors over a common denominator; ``fractions_of`` divides each by its
last nonzero entry, which is that denominator, to compare with the
``Fraction`` basis.
"""

import copy
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab import linalg
from gossez_lab.fitz import annihilator_truncated
from gossez_lab.linalg import nullspace, solve_minimal
from gossez_lab.sampling import embed_first, unit_graph_points
from gossez_lab.spaces import DualSystem, SparseSeq

from strategies import nonzero_rationals, rationals

F = Fraction


def rows_of(*rows):
    return [[F(v) for v in row] for row in rows]


def fractions_of(basis):
    """Each integer vector of ``nullspace`` divided by its last nonzero entry."""
    assert all(type(v) is int for vector in basis for v in vector)
    vectors = []
    for vector in basis:
        d = next(v for v in reversed(vector) if v)
        vectors.append([F(v, d) for v in vector])
    return vectors


def assert_integer_contract(rows, ncols, basis):
    """Integer vectors, one per free column: the last nonzero entry of each
    is the common d > 0, on its own free column, where the others hold 0."""
    assert all(type(v) is int for vector in basis for v in vector)
    pivots = linalg._rref(rows)[1] if rows else []
    free = [j for j in range(ncols) if j not in pivots]
    assert [max(j for j, v in enumerate(vector) if v) for vector in basis] == free
    assert len({vector[j] for vector, j in zip(basis, free)}) <= 1
    for vector, j in zip(basis, free):
        assert vector[j] > 0
        assert [vector[k] for k in free] == [vector[j] * (k == j) for k in free]


def test_solve_prefers_leftmost_columns():
    # one equation, three unknowns: x2 + x3 = 1 with zero coefficient first
    rows = rows_of([0, 1, 1])
    solution = solve_minimal(rows, [F(1)])
    assert solution == [F(0), F(1), F(0)]


def test_solve_exact_values():
    rows = rows_of([2, 1], [1, -1])
    x, y = solve_minimal(rows, [F(1), F(2)])
    assert 2 * x + y == 1 and x - y == 2
    assert x == F(1) and y == F(-1)


def test_solve_detects_inconsistency():
    rows = rows_of([1, 1], [2, 2])
    assert solve_minimal(rows, [F(1), F(3)]) is None
    # same dependent rows, consistent rhs
    assert solve_minimal(rows, [F(1), F(2)]) == [F(1), F(0)]


def test_solve_no_equations():
    assert solve_minimal([], []) == []


def test_nullspace_dimensions_and_orthogonality():
    rows = rows_of([1, 2, 0, -1], [0, 0, 1, 1])
    basis = fractions_of(nullspace(rows, 4))
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_nullspace_of_zero_rows_is_full_space():
    basis = fractions_of(nullspace(rows_of([0, 0, 0]), 3))
    assert len(basis) == 3


def test_nullspace_empty_rows():
    basis = fractions_of(nullspace([], 2))
    assert basis == [[F(1), F(0)], [F(0), F(1)]]


def entries(big: bool):
    values = rationals(10**30, 10**20) if big else rationals(9, 6)
    return st.one_of(st.just(F(0)), values)


@st.composite
def matrices(draw, max_rows: int = 6, max_cols: int = 7):
    """Rank-deficient on purpose: zero, duplicate and combined rows, zero columns."""
    ncols = draw(st.integers(1, max_cols))
    values = entries(draw(st.booleans()))
    rows = draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols), max_size=max_rows))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([F(0)] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(values, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    rows = [[F(0) if j in zero_cols else v for j, v in enumerate(row)] for row in rows]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


def assert_all_fractions(vectors):
    for vector in vectors:
        assert all(type(v) is Fraction for v in vector)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_matches_fraction_elimination(rows):
    ncols = len(rows[0]) if rows else 3
    basis = nullspace(rows, ncols)
    assert fractions_of(basis) == ref.nullspace(rows, ncols)
    assert_integer_contract(rows, ncols, basis)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_minimal_matches_fraction_elimination(data):
    rows = data.draw(matrices())
    ncols = len(rows[0]) if rows else 0
    values = entries(data.draw(st.booleans()))
    if data.draw(st.booleans()):  # consistent: rhs is rows * x
        x = data.draw(st.lists(values, min_size=ncols, max_size=ncols))
        rhs = [sum((r * v for r, v in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(values, min_size=len(rows), max_size=len(rows)))
    solution = solve_minimal(rows, rhs)
    assert solution == ref.solve_minimal(rows, rhs)
    if solution is not None:
        assert_all_fractions([solution])
        assert [sum((r * v for r, v in zip(row, solution)), F(0)) for row in rows] == rhs


@st.composite
def unit_matrices(draw, max_n: int = 12):
    """Matrices whose elimination meets pivots and multipliers of +-1.

    0/+-1 entries, skew-symmetric +-1 matrices (Gossez's sign kernel among
    them) and 0/+-1 matrices with a few entries that are not units, so
    that unit and non-unit steps alternate.  Columns inserted as signed
    copies or sums of others, or as zeros, put free columns between the
    pivots; a duplicated or negated row makes the matrix rank-deficient.
    """
    kind = draw(st.sampled_from(["signs", "skew", "kernel", "mixed"]))
    if kind in ("skew", "kernel"):
        n = draw(st.integers(1, max_n))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = -ref.alpha(i, j) if kind == "kernel" else draw(st.sampled_from([1, -1]))
                rows[i][j], rows[j][i] = v, -v
    else:
        ncols = draw(st.integers(1, max_n))
        row = st.lists(st.sampled_from([0, 1, -1]), min_size=ncols, max_size=ncols)
        rows = draw(st.lists(row, min_size=1, max_size=max_n))
        if kind == "mixed":
            others = st.one_of(st.sampled_from([2, -2, 3, -5]), nonzero_rationals(7, 4))
            for _ in range(draw(st.integers(1, 4))):
                i = draw(st.integers(0, len(rows) - 1))
                j = draw(st.integers(0, ncols - 1))
                rows[i][j] = draw(others)
    for _ in range(draw(st.integers(0, 3))):
        width = len(rows[0])
        at = draw(st.integers(0, width))
        a, b = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
        sa, sb = draw(st.sampled_from([(1, 0), (-1, 0), (1, 1), (1, -1), (0, 0)]))
        for r in rows:
            r.insert(at, sa * r[a] + sb * r[b])
    if draw(st.booleans()):
        copy = draw(st.sampled_from(rows))
        sign = draw(st.sampled_from([1, -1]))
        rows.insert(draw(st.integers(0, len(rows))), [sign * v for v in copy])
    return [[F(v) for v in r] for r in rows]


@settings(max_examples=300, deadline=None)
@given(unit_matrices())
def test_unit_matrices_nullspace_matches_fraction_elimination(rows):
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    assert fractions_of(basis) == ref.nullspace(rows, ncols)
    assert_integer_contract(rows, ncols, basis)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_matrices_solve_minimal_matches_fraction_elimination(data):
    rows = data.draw(unit_matrices())
    ncols = len(rows[0])
    units = st.sampled_from([F(0), F(1), F(-1)])
    values = st.one_of(units, rationals(9, 6))
    if data.draw(st.booleans()):  # consistent: rhs is rows * x
        x = data.draw(st.lists(values, min_size=ncols, max_size=ncols))
        rhs = [sum((r * v for r, v in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(values, min_size=len(rows), max_size=len(rows)))
    solution = solve_minimal(rows, rhs)
    assert solution == ref.solve_minimal(rows, rhs)
    if solution is not None:
        assert_all_fractions([solution])


@st.composite
def wide_matrices(draw):
    """Matrices whose entries grow during elimination.

    Numerators and denominators up to 2**120, or Hilbert-type rows
    1/(i + j + shift) whose pivots are not units and whose minors outgrow
    the scaled rows.
    """
    if draw(st.booleans()):
        nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 9))
        shift = draw(st.integers(1, 4))
        return [[F(1, i + j + shift) for j in range(ncols)] for i in range(nrows)]
    ncols = draw(st.integers(1, 6))
    huge = st.builds(F, st.integers(-(2**120), 2**120), st.integers(1, 2**120))
    values = st.one_of(st.just(F(0)), huge, st.integers(-3, 3).map(F))
    return draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols), max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), unit_matrices(), wide_matrices()))
def test_rref_matches_gauss_jordan_bareiss(rows):
    # The same integer rows, pivots and final pivot d, signs included.
    assert linalg._rref(rows) == ref.bareiss_gauss_jordan(rows) == ref.list_rref(rows)


@st.composite
def reduced_matrices(draw, max_n: int = 8):
    """Rows [P | A] that arrive reduced, as a unit spanning set's annihilator
    rows do, in any row order.

    P is the identity, a diagonal of signs with a negative pivot among them,
    or the identity with one pivot that is not a unit; A holds small
    integers and rationals, zero columns among them.
    """
    n = draw(st.integers(1, max_n))
    width = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["identity", "negative", "non-unit"]))
    if kind == "identity":
        diagonal = [1] * n
    elif kind == "negative":
        diagonal = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        diagonal[draw(st.integers(0, n - 1))] = -1
    else:
        diagonal = [1] * n
        diagonal[draw(st.integers(0, n - 1))] = draw(st.sampled_from([2, -3, 7]))
    values = st.one_of(st.sampled_from([F(0), F(1), F(-1)]), rationals(9, 6))
    rows = []
    for i, p in enumerate(diagonal):
        block = [F(p) if j == i else F(0) for j in range(n)]
        rows.append(block + draw(st.lists(values, min_size=width, max_size=width)))
    order = draw(st.permutations(range(n)))
    return [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(reduced_matrices())
def test_reduced_matrices_match_both_oracles(rows):
    # No row below a pivot changes, and a row already reduced is kept as it
    # is: (rows, pivots, d) must equal both oracles.
    assert linalg._rref(rows) == ref.bareiss_gauss_jordan(rows) == ref.list_rref(rows)
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    assert fractions_of(basis) == ref.nullspace(rows, ncols)
    assert_integer_contract(rows, ncols, basis)


@st.composite
def entry_kinds(draw, matrix):
    """``matrix`` as drawn, with ``Fraction`` entries; or each row scaled to
    ints by the lcm of its denominators; or integral entries made ints."""
    kind = draw(st.sampled_from(["fraction", "int", "mixed"]))
    if kind == "fraction":
        return matrix
    if kind == "int":
        rows = []
        for row in matrix:
            scale = math.lcm(*(v.denominator for v in row))
            rows.append([int(v * scale) for v in row])
        return rows
    return [[int(v) if v.denominator == 1 else v for v in row] for row in matrix]


def sign_kernel_block(n):
    """[I | A] in ints, A Gossez's sign kernel: already reduced, d = 1."""
    return [[int(i == j) for j in range(n)] + [ref.alpha(i, j) for j in range(n)] for i in range(n)]


def assert_inputs_unchanged(rows, rhs):
    before = copy.deepcopy((rows, rhs))
    reduced = linalg._rref(rows)[0]
    assert not any(out is row for out in reduced for row in rows)
    nullspace(rows, len(rows[0]) if rows else 3)
    if len(rhs) == len(rows):
        solve_minimal(rows, rhs)
    assert (rows, rhs) == before
    assert all(type(v) is type(w) for row, old in zip(rows, before[0]) for v, w in zip(row, old))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_elimination_leaves_its_inputs_unchanged(data):
    # The elimination works on rows of its own: int, Fraction and mixed
    # rows, reduced [P | A] rows and rank-deficient rows come back as given.
    matrix = data.draw(st.one_of(matrices(), unit_matrices(), reduced_matrices(), wide_matrices()))
    rows = data.draw(entry_kinds(matrix))
    rhs = data.draw(st.lists(rationals(9, 6), min_size=len(rows), max_size=len(rows)))
    assert_inputs_unchanged(rows, rhs)


@pytest.mark.parametrize(
    "rows",
    [
        sign_kernel_block(6),
        [[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 0, 1]],
        [[2, 2], [-1, -7233], [2, 2]],
        [[F(1, 2), 1], [1, 2], [F(3), F(-1, 3)]],
    ],
    ids=["reduced", "rank-deficient", "growth", "fraction"],
)
def test_elimination_leaves_given_rows_unchanged(rows):
    # One row object listed twice, too: each is scaled into a row of its own.
    assert_inputs_unchanged(rows, list(range(len(rows))))
    shared = [rows[0], rows[0], *rows[1:]]
    assert_inputs_unchanged(shared, [1] * len(shared))


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[0]],
        [[-7]],
        [[0, 0, 0]],
        [[0, 2, -3]],
        [[0], [4], [0], [-6]],
        [[0, 0], [0, 0]],
        [[0, 1, 0], [0, 0, 0], [0, 2, 0]],
        [[F(1, 3), 0, F(-2, 5)], [0, 0, 0], [1, 0, 1]],
        # The second step scales the third row, zero by then, by -14464/2.
        [[2, 2], [-1, -7233], [2, 2]],
        # Hilbert minors outgrow the scaled rows.
        [[F(1, i + j + 1) for j in range(8)] for i in range(8)],
    ],
)
def test_rref_edge_shapes_match_both_oracles(rows):
    # No equations, zero rows and columns, a single row or column, int
    # entries too, and two matrices whose entries grow.
    fractions = [[F(v) for v in row] for row in rows]
    expected = ref.bareiss_gauss_jordan(fractions)
    assert expected == ref.list_rref(fractions)
    assert linalg._rref(rows) == linalg._rref(fractions) == expected


@settings(max_examples=200, deadline=None)
@given(wide_matrices())
def test_nullspace_matches_fraction_elimination_where_entries_grow(rows):
    ncols = len(rows[0]) if rows else 3
    basis = nullspace(rows, ncols)
    assert fractions_of(basis) == ref.nullspace(rows, ncols)
    assert_integer_contract(rows, ncols, basis)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), unit_matrices(), wide_matrices()))
def test_nullspace_with_a_negative_last_pivot_matches_fraction_elimination(rows):
    assume(rows and linalg._rref(rows)[2] < 0)
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    assert fractions_of(basis) == ref.nullspace(rows, ncols)
    assert_integer_contract(rows, ncols, basis)


def test_nullspace_scales_by_the_last_pivot_made_positive():
    # Bareiss pivots 1 and -3: the basis vector (-7, -1, 3) / 3 times 3.
    rows = [[1, 2, 3], [2, 1, 5]]
    assert linalg._rref(rows)[2] == -3
    assert nullspace(rows, 3) == [[-7, -1, 3]]


def test_nullspace_rejects_mismatched_ncols():
    with pytest.raises(ValueError):
        nullspace([[1, 2, 3]], 2)
    with pytest.raises(ValueError):
        nullspace([[1, 2]], 3)


def test_elimination_rejects_ragged_rows():
    with pytest.raises(ValueError):
        nullspace([[1, 2], [3]], 2)
    with pytest.raises(ValueError):
        solve_minimal([[1, 2], [3]], [1, 2])


def test_solve_minimal_rejects_mismatched_rhs():
    with pytest.raises(ValueError):
        solve_minimal([[1, 2], [3, 4]], [1])
    with pytest.raises(ValueError):
        solve_minimal([], [1])


@pytest.mark.parametrize("bad", [0.5, True, "1", None])
def test_elimination_rejects_entries_not_int_or_fraction(bad):
    with pytest.raises(TypeError):
        nullspace([[1, bad]], 2)
    with pytest.raises(TypeError):
        solve_minimal([[F(1), 2]], [bad])


def test_alternating_unit_pivots_match_fraction_elimination():
    # The sign kernel has pivots -1, -1, 1, 1, ...: every other step has p == -d.
    n = 12
    kernel = [[F(-ref.alpha(i, j)) for j in range(n)] for i in range(n)]
    rhs = [F(i % 3 - 1) for i in range(n)]
    augmented = [row + [b] for row, b in zip(kernel, rhs)]
    assert fractions_of(nullspace(augmented, n + 1)) == ref.nullspace(augmented, n + 1)
    assert solve_minimal(kernel, rhs) == ref.solve_minimal(kernel, rhs)


@given(st.integers(0, 6))
def test_no_equations_match_fraction_elimination(ncols):
    basis = nullspace([], ncols)
    assert fractions_of(basis) == ref.nullspace([], ncols)
    assert_integer_contract([], ncols, basis)
    assert solve_minimal([], []) == ref.solve_minimal([], []) == []


def spanning_sets(n):
    """The unit graph spanning sets of ``g-orth`` and ``sds-i`` at window n."""
    return [
        (DualSystem.FIRST, unit_graph_points(n)),
        (DualSystem.SECOND, [embed_first(SparseSeq.unit(k)) for k in range(1, n + 1)]),
    ]


def annihilator_system(monkeypatch, system, spanning, n):
    """(rows, ncols, basis) of the one nullspace call of the annihilator."""
    seen = []

    def recording(rows, ncols):
        basis = nullspace(rows, ncols)
        seen.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(linalg, "nullspace", recording)
    annihilator_truncated(spanning, n, system)
    [(rows, ncols, basis)] = seen
    assert_integer_contract(rows, ncols, basis)
    return rows, ncols, fractions_of(basis)


def assert_annihilator_matches_fraction_elimination(monkeypatch, system, spanning, n):
    rows, ncols, basis = annihilator_system(monkeypatch, system, spanning, n)
    assert basis == ref.nullspace(rows_of(*rows), ncols)


@pytest.mark.parametrize("system, spanning", spanning_sets(32))
def test_annihilator_window_32_matches_fraction_elimination(monkeypatch, system, spanning):
    assert_annihilator_matches_fraction_elimination(monkeypatch, system, spanning, 32)


@pytest.mark.parametrize("system, spanning", spanning_sets(64))
def test_annihilator_window_64_matches_fraction_elimination(monkeypatch, system, spanning):
    assert_annihilator_matches_fraction_elimination(monkeypatch, system, spanning, 64)


def test_annihilator_window_128_matches_integer_elimination(monkeypatch):
    # The Fraction elimination takes tens of seconds at n = 128: the integer
    # oracles pin (rows, pivots, d), and the basis is the unique one with
    # 1 at its own free column and 0 at the others that annihilates the rows.
    [(system, spanning)] = spanning_sets(128)[:1]
    rows, ncols, basis = annihilator_system(monkeypatch, system, spanning, 128)
    fractions = rows_of(*rows)
    reduced, pivots, d = linalg._rref(rows)
    assert (reduced, pivots, d) == ref.bareiss_gauss_jordan(fractions) == ref.list_rref(fractions)
    free = [j for j in range(ncols) if j not in pivots]
    assert len(basis) == len(free) == 129
    for j, vector in zip(free, basis):
        assert [vector[k] for k in free] == [int(k == j) for k in free]
        scale = math.lcm(*(v.denominator for v in vector))
        integers = [v.numerator * (scale // v.denominator) for v in vector]
        assert all(sum(map(mul, row, integers)) == 0 for row in rows)
