"""The columns the window decisions read, against the dense reference.

``g-basic`` decides its linear claims on the integer columns of G e_1..G e_N;
``gstar`` and ``sds-i`` decide theirs on the images under G* of the unit
atoms at 1..32 and the unit mass at infinity, and ``sds-ii`` on those of the
unit atoms at 1..N and the mass, paired with the unit atoms of a window and
the mass.  Each must equal the one-Fraction-operation-per-value
oracles of ``dense_reference`` (``apply_G``, ``apply_Gstar``, ``couple``).
"""

from fractions import Fraction

import pytest

import dense_reference as ref
from gossez_lab.checks import _MEASURES, _coupling_cases, _g_columns, _gstar_images, _pairings

WINDOWS = [1, 2, 32, 64]


def unit(i):
    return {i: Fraction(1)}


def ref_pairings(y, n):
    """<e_i, y> for i = 1..n by the reference coupling, then the limit of y."""
    head, tail = y
    assert len(tail) == 1  # every image here converges
    return [ref.couple(unit(i), y) for i in range(1, n + 1)] + [tail[0]]


def ref_gstar(m):
    """The reference G* of the unit atom at m, or of the unit mass for "mass"."""
    if m == "mass":
        return ref.apply_Gstar({}, Fraction(1))
    return ref.apply_Gstar(unit(m), Fraction(0))


@pytest.mark.parametrize("n", WINDOWS)
def test_g_columns_match_the_dense_reference(n):
    images, cols, den = _g_columns(n)
    assert len(images) == len(cols) == n
    for k, (gx, col) in enumerate(zip(images, cols), 1):
        expected = ref.apply_G(unit(k))
        assert (gx.head, gx.tail) == expected
        assert all(type(v) is int for v in col)
        assert [Fraction(v, den) for v in col] == [
            ref.couple(unit(i), expected) for i in range(1, n + 2)
        ]
        assert _pairings(gx, n) == ref_pairings(expected, n)


@pytest.mark.parametrize("n", WINDOWS)
def test_gstar_images_match_the_dense_reference(n):
    assert len(_MEASURES) == 33
    window = (*range(1, n + 1), "mass")
    for images, measures in ((_gstar_images(), _MEASURES), (_gstar_images(n), window)):
        assert len(images) == len(measures)
        for m, y in zip(measures, images):
            expected = ref_gstar(m)
            assert (y.head, y.tail) == expected
            assert _pairings(y, n) == ref_pairings(expected, n)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", WINDOWS)
def test_coupling_cases_follow_the_dense_reference_form(n, sign):
    # B + B^T of B(mu, nu) = <mu, sign G* nu> on the atoms 1..n and the mass,
    # from the reference pairings: -2 sign at (mass, mass), 0 elsewhere.
    window = (*range(1, n + 1), "mass")
    form = [ref_pairings(ref_gstar(m), n) for m in window]  # form[j][i] = <m_i, G* m_j>
    expected = [
        ([window[i], window[j]], sign * (form[j][i] + form[i][j]) == (-2 * sign) * (i == j == n))
        for j in range(n + 1)
        for i in range(j + 1)
    ]
    assert all(ok for _, ok in expected)
    assert list(_coupling_cases(_gstar_images(n), sign)) == expected
