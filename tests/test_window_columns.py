"""The columns the window decisions read, against the dense reference.

``g-basic`` decides its linear claims on the integer columns of G e_1..G e_N;
``gstar`` and ``sds-ii`` decide theirs on the images under G* of the unit
atoms at 1..32 and the unit mass at infinity, paired with the unit atoms of
a window and the mass.  Each must equal the one-Fraction-operation-per-value
oracles of ``dense_reference`` (``apply_G``, ``apply_Gstar``, ``couple``).
"""

from fractions import Fraction

import pytest

import dense_reference as ref
from gossez_lab.checks import _MEASURES, _g_columns, _gstar_images, _pairings

WINDOWS = [1, 2, 32, 64]


def unit(i):
    return {i: Fraction(1)}


def ref_pairings(y, n):
    """<e_i, y> for i = 1..n by the reference coupling, then the limit of y."""
    head, tail = y
    assert len(tail) == 1  # every image here converges
    return [ref.couple(unit(i), y) for i in range(1, n + 1)] + [tail[0]]


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
    images = _gstar_images()
    assert len(images) == len(_MEASURES) == 33
    for m, y in zip(_MEASURES, images):
        if m == "mass":
            expected = ref.apply_Gstar({}, Fraction(1))
        else:
            expected = ref.apply_Gstar(unit(m), Fraction(0))
        assert (y.head, y.tail) == expected
        assert _pairings(y, n) == ref_pairings(expected, n)
