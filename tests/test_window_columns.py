"""The columns the window decisions read, against the dense reference.

Every window decision reads one window, N = ``--truncation``.  ``g-basic``
decides its linear claims on the integer columns of G e_1..G e_N; ``gstar``,
``sds-i`` and ``sds-ii`` decide theirs on the images under G* of the unit
atoms at 1..N and the unit mass at infinity, read with G e_1..G e_N in one
integer-column form: values at 1..N, then the limit, over one common
denominator.  Each must equal the one-Fraction-operation-per-value oracles
of ``dense_reference`` (``apply_G``, ``apply_Gstar``, ``couple``).
"""

from fractions import Fraction

import pytest

import dense_reference as ref
from gossez_lab.checks import (
    CheckConfig,
    _adjoint_cases,
    _coupling_cases,
    _g_columns,
    _gstar_images,
    _pairing_columns,
    run_checks,
)

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


def window_measures(n):
    return (*range(1, n + 1), "mass")


def assert_pairing_columns(images, n, expected):
    """``_pairing_columns`` of ``images`` are integers over one denominator
    that read as the reference pairings of ``expected``."""
    cols, den = _pairing_columns(images, n)
    assert len(cols) == len(expected)
    for col, y in zip(cols, expected):
        assert all(type(v) is int for v in col)
        assert [Fraction(v, den) for v in col] == ref_pairings(y, n)


@pytest.mark.parametrize("n", WINDOWS)
def test_g_columns_match_the_dense_reference(n):
    images, cols, den = _g_columns(n)
    assert len(images) == len(cols) == n
    expected = [ref.apply_G(unit(k)) for k in range(1, n + 1)]
    for gx, col, y in zip(images, cols, expected):
        assert (gx.head, gx.tail) == y
        assert all(type(v) is int for v in col)
        assert [Fraction(v, den) for v in col] == [ref.couple(unit(i), y) for i in range(1, n + 2)]
    assert_pairing_columns(images, n, expected)


@pytest.mark.parametrize("n", WINDOWS)
def test_gstar_images_match_the_dense_reference(n):
    images = _gstar_images(n)
    expected = [ref_gstar(m) for m in window_measures(n)]
    assert [(y.head, y.tail) for y in images] == expected
    assert_pairing_columns(images, n, expected)


@pytest.mark.parametrize("n", WINDOWS)
def test_adjoint_cases_follow_the_dense_reference_pairings(n):
    # <e_i, G* m> against <m, G e_i>, both from the reference pairings.
    window = window_measures(n)
    expected = [
        ([i, m], ref.couple(unit(i), ref_gstar(m)) == ref_pairings(ref.apply_G(unit(i)), n)[j])
        for i in range(1, n + 1)
        for j, m in enumerate(window)
    ]
    assert all(ok for _, ok in expected)
    assert list(_adjoint_cases(_g_columns(n)[0], _gstar_images(n))) == expected


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", WINDOWS)
def test_coupling_cases_follow_the_dense_reference_form(n, sign):
    # B + B^T of B(mu, nu) = <mu, sign G* nu> on the atoms 1..n and the mass,
    # from the reference pairings: -2 sign at (mass, mass), 0 elsewhere.
    window = window_measures(n)
    form = [ref_pairings(ref_gstar(m), n) for m in window]  # form[j][i] = <m_i, G* m_j>
    expected = [
        ([window[i], window[j]], sign * (form[j][i] + form[i][j]) == (-2 * sign) * (i == j == n))
        for j in range(n + 1)
        for i in range(j + 1)
    ]
    assert all(ok for _, ok in expected)
    assert list(_coupling_cases(_gstar_images(n), sign)) == expected


@pytest.mark.parametrize("n", [1, 8, 64, 128])
def test_every_check_records_its_window(n):
    # Every check reads N = --truncation; only the cubic and quadratic-scan
    # work (the annihilators, gstar's model kernel, dichotomy) reads min(N, 32).
    report = run_checks(CheckConfig(truncation=n, trials=5))
    assert report.all_passed
    assert [r.stats["window"] for r in report.results] == [n] * len(report.results)
    capped = {r.name: r.stats["scan_window"] for r in report.results if "scan_window" in r.stats}
    assert capped == dict.fromkeys(("g-orth", "gstar", "sds-i", "dichotomy"), min(n, 32))
