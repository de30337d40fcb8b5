"""The columns the window decisions read, against the dense reference.

Every window decision reads one window, N = ``--truncation``.  ``g-basic``
decides its linear claims on the integer columns of G e_1..G e_N; ``gstar``,
``sds-i`` and ``sds-ii`` decide theirs on the images under G* of the unit
atoms at 1..N and the unit mass at infinity, read with G e_1..G e_N in one
integer-column form: values at 1..N, then the limit, over one common
denominator.  Each must equal the one-Fraction-operation-per-value oracles
of ``dense_reference`` (``apply_G``, ``apply_Gstar``, ``couple``).  One
in-process report builds each of them, and decides each bilinear fact on
them, once; a check run alone reports what it reports in the full report.
"""

from fractions import Fraction

import pytest

import dense_reference as ref
import gossez_lab.checks as checks
from gossez_lab.checks import (
    CATALOG,
    CheckConfig,
    _adjoint_cases,
    _coupling_cases,
    _pairing_columns,
    _Window,
    run_checks,
)
from gossez_lab.spaces import ModelMeasure, SparseSeq

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
    images, cols, den = _Window(n).g_columns
    assert len(images) == len(cols) == n
    expected = [ref.apply_G(unit(k)) for k in range(1, n + 1)]
    for gx, col, y in zip(images, cols, expected):
        assert (gx.head, gx.tail) == y
        assert all(type(v) is int for v in col)
        assert [Fraction(v, den) for v in col] == [ref.couple(unit(i), y) for i in range(1, n + 2)]
    assert_pairing_columns(images, n, expected)


@pytest.mark.parametrize("n", WINDOWS)
def test_gstar_images_match_the_dense_reference(n):
    images = _Window(n).stars
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
    window = _Window(n)
    assert list(_adjoint_cases(window.g_columns[0], window.stars)) == expected


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", WINDOWS)
def test_coupling_cases_follow_the_dense_reference_form(n, sign):
    # B + B^T of B(mu, nu) = <mu, sign G* nu> on the atoms 1..n and the mass,
    # from the reference pairings: -2 sign at (mass, mass), 0 elsewhere.  Both
    # signs hold or break at the same cases, so one unsigned decision is both.
    window = window_measures(n)
    form = [ref_pairings(ref_gstar(m), n) for m in window]  # form[j][i] = <m_i, G* m_j>
    expected = [
        ([window[i], window[j]], sign * (form[j][i] + form[i][j]) == (-2 * sign) * (i == j == n))
        for j in range(n + 1)
        for i in range(j + 1)
    ]
    assert all(ok for _, ok in expected)
    assert list(_coupling_cases(_Window(n).stars)) == expected


@pytest.mark.parametrize("n", [1, 8, 64, 128])
def test_every_check_records_its_window(n):
    # Every check reads N = --truncation; only the cubic and quadratic-scan
    # work (the annihilators, gstar's model kernel, dichotomy) reads min(N, 32).
    report = run_checks(CheckConfig(truncation=n, trials=5))
    assert report.all_passed
    assert [r.stats["window"] for r in report.results] == [n] * len(report.results)
    capped = {r.name: r.stats["scan_window"] for r in report.results if "scan_window" in r.stats}
    assert capped == dict.fromkeys(("g-orth", "gstar", "sds-i", "dichotomy"), min(n, 32))


def test_one_report_builds_the_window_and_decides_each_fact_once(monkeypatch):
    # In one process the eight checks read one window: G e_1..G e_N, G* of
    # the unit atoms at 1..N and of the unit mass, and the three facts.
    n = 16
    units = {SparseSeq.unit(k) for k in range(1, n + 1)}
    unit_measures = {ModelMeasure.from_atomic(e) for e in units}
    unit_measures.add(ModelMeasure(SparseSeq.zero(), 1))
    calls = dict.fromkeys(("G", "Gstar", "_symmetric_cases", "_adjoint_cases", "_coupling_cases"), 0)

    def counting(name, original, inputs=None):
        def count(*args):
            if inputs is None or args[0] in inputs:
                calls[name] += 1
            return original(*args)

        return count

    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(checks, "apply_G", counting("G", checks.apply_G, units))
    monkeypatch.setattr(checks, "apply_Gstar", counting("Gstar", checks.apply_Gstar, unit_measures))
    for name in ("_symmetric_cases", "_adjoint_cases", "_coupling_cases"):
        monkeypatch.setattr(checks, name, counting(name, getattr(checks, name)))
    assert run_checks(CheckConfig(truncation=n, trials=20)).all_passed
    # Skew reads _symmetric_cases directly, the coupling form through _coupling_cases.
    assert calls == {
        "G": n,
        "Gstar": n + 1,
        "_symmetric_cases": 2,
        "_adjoint_cases": 1,
        "_coupling_cases": 1,
    }


@pytest.fixture(scope="module")
def in_process_report():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_usable_cpus", lambda: 1)
        yield run_checks(CheckConfig(trials=100))


@pytest.mark.parametrize("name", [spec.name for spec in CATALOG])
def test_a_check_alone_reports_what_it_reports_in_the_full_report(in_process_report, name):
    (alone,) = run_checks(CheckConfig(checks=(name,), trials=100)).results
    (full,) = [r for r in in_process_report.results if r.name == name]
    assert alone.to_json() == full.to_json()
