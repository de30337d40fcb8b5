"""Planted defects: each must fail a check of the report, naming what broke.

Each window defect rebinds one kernel in ``gossez_lab.checks`` (or in the
module named before a dot) so that it is wrong at one basis vector of a
window, and runs one check on one CPU, in this process.  The decision that
reads that vector must fail and name it in the check's failures; the same
check without the defect passes.  Each scan defect breaks a kernel that no
window decision reads (the closed form, the NI and representability scans,
the measure pairing and embedding) wherever the report binds it, or breaks
G or G* only on inputs with several support points, which every unit
vector misses; a named property of one check must fail.
"""

import math
from fractions import Fraction

import pytest

import gossez_lab.checks as checks
import gossez_lab.props as props
import gossez_lab.spaces as spaces
from gossez_lab.adjoint import apply_Gstar
from gossez_lab.fitz import Operator
from gossez_lab.gossez import _shifted_G, apply_G
from gossez_lab.spaces import ModelMeasure, OutsideModelDomain, SparseSeq, TailSeq
from gossez_lab.verdict import VERIFIED, PropertyVerdict


def perturbed_entry(x):
    """(G e_5)_3 is 1; this G reads 0 there."""
    gx = apply_G(x)
    return gx - TailSeq.constant(0, [0, 0, 1]) if x == SparseSeq.unit(5) else gx


def far_perturbed_entry(x):
    """(G e_40)_3 is 1, past the 32 columns of a fixed window; this G reads 0 there."""
    gx = apply_G(x)
    return gx - TailSeq.constant(0, [0, 0, 1]) if x == SparseSeq.unit(40) else gx


def oscillating_column(x):
    """G e_7 with an oscillating tail added: the column has no limit."""
    gx = apply_G(x)
    return gx + TailSeq.periodic([0, 1]) if x == SparseSeq.unit(7) else gx


def far_bump(x):
    """(G e_4)_66 is -1, past the indices 1..65 the window's columns read; this G reads -2 there."""
    gx = apply_G(x)
    return gx - TailSeq.constant(0, [0] * 65 + [1]) if x == SparseSeq.unit(4) else gx


def far_limit_shift(x):
    """G e_6 raised by 1 past index 65, where the window's columns stop: it converges to 0."""
    gx = apply_G(x)
    return gx + TailSeq.constant(1, [0] * 65) if x == SparseSeq.unit(6) else gx


def adjacent_support_shift(x):
    """G that adds 1 at index 1 when x has two adjacent support indices: exact on unit vectors."""
    gx = apply_G(x)
    adjacent = any(j - i == 1 for i, j in zip(x.indices, x.indices[1:]))
    return gx + TailSeq.constant(0, [1]) if adjacent else gx


def flipped_mass(mu):
    """+(mass at infinity) * ones - G(atoms): the mass term's sign flipped."""
    return _shifted_G(mu.atomic, -1, mu.infinity_mass)


def atom_to_zero(mu):
    """G* that maps the unit atom at 9 to zero."""
    return TailSeq.zero() if mu == ModelMeasure.from_atomic(SparseSeq.unit(9)) else apply_Gstar(mu)


def oscillating_atom_image(mu):
    """G* of the unit atom at 3 with an oscillating tail added: the image has no limit."""
    y = apply_Gstar(mu)
    return y + TailSeq.periodic([0, 1]) if mu == ModelMeasure.from_atomic(SparseSeq.unit(3)) else y


def late_oscillating_atom_image(mu):
    """G* of the unit atom at 3, exact at 1..64 (the window), with no limit past it."""
    y = apply_Gstar(mu)
    late = TailSeq.periodic([0, 1], [0] * 64)
    return y + late if mu == ModelMeasure.from_atomic(SparseSeq.unit(3)) else y


def massive_multi_atom_shift(mu):
    """G* that adds 1 at index 1 on measures with two or more atoms and a mass:
    exact on the unit atoms and the unit mass."""
    y = apply_Gstar(mu)
    several = len(mu.atomic.indices) >= 2 and mu.infinity_mass
    return y + TailSeq.constant(0, [1]) if several else y


def far_atom_to_zero(mu):
    """G* that maps the unit atom at 40, past the 32 atoms of a fixed window, to zero."""
    return TailSeq.zero() if mu == ModelMeasure.from_atomic(SparseSeq.unit(40)) else apply_Gstar(mu)


# (defect, the kernel it replaces, check, a failure the check must report)
DEFECTS = [
    (perturbed_entry, "apply_G", "g-basic", {"property": "skew", "basis_pair": [3, 5]}),
    (
        perturbed_entry,
        "apply_G",
        "g-basic",
        {"property": "difference-recurrence", "basis_pair": [2, 5]},
    ),
    (
        perturbed_entry,
        "apply_G",
        "g-orth",
        {"property": "self-orthogonality", "basis_pair": [3, 5]},
    ),
    (
        perturbed_entry,
        "apply_G",
        "fds",
        {"property": "vanishes-on-graph", "basis_pair": [3, 5]},
    ),
    (
        perturbed_entry,
        "apply_G",
        "sds-i",
        {"property": "embedded-graph-skew", "basis_pair": [3, 5]},
    ),
    (
        perturbed_entry,
        "apply_G",
        "sds-ii",
        {"property": "representability-on-model", "basis_pair": [3, 5]},
    ),
    # Every window is --truncation (64 here): it reaches the column and atom at 40.
    (
        far_perturbed_entry,
        "apply_G",
        "sds-i",
        {"property": "embedded-graph-skew", "basis_pair": [3, 40]},
    ),
    (
        far_perturbed_entry,
        "apply_G",
        "sds-ii",
        {"property": "representability-on-model", "basis_pair": [3, 40]},
    ),
    (
        far_atom_to_zero,
        "apply_Gstar",
        "gstar",
        {"property": "adjoint-identity", "basis_pair": [1, 40]},
    ),
    (
        far_atom_to_zero,
        "apply_Gstar",
        "sds-i",
        {"property": "graph-orthogonal-to-negGstar", "basis_pair": [1, 40]},
    ),
    (
        oscillating_column,
        "apply_G",
        "range",
        {"property": "distance-to-oscillating-target", "column": 7},
    ),
    (
        flipped_mass,
        "apply_Gstar",
        "gstar",
        {"property": "adjoint-identity", "basis_pair": [1, "mass"]},
    ),
    (
        flipped_mass,
        "apply_Gstar",
        "sds-ii",
        {"property": "coupling-on-Gstar", "basis_pair": [1, "mass"]},
    ),
    (
        far_atom_to_zero,
        "apply_Gstar",
        "sds-ii",
        {"property": "coupling-on-Gstar", "basis_pair": [1, 40]},
    ),
    (
        flipped_mass,
        "apply_Gstar",
        "sds-i",
        {"property": "coupling-is-mass-squared", "basis_pair": [1, "mass"]},
    ),
    (
        flipped_mass,
        "apply_Gstar",
        "sds-i",
        {"property": "graph-orthogonal-to-negGstar", "basis_pair": [1, "mass"]},
    ),
    (atom_to_zero, "apply_Gstar", "gstar", {"property": "model-kernel", "column": 9}),
    # Past the window's indices only norm-bound, range-law and negation read G e_k.
    (far_bump, "apply_G", "g-basic", {"property": "norm-bound", "column": 4}),
    (far_limit_shift, "apply_G", "g-basic", {"property": "range-law", "column": 6}),
    # negation compares -G of the OPERATORS table, which looks apply_G up in fitz.
    (perturbed_entry, "fitz.apply_G", "g-basic", {"property": "negation", "column": 5}),
    # A G* image without a limit fails the coupling form at the first pair that
    # reads it, never raising: on the window's values, or at its limit alone.
    (
        oscillating_atom_image,
        "apply_Gstar",
        "sds-i",
        {"property": "coupling-is-mass-squared", "basis_pair": [2, 3]},
    ),
    (
        oscillating_atom_image,
        "apply_Gstar",
        "sds-ii",
        {"property": "coupling-on-Gstar", "basis_pair": [2, 3]},
    ),
    (
        late_oscillating_atom_image,
        "apply_Gstar",
        "sds-i",
        {"property": "coupling-is-mass-squared", "basis_pair": [3, "mass"]},
    ),
    (
        late_oscillating_atom_image,
        "apply_Gstar",
        "sds-ii",
        {"property": "coupling-on-Gstar", "basis_pair": [3, "mass"]},
    ),
]


def closed_form_zero(self, z):
    """The closed-form Fitzpatrick value 0 everywhere, off the Fitzpatrick graph too."""
    return Fraction(0)


def scan_verified(*args, **kwargs):
    """A scan that verifies without reading its probes."""
    return PropertyVerdict(status=VERIFIED)


def unguarded_measure_terms(mu, y):
    """<mu, y> that reads lim y at mass 0 too, so it rejects every oscillating y."""
    num, den = spaces._couple_terms(mu.atomic, y)
    if len(y.tail_nums) != 1:
        raise OutsideModelDomain("the sequence has no limit")
    q = mu.infinity_mass.denominator * y.den
    common = math.lcm(den, q)
    num = num * (common // den) + mu.infinity_mass.numerator * y.tail_nums[0] * (common // q)
    return num, common


def massive_embedding(x):
    """An embedding of l1 that adds a unit mass at infinity."""
    return ModelMeasure(x, Fraction(1))


# (defect, the owners of the bindings it replaces, kernel, check, a property that must fail)
SCAN_DEFECTS = [
    (closed_form_zero, (Operator,), "fitz_closed", "sds-i", "indicator-off-graph"),
    (closed_form_zero, (Operator,), "fitz_closed", "dichotomy", "profile-G-first"),
    (scan_verified, (checks, props), "ni_witness_search", "sds-i", "ni-fails-with-margin"),
    (scan_verified, (checks, props), "ni_witness_search", "dichotomy", "profile-G-second"),
    (scan_verified, (props,), "representability_check", "dichotomy", "profile-G-second"),
    # Only restriction-consistency meets a measure without mass and an oscillating tail.
    (unguarded_measure_terms, (spaces,), "_measure_terms", "gstar", "restriction-consistency"),
    (massive_embedding, (ModelMeasure,), "from_atomic", "sds-i", "coupling-is-mass-squared"),
    # Exact on every unit vector, so no window decision sees them: only the
    # sampled laws, which draw several support points, do.
    (adjacent_support_shift, (checks,), "apply_G", "g-basic", "linearity"),
    (adjacent_support_shift, (checks,), "apply_G", "g-basic", "injectivity-roundtrip"),
    (massive_multi_atom_shift, (checks,), "apply_Gstar", "gstar", "linearity"),
]


def run_one(name):
    (result,) = checks.run_checks(checks.CheckConfig(checks=(name,))).results
    return result


@pytest.mark.parametrize(
    "defect, kernel, name, failure",
    DEFECTS,
    ids=[f"{d.__name__}-{n}-{f['property']}" for d, _, n, f in DEFECTS],
)
def test_a_planted_defect_fails_its_window_decision(monkeypatch, defect, kernel, name, failure):
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    owner, _, binding = kernel.rpartition(".")
    monkeypatch.setattr(f"gossez_lab.{owner or 'checks'}.{binding}", defect)
    result = run_one(name)
    assert not result.passed
    assert failure in result.stats["failures"]


@pytest.mark.parametrize(
    "defect, owners, kernel, name, prop",
    SCAN_DEFECTS,
    ids=[f"{d.__name__}-{n}-{p}" for d, _, _, n, p in SCAN_DEFECTS],
)
def test_a_planted_defect_in_a_scanned_kernel_fails_its_check(
    monkeypatch, defect, owners, kernel, name, prop
):
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    for owner in owners:
        static = isinstance(vars(owner).get(kernel), staticmethod)
        monkeypatch.setattr(owner, kernel, staticmethod(defect) if static else defect)
    result = run_one(name)
    assert not result.passed
    assert prop in [failure["property"] for failure in result.stats["failures"]]


@pytest.mark.parametrize(
    "name",
    sorted({row[2] for row in DEFECTS} | {row[3] for row in SCAN_DEFECTS}),
)
def test_the_unpatched_check_passes(monkeypatch, name):
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    result = run_one(name)
    assert result.passed
    assert result.stats["failures"] == []


def test_the_defects_are_wrong_only_where_planted():
    # Each window defect differs from its kernel at the one planted vector,
    # and the multi-point defects at no unit vector.
    mass = ModelMeasure(SparseSeq.zero(), Fraction(1))
    for k in range(1, 10):
        e = SparseSeq.unit(k)
        mu = ModelMeasure.from_atomic(e)
        assert (perturbed_entry(e) == apply_G(e)) == (k != 5)
        assert far_perturbed_entry(e) == apply_G(e)
        assert (oscillating_column(e) == apply_G(e)) == (k != 7)
        assert (atom_to_zero(mu) == apply_Gstar(mu)) == (k != 9)
        assert far_atom_to_zero(mu) == apply_Gstar(mu)
        assert flipped_mass(mu) == apply_Gstar(mu)
        assert (far_bump(e) == apply_G(e)) == (k != 4)
        assert (far_limit_shift(e) == apply_G(e)) == (k != 6)
        assert adjacent_support_shift(e) == apply_G(e)
        assert (oscillating_atom_image(mu) == apply_Gstar(mu)) == (k != 3)
        assert (late_oscillating_atom_image(mu) == apply_Gstar(mu)) == (k != 3)
        assert massive_multi_atom_shift(mu) == apply_Gstar(mu)
    # The far defects agree with G on the 65 indices that the window's columns read.
    for defect, k in ((far_bump, 4), (far_limit_shift, 6)):
        e = SparseSeq.unit(k)
        assert (defect(e) - apply_G(e))._dense(65) == [0] * 65
    late = late_oscillating_atom_image(ModelMeasure.from_atomic(SparseSeq.unit(3)))
    assert late._dense(64) == apply_Gstar(ModelMeasure.from_atomic(SparseSeq.unit(3)))._dense(64)
    assert not late.is_convergent()
    pair = SparseSeq.from_values([1, 1])
    assert adjacent_support_shift(pair) != apply_G(pair)
    assert massive_multi_atom_shift(mass) == apply_Gstar(mass)
    spread = ModelMeasure(pair, Fraction(1))
    assert massive_multi_atom_shift(spread) != apply_Gstar(spread)
    far = ModelMeasure.from_atomic(SparseSeq.unit(40))
    assert far_atom_to_zero(far) == TailSeq.zero() != apply_Gstar(far)
    e40 = SparseSeq.unit(40)
    assert far_perturbed_entry(e40) - apply_G(e40) == -TailSeq.constant(0, [0, 0, 1])
    assert flipped_mass(mass) == -apply_Gstar(mass)
