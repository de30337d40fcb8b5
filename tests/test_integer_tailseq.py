"""Integer-numerator TailSeq, SparseSeq kernel paths and shared probe values.

A TailSeq stores its run ends, integer run and tail numerators and one
denominator ``den``.  Every kernel must leave the canonical invariants
(den > 0, gcd(den, *nums) == 1, neighbouring run numerators unequal,
minimal period, trimmed head), equal sequences must have equal fields
and hashes whatever route built them, and the ``Fraction`` views
(``run_values`` and ``tail`` cached on first read, ``head`` derived) must
equal the dense reference.  The SparseSeq paths that skip
validation must give what the validated constructor gives, and
``dichotomy`` must evaluate the closed-form Fitzpatrick value once per
probe, while ``fds`` and ``sds-ii`` generate and scan no probes.
"""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gossez_lab import checks, props
from gossez_lab.adjoint import apply_Gstar
from gossez_lab.fitz import OP_G_SECOND, OPERATORS, Operator
from gossez_lab.gossez import _shifted_G, apply_G, solve_G
from gossez_lab.props import ProbeSet, ni_witness_search
from gossez_lab.sampling import random_sparse
from gossez_lab.spaces import (
    ModelMeasure,
    PairPoint,
    SparseSeq,
    TailSeq,
    as_fraction,
)
from gossez_lab.verdict import VERIFIED

from strategies import (
    far_sparse_seqs,
    nonzero_rationals,
    rationals,
    run_tail_seqs,
    sparse_seqs,
    tail_seqs,
    wide_rationals,
)

F = Fraction
far = settings(max_examples=5, deadline=None)

any_tail_seqs = st.one_of(
    tail_seqs(),
    run_tail_seqs(),
    tail_seqs(values=wide_rationals()),
    run_tail_seqs(wide_rationals()),
)
any_sparse = st.one_of(sparse_seqs(), sparse_seqs(values=wide_rationals()))
factors = st.one_of(rationals(), wide_rationals(), st.integers(-5, 5))


def fields(y: TailSeq) -> tuple:
    return y.run_ends, y.run_nums, y.tail_nums, y.den


def assert_canonical(y: TailSeq) -> None:
    ends, nums, tail, den = fields(y)
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in ends + nums + tail)
    assert math.gcd(den, *nums, *tail) == 1
    assert len(ends) == len(nums) and tail
    assert all(a < b for a, b in zip((0,) + ends, ends))
    assert y.head_len() == (ends[-1] if ends else 0)
    assert all(a != b for a, b in zip(nums, nums[1:]))
    assert tail == ref.minimal_period(tail)
    assert (y.head, y.tail) == ref.canonical(y.head, y.tail)


def assert_views(y: TailSeq, expected: tuple) -> None:
    """The Fraction views equal the reference's canonical (head, tail), once built."""
    head, tail = expected
    assert y.head == head and y.tail == tail
    assert (y.run_ends, y.run_values) == ref.runs(head)
    assert all(type(v) is Fraction for v in y.head + y.tail + y.run_values)
    assert y.tail is y.tail and y.run_values is y.run_values
    window = len(head) + 2 * len(tail) + 2
    indices = range(1, window)
    assert [y.value(n) for n in indices] == [ref.value(expected, n) for n in indices]


def dense(y: TailSeq) -> tuple:
    return y.head, y.tail


# ------------------------------------------------ canonical invariants


@given(any_tail_seqs)
def test_dense_constructor_is_canonical_with_reference_views(y):
    assert_canonical(y)
    assert_views(y, ref.canonical(y.head, y.tail))


@given(st.lists(rationals(), max_size=6), st.lists(rationals(), min_size=1, max_size=3))
def test_views_equal_the_reference_of_the_dense_input(head, tail):
    y = TailSeq(tuple(head), tuple(tail))
    assert_canonical(y)
    assert_views(y, ref.canonical(head, tail))


@given(any_sparse, st.sampled_from([1, -1]), rationals())
def test_shifted_G_is_canonical(x, sign, shift):
    y = _shifted_G(x, sign, shift)
    assert_canonical(y)
    image = ref.apply_G(dict(x.entries))
    expected = ref.combine(ref.canonical((), (shift,)), image, (lambda u, v: u + sign * v))
    assert_views(y, expected)


@far
@given(far_sparse_seqs(), rationals())
def test_far_images_are_canonical(x, a):
    assert_canonical(apply_G(x))
    assert_canonical(apply_Gstar(ModelMeasure(x, a)))
    assert_canonical(apply_G(x) + apply_Gstar(ModelMeasure(x, a)))


@given(any_tail_seqs, any_tail_seqs)
def test_combine_is_canonical(a, b):
    for op, result in ((lambda u, v: u + v, a + b), (lambda u, v: u - v, a - b)):
        assert_canonical(result)
        assert_views(result, ref.combine(dense(a), dense(b), op))


@given(any_tail_seqs, factors)
def test_neg_and_scale_are_canonical(y, c):
    assert_canonical(-y)
    assert_views(-y, ref.negate(dense(y)))
    scaled = y.scale(c)
    assert_canonical(scaled)
    assert_views(scaled, ref.scale(dense(y), F(c)))


def test_constants_are_canonical():
    for y in (TailSeq.zero(), TailSeq.ones(), TailSeq(), TailSeq.constant(F(6, 4), [F(2, 4)])):
        assert_canonical(y)
    assert fields(TailSeq.zero()) == ((), (), (0,), 1)
    assert fields(TailSeq.ones()) == ((), (), (1,), 1)
    assert fields(TailSeq.constant(F(3, 2), [F(1, 2), F(1, 2)])) == ((2,), (1,), (3,), 2)


def test_cancelling_denominators_reduce():
    # The sum is 1 over the common denominator 6; scaling (1/2 | 3/2) by 2
    # and by 2/3 leaves the denominators 2 and 6, which reduce to 1 and 3.
    a = TailSeq((F(1, 6), F(1, 3)), (F(1, 2),))
    b = TailSeq((F(5, 6), F(2, 3)), (F(1, 2),))
    assert fields(a + b) == ((), (), (1,), 1)
    half = TailSeq((F(1, 2),), (F(3, 2),))
    assert fields(half.scale(F(2))) == ((1,), (1,), (3,), 1)
    assert fields(half.scale(F(2, 3))) == ((1,), (1,), (3,), 3)


# ---------------------------------------------- equality across routes


@given(any_sparse, nonzero_rationals())
def test_equal_sequences_have_equal_fields_across_routes(x, p):
    gx = apply_G(x)
    head, tail = ref.apply_G(dict(x.entries))
    routes = {
        "dense constructor": TailSeq(head, tail),
        "_shifted_G": _shifted_G(x, 1, F(0)),
        "scale by p/q and back": gx.scale(p).scale(1 / p),
        "combine": (gx + gx) - gx,
        "from_json": TailSeq.from_json(gx.to_json()),
        "negated G*": -apply_Gstar(ModelMeasure(x, F(0))),
    }
    for name, y in routes.items():
        assert y == gx and gx == y, name
        assert fields(y) == fields(gx) and hash(y) == hash(gx), name


@given(any_tail_seqs, any_tail_seqs)
def test_eq_and_hash_follow_the_reference(a, b):
    equal = ref.canonical(*dense(a)) == ref.canonical(*dense(b))
    assert (a == b) is equal and (fields(a) == fields(b)) is equal
    if equal:
        assert hash(a) == hash(b)


# ---------------------------------------------- pickle and deepcopy


@given(any_tail_seqs, st.booleans())
def test_pickle_and_copies_keep_the_integer_fields(y, read_views):
    if read_views:
        y.run_values, y.tail  # fill the cached views first; they are not part of the state
    assert y.__reduce__()[1] == fields(y)
    for twin in (pickle.loads(pickle.dumps(y)), copy.deepcopy(y), copy.copy(y)):
        assert fields(twin) == fields(y) and twin == y and hash(twin) == hash(y)
        assert_canonical(twin)
        assert_views(twin, dense(y))


def test_views_cannot_be_assigned():
    y = TailSeq((1, 2), (3,))
    for name in ("run_nums", "tail_nums", "den", "run_values", "tail", "head", "_tail"):
        with pytest.raises(AttributeError):
            setattr(y, name, ())


# ---------------------------------------------- solve_G on integer runs


@given(any_sparse)
def test_solve_G_builds_fraction_preimages(x):
    cert = solve_G(apply_G(x))
    assert cert.feasible and cert.preimage == x
    assert all(type(v) is Fraction for _, v in cert.preimage.entries)


# ---------------------------------------------- SparseSeq kernel paths


def validated_sum(x: SparseSeq, y: SparseSeq, sign: int) -> SparseSeq:
    merged = dict(x.entries)
    for n, v in y.entries:
        merged[n] = merged.get(n, F(0)) + sign * v
    return SparseSeq.from_pairs(merged.items())


small_index = st.one_of(sparse_seqs(max_index=6), sparse_seqs(max_index=6, values=wide_rationals()))


@given(small_index, small_index)
def test_sparse_add_and_sub_equal_the_validated_constructor(x, y):
    for sign, result in ((1, x + y), (-1, x - y)):
        expected = validated_sum(x, y, sign)
        assert result.entries == expected.entries
        assert result == SparseSeq(result.entries)
        assert all(type(v) is Fraction for _, v in result.entries)
    assert (x + (-x)).is_zero() and (x - x).entries == ()


def test_sparse_add_drops_cancelled_entries():
    x = SparseSeq.from_pairs([(1, F(1, 2)), (3, 2), (5, 1)])
    y = SparseSeq.from_pairs([(2, 1), (3, -2), (5, F(-1, 2))])
    assert (x + y).entries == ((1, F(1, 2)), (2, F(1)), (5, F(1, 2)))


@given(st.integers(0, 10**6), st.integers(1, 64), st.integers(1, 8), st.integers(1, 1000))
def test_random_sparse_is_canonical_as_drawn(seed, max_index, max_support, bound):
    x = random_sparse(random.Random(seed), max_index, max_support, bound, bound)
    assert x.entries == SparseSeq(x.entries).entries
    assert not x.is_zero() and all(type(v) is Fraction for _, v in x.entries)


# ---------------------------------------------- bool is not an integer


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SparseSeq(((True, 1),)), ValueError),
        (lambda: SparseSeq.from_pairs([(1, 2), (False, 1)]), ValueError),
        (lambda: SparseSeq(((1, True),)), TypeError),
        (lambda: SparseSeq.from_values([1, False]), TypeError),
        (lambda: as_fraction(True), TypeError),
        (lambda: TailSeq((True,), (0,)), TypeError),
        (lambda: TailSeq.constant(False), TypeError),
        (lambda: ModelMeasure(SparseSeq.zero(), True), TypeError),
        (lambda: TailSeq.ones().scale(True), TypeError),
        (lambda: SparseSeq.unit(1).scale(False), TypeError),
    ],
)
def test_bools_are_rejected(build, error):
    with pytest.raises(error):
        build()


def test_json_indices_stay_integers():
    x = SparseSeq.from_pairs([(1, 1), (4, F(-3, 2))])
    assert all(type(n) is int for n, _ in x.to_json()["entries"])
    assert SparseSeq.from_json(x.to_json()) == x


@pytest.mark.parametrize("index", [True, 2.5, "3"])
def test_json_indices_must_be_integers(index):
    # JSON true, 2.5 and "3" are not indices; none may become 1, 2 or 3.
    with pytest.raises(ValueError):
        SparseSeq.from_json({"entries": [[index, "1/2"]]})


# ---------------------------------------------- one evaluation per probe


def _run_one(runner, cfg):
    """(status, stats) of the catalog check with this runner, run through
    ``run_checks`` with the generator and tally it hands every runner."""
    (spec,) = [spec for spec in checks.CATALOG if spec.runner is runner]
    (result,) = checks.run_checks(dataclasses.replace(cfg, checks=(spec.name,))).results
    return result.status, result.stats


@pytest.mark.parametrize("run", [checks._run_fds, checks._run_sds_ii, checks._run_dichotomy])
def test_fitz_closed_runs_once_per_probe_in_the_check(monkeypatch, run):
    # dichotomy evaluates its three profiles' probe sets once each, and the
    # NI search and the representability check read those values; fds and
    # sds-ii decide on their windows and generate no probe set at all.
    probe_ids: set[int] = set()
    calls: dict[int, int] = {}
    generate, fitz_closed = ProbeSet.generate, Operator.fitz_closed

    def recording_generate(*args):
        probes = generate(*args)
        probe_ids.update(id(z) for z in probes.points)
        kept.append(probes)  # alive to the end, so no id is reused
        return probes

    def counting_fitz_closed(self, z):
        if id(z) in probe_ids:
            calls[id(z)] = calls.get(id(z), 0) + 1
        return fitz_closed(self, z)

    kept: list = []
    monkeypatch.setattr(ProbeSet, "generate", staticmethod(recording_generate))
    monkeypatch.setattr(Operator, "fitz_closed", counting_fitz_closed)
    probe_sets = 3 if run is checks._run_dichotomy else 0
    status, _ = _run_one(run, checks.CheckConfig(trials=40))
    assert len(kept) == probe_sets and status == VERIFIED
    assert set(calls.values()) <= {1}
    assert len(calls) == sum(len(probes.points) for probes in kept) == 200 * probe_sets


def test_fds_and_sds_ii_scan_no_probes(monkeypatch):
    # fds and sds-ii decide NI and representability on their windows;
    # dichotomy generates and scans one probe set per profile.
    calls: dict[str, int] = {}

    def counting(name, original):
        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return count

    scans = ("generate", "ni_witness_search", "representability_check")
    monkeypatch.setattr(ProbeSet, "generate", staticmethod(counting("generate", ProbeSet.generate)))
    for name in scans[1:]:
        original = getattr(props, name)
        for module in (checks, props):  # every binding the runners can reach
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    runners = ((checks._run_fds, 0), (checks._run_sds_ii, 0), (checks._run_dichotomy, 3))
    for runner, expected in runners:
        calls.clear()
        status, _ = _run_one(runner, checks.CheckConfig(trials=40))
        assert status == VERIFIED
        assert [calls.get(name, 0) for name in scans] == [expected] * 3


def test_probe_values_mark_points_outside_the_model():
    op = OPERATORS[OP_G_SECOND]
    oscillating = PairPoint.second(ModelMeasure(SparseSeq.zero(), F(1)), TailSeq.periodic([0, 1]))
    probes = ProbeSet((oscillating, PairPoint.zero(op.system)))
    values = tuple(map(op.evaluate, probes.points))
    assert values == ((math.inf, None), (F(0), F(0)))
    verdict = ni_witness_search(probes, values)
    assert verdict.stats == {"probes_checked": 1, "skipped": 1}
