"""The benchmark's tracer and workloads must keep finding what they call.

``perfbench/spans.py`` wraps functions and methods by module and attribute
name, and ``perfbench/workloads.py`` calls the program through the same
names.  A rename, a deletion or a changed method kind in ``gossez_lab``
would only show up as a crash or a failed operation of a benchmark run;
these tests make it fail here instead.  The benchmark files are imported
unchanged.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import gossez_lab
from gossez_lab.adjoint import apply_Gstar
from gossez_lab.fitz import OP_G_FIRST, OP_G_SECOND, OPERATORS
from gossez_lab.gossez import _shifted_G, apply_G
from gossez_lab.sampling import ProbeSet
from gossez_lab.spaces import DualSystem, ModelMeasure, PairPoint, SparseSeq, TailSeq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
reference = _load("reference")  # imports nothing from gossez_lab


def _load_runner():
    # run.py imports spans and workloads by bare name, from its own directory.
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("run")
    finally:
        sys.path.remove(str(PERFBENCH))


runner = _load_runner()
# The modules the workloads reach the program through, as run.py builds them.
lab = SimpleNamespace(**{m: importlib.import_module(f"gossez_lab.{m}") for m in runner.MODULES})


def _targets():
    return list(spans.SPANNED) + list(spans.COUNTED)


@pytest.mark.parametrize("module_name, path", _targets())
def test_every_wrapped_target_resolves(module_name, path):
    owner = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert attr in vars(owner), f"{module_name}.{path} is gone"
    raw = vars(owner)[attr]
    # The tracer wraps plain functions and unwraps staticmethods only.
    assert not isinstance(raw, classmethod)
    if isinstance(raw, staticmethod):
        raw = raw.__func__
    assert callable(raw)


@pytest.fixture
def tracer():
    assert spans.PACKAGE == gossez_lab.__name__
    installed = spans.Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


def test_tracer_sees_apply_G_through_the_operator_table(tracer):
    x = SparseSeq.from_values([1, 2])
    z = PairPoint.first(x, apply_G(x))
    before = tracer.summary().get("gossez.apply_G", (0, 0.0))[0]
    assert OPERATORS[OP_G_FIRST].on_graph(z)
    assert tracer.summary()["gossez.apply_G"][0] == before + 1


def test_tracer_sees_apply_Gstar_through_the_operator_table(tracer):
    # apply_Gstar runs G's kernel directly, not through apply_G: only the
    # call-time lookup in the table's lambda makes the span visible.
    mu = ModelMeasure(SparseSeq.from_values([1, 2]), 3)
    z = PairPoint.second(mu, -apply_Gstar(mu))
    before = tracer.summary().get("adjoint.apply_Gstar", (0, 0.0))[0]
    assert OPERATORS[OP_G_SECOND].on_fitz_graph(z)
    assert tracer.summary()["adjoint.apply_Gstar"][0] == before + 1


@pytest.mark.parametrize("op_id", list(OPERATORS))
def test_tracer_reaches_both_maps_of_every_row(tracer, op_id):
    # graph_y is G (or -G) on x; fitz_y is G on x in the first system and
    # -G* or G* on a measure in the second.  A map that captured its kernel
    # when the table was built would run untraced here.
    op = OPERATORS[op_id]
    x = SparseSeq.from_values([1, 2])
    first = op.system is DualSystem.FIRST
    x_part = x if first else ModelMeasure(x, 3)
    for call, span in (
        (lambda: op.graph_y(x), "gossez.apply_G"),
        (lambda: op.fitz_y(x_part), "gossez.apply_G" if first else "adjoint.apply_Gstar"),
    ):
        before = tracer.summary().get(span, (0, 0.0))[0]
        assert isinstance(call(), TailSeq)
        assert tracer.summary()[span][0] == before + 1, span


def test_tracer_counts_through_staticmethods_and_constructors(tracer):
    ProbeSet.generate(OPERATORS[OP_G_SECOND], 0, 4, 5)
    summary = tracer.summary()
    assert summary["sampling.ProbeSet.generate"][0] == 1
    assert tracer.counts["spaces.TailSeq.new.calls"] > 0


def test_uninstall_restores_the_program():
    original_apply_G = importlib.import_module("gossez_lab.fitz").apply_G
    original_generate = vars(ProbeSet)["generate"]
    installed = spans.Tracer()
    installed.install()
    try:
        assert importlib.import_module("gossez_lab.fitz").apply_G is not original_apply_G
    finally:
        installed.uninstall()
    assert importlib.import_module("gossez_lab.fitz").apply_G is original_apply_G
    assert vars(ProbeSet)["generate"] is original_generate


def test_construction_hook_fires_once_per_tailseq(tracer):
    x = SparseSeq.from_pairs([(2, 1), (3, -1), (6, Fraction(5, 2))])
    gx = apply_G(x)
    periodic = TailSeq.periodic([1, 2], head=[4])
    builds = {
        "constructor": lambda: TailSeq((1, 1, 2), (3,)),
        "constant": lambda: TailSeq.constant(0, [1, 2]),
        "from_json": lambda: TailSeq.from_json(gx.to_json()),
        "_shifted_G": lambda: _shifted_G(x, -1, Fraction(2)),
        "apply_Gstar": lambda: apply_Gstar(ModelMeasure(x, 3)),
        "add": lambda: gx + periodic,
        "sub": lambda: gx - gx,
        "neg": lambda: -gx,
        "scale": lambda: gx.scale(Fraction(-2, 3)),
        "scale by zero": lambda: gx.scale(0),
    }
    key = "spaces.TailSeq.new.calls"
    for name, build in builds.items():
        before = tracer.counts[key]
        assert isinstance(build(), TailSeq)
        assert tracer.counts[key] == before + 1, name
    # The hook's gauge reads the head length of what was built.
    assert tracer.gauges["spaces.TailSeq.max_head_len"] >= gx.head_len() == 6


def test_head_supports_the_reads_perfbench_makes():
    x = SparseSeq.from_pairs([(2, 1), (3, -1), (6, Fraction(5, 2))])
    y = apply_G(x)
    total = y + apply_Gstar(ModelMeasure(x, 3))
    head = y.head
    assert type(head) is tuple and len(head) == y.head_len() == 6
    assert [head[n - 1] for n in range(1, 7)] == [y.value(n) for n in range(1, 7)]
    assert total.head == () and total.tail == (Fraction(-3),)
    values = y.head + y.tail
    assert values[-1] == y.limit() and len(values) == 7
    assert spans._seq_den_bits(y) == max(v.denominator.bit_length() for v in values)
    assert [reference.seq_value(y, n) for n in range(1, 12)] == [y.value(n) for n in range(1, 12)]
    with pytest.raises(AttributeError):
        y.head = ()


def test_report_default_builds_its_config():
    inputs = runner.WORKLOADS["report-default"].inputs(lab, 1)
    assert inputs["config"] == gossez_lab.checks.CheckConfig(seed=1)


@pytest.mark.parametrize("name", ["far-index", "annihilator-window"])
def test_workload_round_calls_only_names_that_exist(name):
    workload = runner.WORKLOADS[name]
    out = workload.round(lab, workload.inputs(lab, 1))
    assert out.attempted > 0
    assert out.failed == 0 and not out.errors
