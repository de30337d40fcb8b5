"""The benchmark's tracer must keep finding what it wraps.

``perfbench/spans.py`` wraps functions and methods by module and attribute
name.  A rename, a deletion or a changed method kind in ``gossez_lab`` would
only show up as a crash of a traced benchmark run; these tests make it fail
here instead.  The tracer is imported from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import gossez_lab
from gossez_lab.adjoint import apply_Gstar
from gossez_lab.fitz import OP_G_FIRST, OP_G_SECOND, OPERATORS
from gossez_lab.gossez import apply_G
from gossez_lab.sampling import ProbeSet
from gossez_lab.spaces import ModelMeasure, PairPoint, SparseSeq

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


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


def test_tracer_counts_through_staticmethods_and_constructors(tracer):
    ProbeSet.generate(OP_G_SECOND, 0, 4, 5)
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
