"""Spans and counters recorded from outside gossez-lab.

``Tracer.install`` wraps the public functions named in ``SPANNED`` and the
hot methods named in ``COUNTED``.  A function imported by name elsewhere
(``from .gossez import apply_G``) is rebound in every ``gossez_lab`` module
that holds it, so calls made from inside the program are seen too.
``uninstall`` restores the originals; untraced rounds run the program as
it is.

A span is (name, start, end, parent).  Spans stay in memory until
``write`` saves them.  A layer's self time is its spans' durations minus
the parts covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

PACKAGE = "gossez_lab"

# (module, attribute path) -> span name; the module prefix names the layer.
SPANNED = {
    ("gossez", "apply_G"): "gossez.apply_G",
    ("gossez", "solve_G"): "gossez.solve_G",
    ("gossez", "weakstar_approximate"): "gossez.weakstar_approximate",
    ("adjoint", "apply_Gstar"): "adjoint.apply_Gstar",
    ("spaces", "TailSeq.__add__"): "spaces.TailSeq.add",
    ("spaces", "couple"): "spaces.couple",
    ("spaces", "pair_measure"): "spaces.pair_measure",
    ("spaces", "natural_couple"): "spaces.natural_couple",
    ("linalg", "nullspace"): "linalg.nullspace",
    ("linalg", "solve_minimal"): "linalg.solve_minimal",
    ("fitz", "annihilator_truncated"): "fitz.annihilator_truncated",
    ("fitz", "fitz_sampled"): "fitz.fitz_sampled",
    ("fitz", "orthogonality_report"): "fitz.orthogonality_report",
    ("fitz", "divergence_certificate"): "fitz.divergence_certificate",
    ("props", "representability_check"): "props.representability_check",
    ("props", "ni_witness_search"): "props.ni_witness_search",
    ("props", "extension_probe"): "props.extension_probe",
    ("props", "is_monotone"): "props.is_monotone",
    ("props", "dichotomy_crosscheck"): "props.dichotomy_crosscheck",
    ("sampling", "ProbeSet.generate"): "sampling.ProbeSet.generate",
    ("checks", "emit"): "checks.emit",
}

# Per-element methods: a span each would cost more than the work, so they
# only count calls.
COUNTED = {
    ("spaces", "SparseSeq.value"): "spaces.SparseSeq.value",
    ("spaces", "TailSeq.value"): "spaces.TailSeq.value",
    ("spaces", "TailSeq.__post_init__"): "spaces.TailSeq.new",
}

CHECK_NAMES = ("g-basic", "g-orth", "gstar", "range", "fds", "sds-i", "sds-ii", "dichotomy")

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [(f"checks.{name}.s", "s") for name in CHECK_NAMES]
    + [("checks.emit.s", "s")]
    + [
        ("gossez.apply_G.calls", "count"),
        ("gossez.apply_G.s", "s"),
        ("gossez.solve_G.calls", "count"),
        ("gossez.solve_G.s", "s"),
        ("gossez.weakstar_approximate.s", "s"),
        ("adjoint.apply_Gstar.calls", "count"),
        ("adjoint.apply_Gstar.s", "s"),
        ("spaces.TailSeq.new.calls", "count"),
        ("spaces.TailSeq.add.calls", "count"),
        ("spaces.TailSeq.add.s", "s"),
        ("spaces.TailSeq.max_head_len", "count"),
        ("spaces.SparseSeq.value.calls", "count"),
        ("spaces.TailSeq.value.calls", "count"),
        ("spaces.couple.calls", "count"),
        ("spaces.couple.s", "s"),
        ("spaces.pair_measure.calls", "count"),
        ("spaces.pair_measure.s", "s"),
        ("spaces.natural_couple.calls", "count"),
        ("spaces.natural_couple.s", "s"),
        ("spaces.max_den_bits", "bits"),
        ("linalg.nullspace.calls", "count"),
        ("linalg.nullspace.s", "s"),
        ("linalg.solve_minimal.calls", "count"),
        ("linalg.solve_minimal.s", "s"),
        ("linalg.max_entry_bits", "bits"),
        ("fitz.annihilator_truncated.s", "s"),
        ("fitz.fitz_sampled.calls", "count"),
        ("fitz.fitz_sampled.s", "s"),
        ("fitz.orthogonality_report.s", "s"),
        ("fitz.divergence_certificate.s", "s"),
        ("props.representability_check.s", "s"),
        ("props.ni_witness_search.s", "s"),
        ("props.extension_probe.calls", "count"),
        ("props.extension_probe.s", "s"),
        ("props.is_monotone.s", "s"),
        ("props.dichotomy_crosscheck.s", "s"),
        ("sampling.ProbeSet.generate.calls", "count"),
        ("sampling.ProbeSet.generate.s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _den_bits(value) -> int:
    return value.denominator.bit_length() if isinstance(value, Fraction) else 0


def _seq_den_bits(seq) -> int:
    return max(v.denominator.bit_length() for v in seq.head + seq.tail)


def _matrix_bits(rows) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for row in rows for v in row),
        default=0,
    )


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.gauges: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _gauge(self, name: str, value: int) -> None:
        if value > self.gauges.get(name, 0):
            self.gauges[name] = value

    def _observe(self, name: str, args, result) -> None:
        # Size gauges read the values crossing a layer boundary.
        if name in ("spaces.couple", "spaces.pair_measure", "spaces.natural_couple"):
            self._gauge("spaces.max_den_bits", _den_bits(result))
        elif name in ("gossez.apply_G", "adjoint.apply_Gstar", "spaces.TailSeq.add"):
            self._gauge("spaces.max_den_bits", _seq_den_bits(result))
        elif name == "linalg.nullspace":
            self._gauge("linalg.max_entry_bits", max(_matrix_bits(args[0]), _matrix_bits(result)))
        elif name == "linalg.solve_minimal":
            self._gauge(
                "linalg.max_entry_bits",
                max(_matrix_bits(args[0]), _matrix_bits([args[1], result or []])),
            )

    def _span_wrapper(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack, clock = self.stack, time.perf_counter
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        if name == "spaces.TailSeq.new":

            def wrapper(obj, *args, **kwargs):
                counts[key] += 1
                fn(obj, *args, **kwargs)
                self._gauge("spaces.TailSeq.max_head_len", len(obj.head))

        else:

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        targets = [(key, name, self._span_wrapper) for key, name in SPANNED.items()]
        targets += [(key, name, self._count_wrapper) for key, name in COUNTED.items()]
        for (module_name, path), name, make in targets:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._replace(owner, attr, staticmethod(make(name, raw.__func__)))
                continue
            wrapped = make(name, raw)
            if classes:
                self._replace(owner, attr, wrapped)
                continue
            # Rebind the function wherever a module imported it by name.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name."""
        child_time = [0.0] * len(self.span_name)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += self.span_end[i] - self.span_start[i]
        calls: Counter[str] = Counter()
        self_time: dict[str, float] = {}
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            own = self.span_end[i] - self.span_start[i] - child_time[i]
            self_time[name] = self_time.get(name, 0.0) + own
        return {name: (calls[name], self_time[name]) for name in calls}

    def write(self, path) -> None:
        """Save names, spans and counters as JSON."""
        doc = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent"],
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ],
            "counts": dict(self.counts),
            "gauges": self.gauges,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
