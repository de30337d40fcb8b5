"""The benchmark's workloads.

Each workload has four steps:

- ``inputs(lab, seed)`` builds the inputs from the seed.  It is timed as
  set-up and may call the program (far-index builds its images here).
- ``expected(inp)`` computes, apart from the program, what the outputs
  must be.  It is not timed.
- ``round(lab, inp)`` is the timed unit of work.  It calls only the
  program and returns its outputs with the number of operations it
  attempted and the number that raised.
- ``check(inp, exp, out, tally)`` compares the outputs with ``exp``.

``lab`` holds the program's modules.  Every call goes through a module or
class attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

SCALES = (1_000, 10_000, 100_000)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def call(self, key, fn, *args):
        """Run one program operation, keeping its result or its failure.

        Returns the result, or None when it failed; an operation given a
        failed result as input then fails in turn.
        """
        self.attempted += 1
        try:
            self.values[key] = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        return self.values.get(key)

    def batch(self, key, count, fn):
        """Run ``count`` operations as one batch; if it raises, all count as failed."""
        self.attempted += count
        try:
            self.values[key] = fn()
        except Exception as exc:
            self.failed += count
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        return self.values.get(key)


class Tally:
    """Correctness findings across a run."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# --------------------------------------------------------------------------
# report-default


class ReportDefault:
    """One `gossez-lab run --checks all` report at the CLI defaults, to json."""

    name = "report-default"
    setup_repeats = 9

    def inputs(self, lab, seed):
        # The CLI's defaults: truncation 64, trials 1000, scale-max 10**6,
        # json to stdout.  Only the seed comes from the benchmark.
        return {
            "config": lab.checks.CheckConfig(seed=seed),
            "catalog": {spec.name: spec.expected_status for spec in lab.checks.CATALOG},
        }

    def expected(self, inp):
        ratios = {}
        for m in (1, 10, 100, 1000):
            values = [Fraction((-1) ** (n - 1)) for n in range(1, 2 * m + 1)]
            ratio = _linf_dense(values) / sum(abs(v) for v in values)
            ratios[str(m)] = fmt(ratio) if ratio == Fraction(1, 2 * m) else "definition mismatch"
        return {
            "config": {
                "checks": ["all"],
                "truncation": 64,
                "trials": 1000,
                "seed": inp["config"].seed,
                "scale_max": 10**6,
                "out_format": "json",
                "out_path": None,
            },
            "ratios": ratios,
            "digests": set(),
        }

    def round(self, lab, inp):
        out = Outcome()
        report = out.batch("report", 8, lambda: lab.checks.run_checks(inp["config"]))
        out.call("payload", lab.checks.emit, report, "json")
        return out

    def check(self, inp, exp, out, tally):
        if "payload" not in out.values:
            return
        payload = out.values["payload"]
        exp["digests"].add(hashlib.sha256(payload).hexdigest())
        tally.expect(len(exp["digests"]) == 1, "report bytes differ between rounds")
        doc = json.loads(payload)
        tally.expect(doc["config"] == exp["config"], f"config serialized as {doc['config']}")
        catalog = inp["catalog"]
        names = [c["name"] for c in doc["checks"]]
        tally.expect(names == list(catalog), f"checks in report: {names}")
        for check in doc["checks"]:
            tally.expect(
                check["status"] == check["expected_status"] == catalog[check["name"]]
                and check["passed"] is True,
                f"{check['name']}: status {check['status']}, expected {check['expected_status']}",
            )
        tally.expect(doc["all_passed"] is True, "all_passed is not true")
        by_name = {c["name"]: c for c in doc["checks"]}
        if "range" in by_name:
            ratios = by_name["range"]["stats"]["ratios"]
            tally.expect(ratios == exp["ratios"], f"range ratios {ratios}, expected {exp['ratios']}")
        if "sds-i" in by_name:
            _check_ni_witness(by_name["sds-i"]["witnesses"], tally)

    def fingerprint(self, exp):
        """Digest of the report bytes, compared across runs with the same seed."""
        return sorted(exp["digests"])

    def layer_metrics(self, out):
        report = out.values.get("report")
        if report is None:
            return {}
        return {f"checks.{r.name}.s": r.wallclock_s for r in report.results}


def _linf_dense(values: list[Fraction]) -> Fraction:
    """sup |Gx| for x given densely from index 1, by running sums."""
    below = Fraction(0)
    above = sum(values, Fraction(0))
    best = abs(above)  # the limit, -sum(x)
    for v in values:
        above -= v
        best = max(best, abs(above - below))
        below += v
    return best


def _check_ni_witness(witnesses, tally):
    """The sds-i witness: unit mass at infinity paired with ones, margin 1."""
    if not witnesses:
        tally.expect(False, "sds-i reports no NI witness")
        return
    w = witnesses[0]
    z = w["z"]
    atomic = [(int(n), Fraction(v)) for n, v in z["x"]["atomic"]["entries"]]
    mass = Fraction(z["x"]["infinity_mass"])
    head = [Fraction(v) for v in z["y"]["head"]]
    tail = [Fraction(v) for v in z["y"]["tail"]["values"]]
    tally.expect(
        z["system"] == "second" and not atomic and mass == 1 and not head and tail == [1],
        f"sds-i witness point is {z}",
    )
    if len(tail) != 1:
        tally.expect(False, "sds-i witness y has no limit")
        return
    y = ref.Data(tuple(head), tuple(tail))
    coupling = ref.pair(atomic, lambda n: ref.seq_value(y, n)) + mass * tail[0]
    # z lies on Graph(-G*) exactly when y = mass * ones + G(atomic); there the
    # closed-form Fitzpatrick value is 0.
    top = max([n for n, _ in atomic] + [len(head)]) + 2
    on_graph = all(
        ref.seq_value(y, n) == mass + ref.g_value(atomic, n) for n in range(1, top + 1)
    ) and tail[0] == mass + ref.g_limit(atomic)
    fitz = Fraction(0) if on_graph else None
    tally.expect(
        fitz is not None
        and w["coupling"] == fmt(coupling) == "1/1"
        and w["fitz"] == fmt(fitz)
        and w["margin"] == fmt(coupling - fitz) == "1/1",
        f"sds-i witness values {w['coupling']}, {w['fitz']}, {w['margin']}",
    )


# --------------------------------------------------------------------------
# far-index


def _check_indices(rng: random.Random, x: ref.Entries, scale: int, extra: int) -> list[int]:
    """Support points, their neighbours, ``extra`` random indices, and two past the head."""
    points = {n for n, _ in x}
    indices = points | {n - 1 for n in points if n > 1} | {n + 1 for n in points}
    indices |= {rng.randint(1, scale) for _ in range(extra)}
    indices |= {scale + 1, 2 * scale}
    return sorted(indices)


def _sparse(lab, entries):
    return lab.spaces.SparseSeq.from_pairs(entries)


# Reads per far image and round.  The O(1)/O(support) reads are repeated so
# that random access is a visible share of the round (about 30%) next to the
# O(head) equality and sup-norm reads at top index 10^5.
VALUE_INDICES = 512
VALUE_PASSES = 128
PROBES = 512


class FarIndex:
    """Far images of sparse sequences whose top index is 10^3, 10^4, 10^5.

    Set-up builds and inverts them: G x, solve_G(G x), G*(x, a) and
    G x + G*(x, a).  A round reads G x: entries, couplings, equality and
    sup norm.  Builds and reads are timed apart, so a change that speeds
    up construction but slows random access shows.
    """

    name = "far-index"
    setup_repeats = 3

    def inputs(self, lab, seed):
        rng = random.Random(f"far-index:{seed}")
        sp, gz, images = lab.spaces, lab.gossez, []
        for scale in SCALES:
            x, mass = ref.stratified_sparse(rng, scale), ref.random_value(rng)
            X = _sparse(lab, x)
            y = gz.apply_G(X)
            g = lab.adjoint.apply_Gstar(sp.ModelMeasure(X, mass))
            head, limit = ref.g_head(x), ref.g_limit(x)
            # The same sequence built from the reference values, and one that
            # differs in a single entry late in the head.
            changed = list(head)
            changed[rng.randint(scale - scale // 10, scale) - 1] += 1
            indices = _check_indices(rng, x, scale, VALUE_INDICES)[:VALUE_INDICES]
            probes = [ref.random_sparse(rng, 2 * scale, 8) for _ in range(PROBES)]
            masses = [ref.random_value(rng) for _ in range(PROBES)]
            images.append(
                {
                    "scale": scale,
                    "x": x,
                    "mass": mass,
                    "probe": ref.random_sparse(rng, scale, 8),
                    "image": y,
                    "preimage": gz.solve_G(y),
                    "adjoint": g,
                    "sum": y + g,
                    "same": sp.TailSeq(tuple(head), (limit,)),
                    "other": sp.TailSeq(tuple(changed), (limit,)),
                    "indices": indices * VALUE_PASSES,
                    "probes": probes,
                    "masses": masses,
                    "P": [_sparse(lab, p) for p in probes],
                    "NU": [sp.ModelMeasure(_sparse(lab, p), b) for p, b in zip(probes, masses)],
                }
            )
        return images

    def expected(self, images):
        exp = []
        for im in images:
            x, probe = im["x"], im["probe"]
            distinct = {n: ref.g_value(x, n) for n in set(im["indices"])}
            couples = [ref.pair(p, lambda n: ref.g_value(x, n)) for p in im["probes"]]
            limit = ref.g_limit(x)
            exp.append(
                {
                    "value": [distinct[n] for n in im["indices"]],
                    "couple": couples,
                    "pair_measure": [cv + b * limit for cv, b in zip(couples, im["masses"])],
                    "equal": [True, False],
                    "linf": ref.linf_of_g(x),
                    "distinct": distinct,
                    "limit": limit,
                    # <x', Gx> = -<x, Gx'> and <x', G* mu> = <mu, G x'>
                    "anti": -ref.pair(x, lambda n: ref.g_value(probe, n)),
                    "adjoint": ref.pair(x, lambda n: ref.g_value(probe, n))
                    + im["mass"] * ref.g_limit(probe),
                }
            )
        return exp

    def round(self, lab, images):
        out = Outcome()
        sp = lab.spaces
        for i, im in enumerate(images):
            y = im["image"]
            couple, pair_measure = sp.couple, sp.pair_measure
            out.batch(("value", i), len(im["indices"]), lambda: [y.value(n) for n in im["indices"]])
            out.batch(("couple", i), len(im["P"]), lambda: [couple(p, y) for p in im["P"]])
            out.batch(
                ("pair_measure", i), len(im["NU"]), lambda: [pair_measure(nu, y) for nu in im["NU"]]
            )
            out.batch(("equal", i), 2, lambda: [y == im["same"], y == im["other"]])
            out.batch(("linf", i), 1, y.linf_norm)
        return out

    def check(self, images, exp, out, tally):
        for i, (im, e) in enumerate(zip(images, exp)):
            for key in ("value", "couple", "pair_measure", "equal", "linf"):
                got = out.values.get((key, i))
                if got is not None:
                    tally.expect(got == e[key], f"G x at {im['scale']}: {key} reads differ from the reference")
            _check_builds(im, e, tally)


def _check_builds(im, e, tally):
    """The set-up builds of one far image against the reference."""
    scale, x, a, probe = im["scale"], im["x"], im["mass"], im["probe"]
    y, cert, g, s = im["image"], im["preimage"], im["adjoint"], im["sum"]
    tally.expect(len(y.head) == scale, f"G x at {scale}: head length {len(y.head)}")
    tally.expect(y.tail == (e["limit"],), f"G x at {scale}: tail {y.tail}")
    bad = [n for n, v in e["distinct"].items() if ref.seq_value(y, n) != v]
    tally.expect(not bad, f"G x at {scale}: wrong at indices {bad[:5]}")
    tally.expect(ref.pair(x, lambda n: ref.seq_value(y, n)) == 0, f"<x, Gx> != 0 at {scale}")
    tally.expect(
        ref.pair(probe, lambda n: ref.seq_value(y, n)) == e["anti"], f"anti-symmetry fails at {scale}"
    )
    tally.expect(
        cert.feasible and cert.preimage is not None and list(cert.preimage.entries) == x,
        f"solve_G(G x) does not return x at {scale}",
    )
    tally.expect(g.tail == (-a - e["limit"],), f"G* mu at {scale}: tail {g.tail}")
    bad = [n for n, v in e["distinct"].items() if ref.seq_value(g, n) != -a - v]
    tally.expect(not bad, f"G* mu at {scale}: wrong at indices {bad[:5]}")
    tally.expect(
        ref.pair(probe, lambda n: ref.seq_value(g, n)) == e["adjoint"],
        f"adjoint identity fails at {scale}",
    )
    # G x + G*(x, a) = -a * ones, with no head left after canonicalization.
    tally.expect(s.head == () and s.tail == (-a,), f"G x + G* mu at {scale} != -a")


# --------------------------------------------------------------------------
# annihilator-window

FIRST_WINDOWS = (32, 64, 128)
SECOND_WINDOWS = (32, 64)


class AnnihilatorWindow:
    """Truncated annihilators of the unit graph spanning sets, plus moment matching."""

    name = "annihilator-window"
    setup_repeats = 9

    def inputs(self, lab, seed):
        sp, sampling = lab.spaces, lab.sampling
        windows = [("first", n) for n in FIRST_WINDOWS] + [("second", n) for n in SECOND_WINDOWS]
        spanning = {}
        for system, n in windows:
            if system == "first":  # the set g-orth builds
                spanning[system, n] = sampling.unit_graph_points(n)
            else:  # the set sds-i builds
                spanning[system, n] = [sampling.embed_first(sp.SparseSeq.unit(k)) for k in range(1, n + 1)]
        rng = random.Random(f"annihilator-window:{seed}")
        systems = []
        for n in FIRST_WINDOWS:
            tests = [ref.random_sparse(rng, n, 4) for _ in range(n // 4)]
            head = [ref.random_value(rng) for _ in range(n // 4)]
            limit = ref.random_value(rng)
            systems.append(
                {
                    "tests": tests,
                    "head": head,
                    "limit": limit,
                    "W": [_sparse(lab, w) for w in tests],
                    "Y": sp.TailSeq(tuple(head), (limit,)),
                }
            )
        return {"windows": windows, "spanning": spanning, "systems": systems}

    def expected(self, inp):
        # The spanning points must be (e_k, G e_k): check the program built them so.
        wrong = []
        for (system, n), points in inp["spanning"].items():
            for k, w in enumerate(points, start=1):
                unit = [(k, Fraction(1))]
                x = w.x.atomic if system == "second" else w.x
                ok = list(x.entries) == unit and w.y.tail == (Fraction(-1),)
                ok = ok and all(ref.seq_value(w.y, j) == ref.g_value(unit, j) for j in range(1, n + 2))
                if system == "second":
                    ok = ok and w.x.infinity_mass == 0
                if not ok:
                    wrong.append((system, n, k))
        return {"wrong_spanning": wrong}

    def round(self, lab, inp):
        out = Outcome()
        fitz, sp = lab.fitz, lab.spaces
        for system, n in inp["windows"]:
            dual = sp.DualSystem.FIRST if system == "first" else sp.DualSystem.SECOND
            out.call(("basis", system, n), fitz.annihilator_truncated, inp["spanning"][system, n], n, dual)
        for i, s in enumerate(inp["systems"]):
            out.call(("weakstar", i), lab.gossez.weakstar_approximate, s["Y"], s["W"])
        return out

    def check(self, inp, exp, out, tally):
        tally.expect(not exp["wrong_spanning"], f"spanning points differ: {exp['wrong_spanning'][:3]}")
        for system, n in inp["windows"]:
            basis = out.values.get(("basis", system, n))
            if basis is not None:
                _check_basis(system, n, basis.basis, tally)
        for i, s in enumerate(inp["systems"]):
            x = out.values.get(("weakstar", i))
            if x is None:
                continue
            xs = list(x.entries)
            y = ref.Data(tuple(s["head"]), (s["limit"],))
            bad = [
                w
                for w in s["tests"]
                if ref.pair(w, lambda n: ref.g_value(xs, n)) != ref.pair(w, lambda n: ref.seq_value(y, n))
            ]
            tally.expect(not bad, f"moment matching {i}: {len(bad)} tests not reproduced")


def _check_basis(system: str, n: int, basis, tally) -> None:
    """Size, independence and annihilation of a truncated annihilator basis."""
    label = f"{system} system, window {n}"
    size = n + 1 if system == "first" else n + 2
    tally.expect(len(basis) == size, f"{label}: basis size {len(basis)}, expected {size}")
    rows = []
    for z in basis:
        atomic = z.x if system == "first" else z.x.atomic
        mass = [] if system == "first" else [z.x.infinity_mass]
        xs = dict(atomic.entries)
        if any(k > n for k in xs) or len(z.y.head) > n or len(z.y.tail) != 1:
            tally.expect(False, f"{label}: basis vector outside the window")
            return
        X = [xs.get(k, Fraction(0)) for k in range(1, n + 1)]
        Y = [ref.seq_value(z.y, k) for k in range(1, n + 1)]
        rows.append(X + mass + Y + [z.y.tail[0]])
        # z . (e_k, G e_k) = <x, G e_k> + y_k, and <x, G e_k> sums x_j for
        # j < k minus x_j for j > k; a mass at infinity adds m * lim G e_k = -m.
        below, above = Fraction(0), sum(X, Fraction(0))
        for k in range(1, n + 1):
            above -= X[k - 1]
            value = below - above + Y[k - 1] - (mass[0] if mass else 0)
            if value != 0:
                tally.expect(False, f"{label}: basis vector couples to {value} with unit point {k}")
                return
            below += X[k - 1]
    tally.expect(ref.rank_mod_p(rows) == len(rows), f"{label}: basis vectors are dependent")


WORKLOADS = {w.name: w for w in (ReportDefault(), FarIndex(), AnnihilatorWindow())}
