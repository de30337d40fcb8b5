"""Benchmark for gossez-lab: set-up time, memory and round time per workload.

Run from the repository root:

    python3 perfbench/run.py --workload far-index --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in one process with no threads.  The program is
imported from ``src/`` of this checkout; without it the benchmark exits 2
and prints no result.  ``--workload all`` runs each workload in its own
child process, one after the other.

Untraced runs (``--trace 0``) report the end-to-end metrics: ``setup_s``,
``peak_rss_mib`` and ``round_s``.  Traced runs (``--trace 1``) time
untraced rounds for half of ``--seconds``, then set up once more and run
one round with spans and counters installed, and report the per-layer
metrics of that set-up and round.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and the determinism records go to
``.perfbench_out/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import PER_LAYER, Tracer
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("spaces", "linalg", "gossez", "adjoint", "fitz", "sampling", "props", "checks")

# Run in a fresh interpreter: the import is what set-up pays once per process.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import gossez_lab\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = (("setup_s", "s"), ("peak_rss_mib", "MiB"), ("round_s", "s"))


def code_id() -> str:
    """Digest of the program's and the benchmark's sources.

    Determinism records are kept per code version: a change to either may
    change what a run computes.
    """
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def load_program() -> SimpleNamespace:
    """Import gossez_lab from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("gossez_lab")
    except ImportError as exc:
        print(f"cannot import gossez_lab from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        print(f"gossez_lab was imported from {package.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(**{m: importlib.import_module(f"gossez_lab.{m}") for m in MODULES})


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


class Run:
    """One run of one workload: set-up, timed rounds, checks."""

    def __init__(self, workload, lab, seed: int) -> None:
        self.workload, self.lab, self.seed = workload, lab, seed
        self.tally = Tally()
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def setup(self) -> float:
        """Median over repeats of import time plus input-building time."""
        times = []
        for _ in range(self.workload.setup_repeats):
            spent = import_seconds()
            times.append(spent + self.build_inputs())
        self.expected = self.workload.expected(self.inputs)
        return statistics.median(times)

    def build_inputs(self) -> float:
        began = time.perf_counter()
        self.inputs = self.workload.inputs(self.lab, self.seed)
        return time.perf_counter() - began

    def round(self):
        began = time.perf_counter()
        out = self.workload.round(self.lab, self.inputs)
        elapsed = time.perf_counter() - began
        self.attempted += out.attempted
        self.failed += out.failed
        if not self.errors:
            self.errors = out.errors
        self.workload.check(self.inputs, self.expected, out, self.tally)
        return out, elapsed

    def rounds(self, seconds: float) -> list[float]:
        """Whole rounds until the next one would end past ``seconds``; at least one."""
        deadline = time.perf_counter() + seconds
        times = []
        while True:
            began = time.perf_counter()
            times.append(self.round()[1])
            now = time.perf_counter()
            if now + (now - began) > deadline:
                return times

    def remember(self, kind: str, record) -> None:
        """Keep ``record`` for this workload, seed and code; a later run must match it."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{kind}-{self.workload.name}-seed{self.seed}-{code_id()}.json"
        if path.exists():
            earlier = json.loads(path.read_text())
            self.tally.expect(earlier == record, f"{kind} differ from an earlier run with this seed")
        else:
            path.write_text(json.dumps(record, sort_keys=True))


def untraced(run: Run, seconds: float) -> dict:
    setup = run.setup()
    times = run.rounds(seconds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{run.workload.name}: {len(times)} rounds", file=sys.stderr)
    return {"setup_s": setup, "peak_rss_mib": rss_mib, "round_s": statistics.median(times)}


def traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics of one traced set-up and one traced round."""
    run.setup()
    untraced_s = run.build_inputs() + statistics.median(run.rounds(seconds / 2))
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = run.build_inputs()
        out, elapsed = run.round()
        traced_s += elapsed
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    extra = run.workload.layer_metrics(out) if hasattr(run.workload, "layer_metrics") else {}
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = traced_s - untraced_s
        elif name in extra:
            value = extra[name]
        elif name.endswith(".calls"):
            span = name[: -len(".calls")]
            value = summary[span][0] if span in summary else tracer.counts.get(name, 0)
        elif name.endswith(".s"):
            value = summary.get(name[: -len(".s")], (0, 0.0))[1]
        else:
            value = tracer.gauges.get(name, 0)
        metrics[name] = value
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{run.workload.name}-seed{run.seed}.json")
    units = dict(PER_LAYER)
    run.remember("counts", {k: v for k, v in metrics.items() if units[k] in ("count", "bits")})
    return metrics


def run_one(args) -> int:
    lab = load_program()
    workload = WORKLOADS[args.workload]
    run = Run(workload, lab, args.seed)
    values = (traced if args.trace else untraced)(run, args.seconds)
    if hasattr(workload, "fingerprint"):
        run.remember("report", workload.fingerprint(run.expected))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for error in run.errors[:3]:
        print(f"failed operation: {error}", file=sys.stderr)
    for problem in run.tally.problems[:5]:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(f"{workload.name} attempted = {run.attempted} failed = {run.failed} correct = {run.tally.correct}")
    result = {
        "correct": run.tally.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own child process; exit 1 if any fails or is incorrect."""
    results, status = {}, 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            results[name], status = {"exit": done.returncode}, 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"] or results[name]["failed"] > 0
    print(json.dumps(results))
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
