"""Alternating parent/change pairs of perfbench runs, written to one BENCH file.

Run from the repository root, with both revisions committed:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_23.json \\
        --plan annihilator-window:1:10 --plan annihilator-window:1009:10 \\
        --plan far-index:1:5 --plan report-default:1:5

Each revision is extracted with ``git archive`` into its own clean
temporary directory.  Every ``--plan WORKLOAD:SEED:PAIRS`` entry then runs
``perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0``,
S the ``run_seconds`` of ``BENCHMARK.json``, PAIRS times from each
directory, in a fresh interpreter each time: the parent first in odd pairs
(1, 3, ...), the change first in even ones.  The last line of standard
output of every run, its JSON result, is kept with the git revision, the
seed and the Python version.  The file is rewritten after every run, so an
interrupted session keeps what it measured, and a summary per workload,
seed and metric closes it: quartiles of each side, the parent's
interquartile range and the pairs the change wins (all the
end-to-end metrics are better lower).  The exit code is 1, with one
stderr line per run naming its workload and seed, if any run exited
non-zero, gave no result, was incorrect or had a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def revision(rev: str) -> str:
    """The full commit id of ``rev`` in this repository."""
    done = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def extract(commit: str, into: Path) -> Path:
    """A clean copy of the files of ``commit`` under ``into``."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into


def order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` (counted from 1) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def parse_plan(text: str) -> tuple[str, int, int]:
    try:
        workload, seed, pairs = text.split(":")
        return workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}") from None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a fresh interpreter: its exit code and last-line JSON."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"exit": done.returncode, "result": result}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def run_ok(run: dict) -> bool:
    """Whether a run exited 0 with a correct output and no failed operation."""
    result = run["result"]
    return run["exit"] == 0 and bool(result) and result["correct"] and result["failed"] == 0


def exit_code(runs: list[dict]) -> int:
    """1 if any run is not ``run_ok``, each such run named on stderr by its
    workload, seed, pair and side; 0 otherwise."""
    bad = [r for r in runs if not run_ok(r)]
    for r in bad:
        outcome = r["result"] and f"correct {r['result']['correct']}, failed {r['result']['failed']}"
        print(
            f"incorrect or failed run: {r['workload']} seed {r['seed']} pair {r['pair']} "
            f"{r['side']}: exit {r['exit']}, {outcome or 'no result'}",
            file=sys.stderr,
        )
    return 1 if bad else 0


def summarize(runs: list[dict]) -> dict:
    """Per workload, seed and metric: quartiles per side, the parent's
    interquartile range and the pairs whose change value is lower."""
    summary = {}
    groups = dict.fromkeys((r["workload"], r["seed"]) for r in runs)
    for workload, seed in groups:
        group = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        ok = all(map(run_ok, group))
        values: dict[tuple[int, str], dict] = {
            (r["pair"], r["side"]): r["result"]["metrics"] for r in group if r["result"]
        }
        pairs = sorted({p for p, _ in values if all((p, s) in values for s in SIDES)})
        names = sorted({name for p in pairs for name in values[p, "parent"]})
        for name in names:
            parent = [values[p, "parent"][name]["value"] for p in pairs]
            change = [values[p, "change"][name]["value"] for p in pairs]
            p_q, c_q = quartiles(parent), quartiles(change)
            summary[f"{workload} seed {seed} {name}"] = {
                "parent_q1_median_q3": [round(v, 5) for v in p_q],
                "change_q1_median_q3": [round(v, 5) for v in c_q],
                "change_vs_parent_median_pct": round(100 * (c_q[1] / p_q[1] - 1), 1),
                "parent_iqr": round(p_q[2] - p_q[0], 5),
                "change_wins": f"{sum(c < p for p, c in zip(parent, change))}/{len(pairs)}",
                "all_correct_0_failed": ok,
            }
    return summary


def measure(plan, commits: dict, checkouts: dict, seconds: float, out: Path) -> dict:
    """Run the pairs of ``plan``, rewriting ``out`` after every run."""
    python = platform.python_version()
    document = {
        "what": (
            "Alternating parent/change pairs of perfbench/run.py, written by tools/bench_pairs.py: "
            "each side a clean `git archive` copy of its revision, each run a fresh interpreter, "
            "the parent first in odd pairs. `result` is the last line of standard output of a run."
        ),
        "command": (
            "python3 perfbench/run.py --workload <workload> --seed <seed> "
            f"--seconds {seconds:g} --trace 0"
        ),
        "sides": {side: {"revision": commits[side]} for side in SIDES},
        "host": (
            f"{platform.system()} {platform.machine()}, {len(os.sched_getaffinity(0))} usable "
            f"CPUs, {platform.python_implementation()} {python}"
        ),
        "plan": [{"workload": w, "seed": s, "pairs": k} for w, s, k in plan],
        "summary": {},
        "runs": [],
    }
    for workload, seed, pairs in plan:
        for pair in range(1, pairs + 1):
            for position, side in enumerate(order(pair)):
                outcome = run_once(checkouts[side], workload, seed, seconds)
                document["runs"].append(
                    {
                        "side": side,
                        "revision": commits[side],
                        "workload": workload,
                        "seed": seed,
                        "pair": pair,
                        "order": position,
                        "seconds": seconds,
                        "python": python,
                        **outcome,
                    }
                )
                document["summary"] = summarize(document["runs"])
                out.write_text(json.dumps(document, indent=1) + "\n")
                print(f"{workload} seed {seed} pair {pair} {side}: exit {outcome['exit']}",
                      file=sys.stderr)
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH file to write")
    parser.add_argument(
        "--plan", action="append", required=True, type=parse_plan,
        help="WORKLOAD:SEED:PAIRS, repeatable; run in the order given",
    )
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    commits = {"parent": revision(args.parent), "change": revision(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        checkouts = {side: extract(commits[side], Path(workdir, side)) for side in SIDES}
        document = measure(args.plan, commits, checkouts, seconds, args.out)
    for name, row in document["summary"].items():
        change = row["change_vs_parent_median_pct"]
        print(f"{name}: {change:+.1f}% wins {row['change_wins']} (parent IQR {row['parent_iqr']})")
    return exit_code(document["runs"])


if __name__ == "__main__":
    sys.exit(main())
