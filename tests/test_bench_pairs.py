"""The pair script's run order, plan syntax and summary, without running perfbench."""

import argparse
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parent_runs_first_in_odd_pairs():
    assert [bench_pairs.order(k) for k in (1, 2, 3, 4)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


def test_plan_entries_parse_or_are_refused():
    assert bench_pairs.parse_plan("annihilator-window:1009:10") == ("annihilator-window", 1009, 10)
    for bad in ("far-index:1", "far-index:one:5", "a:1:2:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_plan(bad)


def run(side, pair, rss, correct=True):
    metrics = {"peak_rss_mib": {"value": rss, "unit": "MiB"}}
    result = {"correct": correct, "attempted": 1, "failed": 0, "metrics": metrics}
    return {"side": side, "pair": pair, "workload": "w", "seed": 1, "exit": 0, "result": result}


def test_summary_counts_the_pairs_the_change_wins():
    parent = [27.0, 26.8, 26.9, 26.7]
    change = [24.7, 26.9, 24.6, 24.8]
    runs = [run("parent", k, v) for k, v in enumerate(parent, 1)]
    runs += [run("change", k, v) for k, v in enumerate(change, 1)]
    runs.append(run("parent", 5, 26.8))  # a pair with one side only is left out
    row = bench_pairs.summarize(runs)["w seed 1 peak_rss_mib"]
    assert row["change_wins"] == "3/4"
    assert row["parent_q1_median_q3"] == [26.775, 26.85, 26.925]
    assert row["parent_iqr"] == 0.15
    assert row["all_correct_0_failed"]
    runs.append(run("change", 5, 24.0, correct=False))
    row = bench_pairs.summarize(runs)["w seed 1 peak_rss_mib"]
    assert row["change_wins"] == "4/5" and not row["all_correct_0_failed"]


def test_a_failed_or_incorrect_run_makes_the_exit_code_1(capsys):
    runs = [run("parent", 1, 26.8), run("change", 1, 26.7)]
    assert bench_pairs.exit_code(runs) == 0
    assert capsys.readouterr().err == ""
    runs[1]["result"]["failed"] = 2
    runs.append({**run("parent", 2, 26.9), "workload": "far-index", "seed": 1009, "exit": 1})
    runs.append({**run("change", 2, 0.0), "result": None})
    assert bench_pairs.exit_code(runs) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "incorrect or failed run: w seed 1 pair 1 change: exit 0, correct True, failed 2",
        "incorrect or failed run: far-index seed 1009 pair 2 parent: exit 1, correct True, failed 0",
        "incorrect or failed run: w seed 1 pair 2 change: exit 0, no result",
    ]


def test_main_returns_1_when_a_run_failed(monkeypatch, tmp_path, capsys):
    # The pairs are not run: ``measure`` hands main a document whose one
    # change run reported an incorrect output.
    good, bad = run("parent", 1, 26.8), run("change", 1, 26.7, correct=False)
    document = {"runs": [good, bad], "summary": bench_pairs.summarize([good, bad])}
    monkeypatch.setattr(bench_pairs, "revision", lambda rev: rev)
    monkeypatch.setattr(bench_pairs, "extract", lambda commit, into: into)
    monkeypatch.setattr(bench_pairs, "measure", lambda *args: document)
    argv = ["--out", str(tmp_path / "BENCH.json"), "--plan", "w:1:1"]
    assert bench_pairs.main(argv) == 1
    assert "w seed 1 pair 1 change: exit 0, correct False" in capsys.readouterr().err
    bad["result"]["correct"] = True
    document["summary"] = bench_pairs.summarize([good, bad])
    assert bench_pairs.main(argv) == 0
