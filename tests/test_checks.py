"""Check catalog, report emission, determinism, CLI contract."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading

import pytest

from gossez_lab.checks import (
    ARTIFACT_VERSION,
    CATALOG,
    CheckConfig,
    UnknownCheckError,
    emit,
    run_checks,
    select_checks,
)
from gossez_lab.cli import main
from gossez_lab.verdict import VERIFIED, WITNESS_FOUND

FAST = CheckConfig(trials=20)

# One catalog entry per verifiable claim; names and expected outcomes are
# frozen here so a drive-by edit of the catalog fails loudly.
MANIFEST = {
    "g-basic": VERIFIED,
    "g-orth": VERIFIED,
    "gstar": VERIFIED,
    "range": VERIFIED,
    "fds": VERIFIED,
    "sds-i": WITNESS_FOUND,
    "sds-ii": VERIFIED,
    "dichotomy": VERIFIED,
}


def test_catalog_matches_manifest():
    assert dict((s.name, s.expected_status) for s in CATALOG) == MANIFEST
    names = [spec.name for spec in CATALOG]
    assert len(set(names)) == len(names)
    for spec in CATALOG:
        assert spec.claim and spec.title


def test_select_checks():
    assert select_checks(("all",)) == CATALOG
    chosen = select_checks(("fds", "g-basic"))
    assert [s.name for s in chosen] == ["g-basic", "fds"]  # catalog order
    with pytest.raises(UnknownCheckError):
        select_checks(("bogus",))


@pytest.fixture(scope="module")
def fast_report():
    return run_checks(FAST)


def test_full_fast_suite_passes(fast_report):
    assert fast_report.all_passed
    assert fast_report.first_failure is None
    assert [r.name for r in fast_report.results] == list(MANIFEST)


def test_json_emission_is_canonical_and_round_trips(fast_report):
    payload = emit(fast_report, "json")
    doc = json.loads(payload)
    assert doc["all_passed"] is True
    assert doc["version"] == "0.6.0"
    assert doc["config"]["trials"] == 20
    assert [c["name"] for c in doc["checks"]] == list(MANIFEST)
    # no timing anywhere: the report must be reproducible byte for byte
    assert b"wallclock" not in payload
    assert payload == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True).encode() + b"\n"


def test_artifact_version_is_the_package_version():
    # Read by regex: Python 3.10 has no tomllib.
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")) as handle:
        match = re.search(r'^version = "([^"]+)"$', handle.read(), re.MULTILINE)
    assert match is not None
    assert match.group(1) == ARTIFACT_VERSION


def test_reports_are_byte_identical_across_runs(fast_report):
    again = run_checks(FAST)
    for fmt in ("json", "csv", "md"):
        assert emit(fast_report, fmt) == emit(again, fmt)


def test_seed_changes_report(fast_report):
    other = run_checks(CheckConfig(trials=20, seed=1))
    assert emit(other, "json") != emit(fast_report, "json")
    assert other.all_passed


def test_csv_and_md_emission(fast_report):
    csv_payload = emit(fast_report, "csv").decode()
    lines = csv_payload.strip().split("\n")
    assert lines[0].startswith("name,")
    assert len(lines) == 1 + len(MANIFEST)
    md_payload = emit(fast_report, "md").decode()
    assert "# gossez-lab report" in md_payload
    assert "all checks passed" in md_payload
    with pytest.raises(ValueError):
        emit(fast_report, "yaml")


# sha256 of the default reports.  Performance work must leave these bytes
# alone; a deliberate report change bumps ARTIFACT_VERSION and updates the
# digests in the same commit.
DEFAULT_REPORT_SHA256 = "7e63db1edb033a091978a6b1a85d0e67605dc2f02cf2dbd0b3b71945fc6ee265"
PINNED_REPORT_SHA256 = {
    (0, "json"): DEFAULT_REPORT_SHA256,
    (0, "md"): "3e6a245832be5fd81b971393d255d8bfcb60560807e006f5af0485b7da7331e7",
    (0, "csv"): "15af025bb5ab79a5b64ece5a013abe7de36144242458f2f07b0b6499bf1acdc8",
    (1, "json"): "813101dc1a978d13228f9750b3e22363f9a3ead0e8ea278d182f6a11a93a4050",
}


@pytest.fixture(scope="module")
def default_report():
    """One default report at seed 0, emitted in every format."""
    return run_checks(CheckConfig(seed=0))


def assert_pinned(report, seed: int, out_format: str) -> None:
    digest = hashlib.sha256(emit(report, out_format)).hexdigest()
    assert digest == PINNED_REPORT_SHA256[seed, out_format], (
        f"default {out_format} report (seed {seed}, ARTIFACT_VERSION {ARTIFACT_VERSION}) "
        f"changed: sha256 {digest}. A deliberate report change bumps ARTIFACT_VERSION "
        "and updates PINNED_REPORT_SHA256 in the same commit."
    )


def test_default_report_bytes_are_pinned(default_report):
    assert_pinned(default_report, 0, "json")


def test_default_report_md_and_csv_bytes_are_pinned(default_report):
    assert_pinned(default_report, 0, "md")
    assert_pinned(default_report, 0, "csv")


def test_seed_one_report_bytes_are_pinned():
    assert_pinned(run_checks(CheckConfig(seed=1)), 1, "json")


# A non-default window and trial count: the default pins never reach the
# code paths that only a window of 128 takes.
WIDE_WINDOW_REPORT_SHA256 = "b1236fa6d015480aa977c4fdd1348478289170c901191a71ff5325370149871c"


def test_wide_window_report_bytes_are_pinned():
    report = run_checks(CheckConfig(seed=0, truncation=128, trials=200))
    digest = hashlib.sha256(emit(report, "json")).hexdigest()
    assert digest == WIDE_WINDOW_REPORT_SHA256, (
        f"json report at seed 0, truncation 128, 200 trials (ARTIFACT_VERSION "
        f"{ARTIFACT_VERSION}) changed: sha256 {digest}"
    )


# A window below the scan cap (32): every decision and draw, and the
# annihilators, gstar's model kernel and dichotomy too, read 8 here.
SMALL_WINDOW_REPORT_SHA256 = "18a5cac8ded6b6dda81c330e102656b298307c77c9c49109a8c40ca73c635f04"


def test_small_window_report_bytes_are_pinned():
    report = run_checks(CheckConfig(seed=0, truncation=8, trials=50))
    digest = hashlib.sha256(emit(report, "json")).hexdigest()
    assert digest == SMALL_WINDOW_REPORT_SHA256, (
        f"json report at seed 0, truncation 8, 50 trials (ARTIFACT_VERSION "
        f"{ARTIFACT_VERSION}) changed: sha256 {digest}"
    )


def test_ci_pins_the_digests_pinned_here():
    # The CI workflow re-checks six of these digests through the CLI; a
    # re-pin must change both files.
    path = os.path.join(os.path.dirname(__file__), "..", ".github", "workflows", "tier1.yml")
    with open(path) as handle:
        workflow = handle.read()

    def ci_digest(pattern):
        (digest,) = re.findall(pattern, workflow, re.MULTILINE)
        return digest

    assert ci_digest(r"^ *check 0 json ([0-9a-f]{64})$") == PINNED_REPORT_SHA256[0, "json"]
    assert ci_digest(r"^ *check 1 json ([0-9a-f]{64})$") == PINNED_REPORT_SHA256[1, "json"]
    assert ci_digest(r"^ *check 0 csv ([0-9a-f]{64})$") == PINNED_REPORT_SHA256[0, "csv"]
    wide = ci_digest(r"^ *check 0 json ([0-9a-f]{64}) --truncation 128 --trials 200$")
    assert wide == WIDE_WINDOW_REPORT_SHA256
    small = ci_digest(r"^ *check 0 json ([0-9a-f]{64}) --truncation 8 --trials 50$")
    assert small == SMALL_WINDOW_REPORT_SHA256
    one_cpu = ci_digest(r'^ *test "\$digest" = ([0-9a-f]{64})$')
    assert one_cpu == DEFAULT_REPORT_SHA256


def test_single_check_run():
    report = run_checks(CheckConfig(checks=("range",), trials=10))
    assert [r.name for r in report.results] == ["range"]
    assert report.all_passed


def test_sds_i_off_graph_infinity_needs_its_certificate(monkeypatch):
    # The +inf of the closed form at the unit-mass point off Graph(-G*) is
    # only accepted with a sampled value above scale_max behind it.
    import gossez_lab.checks as checks

    certify = checks.divergence_certificate
    monkeypatch.setattr(
        checks,
        "divergence_certificate",
        lambda op, z, threshold: {**certify(op, z, threshold), "value": threshold},
    )
    (result,) = run_checks(CheckConfig(checks=("sds-i",), trials=20)).results
    assert not result.passed
    assert [f["property"] for f in result.stats["failures"]] == ["indicator-off-graph"]


def test_an_extension_witness_on_the_graph_refutes_nothing(monkeypatch):
    # A witness that already lies on the analytic graph extends nothing.
    # Marked so, it must fail sds-i's extension witness and the G-second
    # dichotomy profile, and nothing else in either check.
    import gossez_lab.checks as checks
    import gossez_lab.props as props

    probe = props.extension_probe

    def on_graph(graph, z):
        verdict = probe(graph, z)
        if verdict.status != WITNESS_FOUND:
            return verdict
        return dataclasses.replace(
            verdict, stats={**verdict.stats, "already_in_analytic_graph": True}
        )

    monkeypatch.setattr(checks, "extension_probe", on_graph)
    monkeypatch.setattr(props, "extension_probe", on_graph)
    sds_i, dichotomy = run_checks(CheckConfig(checks=("sds-i", "dichotomy"), trials=20)).results
    assert [f["property"] for f in sds_i.stats["failures"]] == ["extension-witness"]
    assert [f["property"] for f in dichotomy.stats["failures"]] == ["profile-G-second"]


def test_sds_ii_refutes_no_extension_on_zero_candidates(monkeypatch):
    # Fitzpatrick graph samples without mass at infinity leave sds-ii no
    # in-model extension candidate, and "every candidate refuted" must not
    # hold of none.  The massless points are still on the graph, so nothing
    # else in the check fails.
    import gossez_lab.checks as checks
    from gossez_lab.spaces import ModelMeasure

    samples = checks.fitz_graph_samples

    def massless(op, seed, count, truncation=32):
        return [
            op.fitz_point(ModelMeasure.from_atomic(z.x.atomic))
            for z in samples(op, seed, count, truncation)
        ]

    monkeypatch.setattr(checks, "fitz_graph_samples", massless)
    (result,) = run_checks(CheckConfig(checks=("sds-ii",), trials=20)).results
    assert not result.passed
    assert [f["property"] for f in result.stats["failures"]] == ["no-representable-extension"]
    assert result.stats["extension_candidates_refuted"] == 0


def test_empty_selection_gives_header_only_report():
    report = run_checks(CheckConfig(checks=()))
    assert report.results == ()
    assert report.all_passed  # vacuously
    csv_lines = emit(report, "csv").decode().strip().split("\n")
    assert len(csv_lines) == 1 and csv_lines[0].startswith("name,")
    assert json.loads(emit(report, "json"))["checks"] == []


# ------------------------------------------------------------------ CLI


def test_cli_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in MANIFEST:
        assert name in out


def test_cli_unknown_check_is_usage_error(capsys):
    assert main(["run", "--checks", "bogus"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_cli_seed_comes_from_the_flag_alone(monkeypatch, capsys):
    # The seed has one channel, --seed: no environment variable reaches a
    # report, not even one that is no integer.
    argv = ["run", "--checks", "range", "--trials", "10", "--seed", "0"]
    monkeypatch.delenv("GOSSEZ_LAB_SEED", raising=False)
    assert main(argv) == 0
    expected = capsys.readouterr().out
    for value in ("9", "not-a-number"):
        monkeypatch.setenv("GOSSEZ_LAB_SEED", value)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


def test_cli_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--checks", "g-basic", "--trials", "5", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["name"] == "g-basic"
    err = capsys.readouterr().err
    assert "g-basic" in err  # console summary goes to stderr


def test_cli_stdout_when_no_out(capsys):
    code = main(["run", "--checks", "range", "--trials", "5", "--format", "md"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# gossez-lab report")


def test_cli_io_failure(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code = main(["run", "--checks", "range", "--trials", "5", "--out", str(target)])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("truncation", 0), ("truncation", -3), ("trials", 0), ("trials", -5), ("scale_max", 0)],
)
def test_config_rejects_empty_sampling(field, value):
    with pytest.raises(ValueError, match=field):
        CheckConfig(**{field: value})


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--truncation", "0"),
        ("--truncation", "-3"),
        ("--trials", "0"),
        ("--trials", "-5"),
        ("--scale-max", "0"),
    ],
)
def test_cli_invalid_config_is_one_line_usage_error(flag, value, capsys):
    # Before validation these crashed in randrange (exit 1) or issued
    # verdicts on zero samples; now nothing runs and nothing is emitted.
    assert main(["run", "--checks", "all", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_cli_usage_error_on_bad_flag(capsys):
    # argparse's own errors: a bad choice, a value of the wrong type, an
    # unknown flag and a missing subcommand.  Each is one line, no usage block.
    for argv in (["run", "--format", "yaml"], ["run", "--truncation", "abc"], ["run", "-x"], []):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--help"])
    assert err.value.code == 0
    assert "--truncation" in capsys.readouterr().out


def test_cli_reports_check_failure_with_exit_one(monkeypatch, capsys, fast_report):
    import dataclasses

    import gossez_lab.cli as cli

    broken = dataclasses.replace(fast_report.results[0], status="refuted", passed=False)
    doc = dataclasses.replace(fast_report, results=(broken,) + fast_report.results[1:])
    monkeypatch.setattr(cli, "run_checks", lambda config: doc)
    assert cli.main(["run", "--checks", "all"]) == 1
    assert "first failing check: g-basic" in capsys.readouterr().err


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
def test_run_checks_owns_each_checks_generator_tally_and_status(monkeypatch, cpus):
    import dataclasses

    import gossez_lab.checks as checks
    from gossez_lab.sampling import rng_for

    # The draws come back through the stats: a worker's memory is its own.
    def failing(cfg, rng, tally):
        for k in range(5):
            tally.record("p", k == 0, {"k": k})
        return (), {"n": 1, "draw": rng.random()}, ()

    def passing(cfg, rng, tally):
        tally.record("p", True)
        return ({"w": 1},), {"draw": rng.random()}, ("note",)

    g_basic, sds_i = checks.CATALOG[0], checks.CATALOG[5]
    assert sds_i.expected_status == "witness-found"
    catalog = (
        dataclasses.replace(g_basic, runner=failing),
        dataclasses.replace(sds_i, runner=passing),
    )
    monkeypatch.setattr(checks, "CATALOG", catalog)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
    failed, found = checks.run_checks(checks.CheckConfig(seed=5)).results
    draws = [rng_for(5, "g-basic").random(), rng_for(5, "sds-i").random()]
    assert [failed.stats["draw"], found.stats["draw"]] == draws
    assert (failed.status, failed.passed) == ("refuted", False)
    assert failed.stats == {
        "n": 1,
        "draw": draws[0],
        "failures": [{"property": "p", "k": k} for k in (1, 2, 3)],
    }
    assert (found.status, found.passed) == ("witness-found", True)
    assert found.stats == {"draw": draws[1], "failures": []}
    assert found.witnesses == ({"w": 1},) and found.notes == ("note",)


# ------------------------------------------------------------ worker pool


def _pid_runner(cfg, rng, tally):
    tally.record("p", True)
    return (), {"pid": os.getpid()}, ()


def assert_gone(pids) -> None:
    """No process has these ids: each worker has exited and been reaped."""
    import multiprocessing

    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # signal 0 only asks whether the process exists
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "cpus, checks_run, fork, threads, in_workers",
    [
        (1, 8, True, 1, False),
        (2, 8, True, 1, True),
        (64, 8, True, 1, True),
        (64, 1, True, 1, False),
        (2, 8, False, 1, False),
        (2, 8, True, 2, False),
    ],
)
def test_checks_run_in_forked_workers_given_two_cpus_and_two_checks(
    monkeypatch, cpus, checks_run, fork, threads, in_workers
):
    import multiprocessing

    import gossez_lab.checks as checks

    catalog = tuple(dataclasses.replace(spec, runner=_pid_runner) for spec in CATALOG)
    monkeypatch.setattr(checks, "CATALOG", catalog)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    names = tuple(spec.name for spec in catalog[:checks_run])
    release = threading.Event()
    others = [threading.Thread(target=release.wait) for _ in range(threads - 1)]
    for thread in others:
        thread.start()
    try:
        report = checks.run_checks(CheckConfig(checks=names))
    finally:
        release.set()
        for thread in others:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in others)
    assert [r.name for r in report.results] == list(names)
    pids = {r.stats["pid"] for r in report.results}
    if in_workers:
        assert os.getpid() not in pids and len(pids) <= min(cpus, checks_run)
        assert_gone(pids)
    else:
        assert pids == {os.getpid()}


def test_usable_cpus_is_this_process_affinity():
    import gossez_lab.checks as checks

    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert checks._usable_cpus() == expected >= 1


@pytest.mark.parametrize(
    "config, digest",
    [
        (CheckConfig(seed=0), DEFAULT_REPORT_SHA256),
        (CheckConfig(seed=0, truncation=128, trials=200), WIDE_WINDOW_REPORT_SHA256),
    ],
    ids=["default", "wide-window"],
)
def test_pool_and_in_process_reports_are_byte_identical(monkeypatch, config, digest):
    import gossez_lab.checks as checks

    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
        reports.append(run_checks(config))
    in_process, pooled = reports
    assert hashlib.sha256(emit(pooled, "json")).hexdigest() == digest
    for fmt in ("json", "csv", "md"):
        assert emit(pooled, fmt) == emit(in_process, fmt)


def test_a_fault_in_a_worker_is_one_internal_error_line(monkeypatch, capsys):
    import multiprocessing

    import gossez_lab.checks as checks

    def crash(config, rng, tally):
        raise RuntimeError("kernel exploded")

    broken = dataclasses.replace(checks.CATALOG[3], runner=crash)
    monkeypatch.setattr(checks, "CATALOG", checks.CATALOG[:3] + (broken,) + checks.CATALOG[4:])
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 2)
    argv = ["run", "--checks", f"g-orth,{broken.name},sds-i", "--trials", "4"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: kernel exploded\n"
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_run_checks(monkeypatch):
    import gossez_lab.checks as checks

    def crash(config, rng, tally):
        raise RuntimeError(f"pid {os.getpid()}")

    catalog = tuple(dataclasses.replace(spec, runner=_pid_runner) for spec in CATALOG)
    monkeypatch.setattr(checks, "CATALOG", catalog)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 2)
    report = run_checks(CheckConfig(checks=("g-basic", "g-orth", "gstar")))
    assert_gone({r.stats["pid"] for r in report.results})

    monkeypatch.setattr(checks, "CATALOG", (dataclasses.replace(catalog[0], runner=crash),) + catalog[1:])
    with pytest.raises(RuntimeError, match=r"pid \d+") as raised:
        run_checks(CheckConfig(checks=("g-basic", "g-orth", "gstar")))
    assert_gone({int(str(raised.value).split()[1])})


def test_importing_the_lab_leaves_multiprocessing_unimported():
    probe = "import sys, gossez_lab; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gossez_lab.cli", "list"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "dichotomy" in result.stdout


def test_cli_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    import dataclasses

    import gossez_lab.checks as checks

    def crash(config, rng, tally):
        raise RuntimeError("kernel exploded")

    broken = dataclasses.replace(checks.CATALOG[3], runner=crash)
    monkeypatch.setattr(checks, "CATALOG", checks.CATALOG[:3] + (broken,) + checks.CATALOG[4:])
    assert main(["run", "--checks", broken.name, "--trials", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: kernel exploded\n"


def test_cli_emit_fault_is_an_internal_error(monkeypatch, capsys, tmp_path):
    import dataclasses

    import gossez_lab.checks as checks

    def float_stat(config, rng, tally):
        tally.record("p", True)
        return (), {"ratio": 0.5}, ()  # a finite float is not exact

    broken = dataclasses.replace(checks.CATALOG[0], runner=float_stat)
    monkeypatch.setattr(checks, "CATALOG", (broken,) + checks.CATALOG[1:])
    out = tmp_path / "report.json"
    for argv in ([], ["--out", str(out)]):
        assert main(["run", "--checks", broken.name, *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: TypeError: ")
        assert captured.err.count("\n") == 1
    assert not out.exists()


def test_package_runs_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "gossez_lab", "list"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "dichotomy" in result.stdout
