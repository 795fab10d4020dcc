"""CLI subcommands and the exit-code contract."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from effectgov import (
    ExecStatus,
    HandlerRegistry,
    bundled_path,
    cli,
    import_chain,
    seeded_world,
    standard_registry,
)
from effectgov.cli import main

from support import disagreeing_status_lines, relink


SCENARIO = str(bundled_path("exfiltration_scenario.json"))
POLICY_EMAIL_DB = str(bundled_path("policy_email_db.json"))
POLICY_ALL = str(bundled_path("policy_all_tools.json"))
POLICY_FILTER = str(bundled_path("policy_email_filter.json"))
MANIFEST = str(bundled_path("capability_manifest.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_exfiltration_scenario(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    code, stdout, _ = run_cli(
        capsys, "run", "--scenario", SCENARIO, "--policy", POLICY_EMAIL_DB, "--out", str(out)
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["records"] == 2
    assert summary["allows"] == 1
    assert summary["denies"] == 1
    assert summary["world"] == {"emails_sent": 0, "db_reads": 1, "urls_fetched": 0}
    assert out.exists()


def test_run_all_tools_policy_exfiltrates_faithfully(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    code, stdout, _ = run_cli(
        capsys, "run", "--scenario", SCENARIO, "--policy", POLICY_ALL, "--out", str(out)
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["denies"] == 0
    assert summary["world"]["urls_fetched"] == 1


def test_run_uses_scenario_policy_reference(tmp_path, capsys):
    # The bundled scenario names its own policy; --policy is optional.
    out = tmp_path / "chain.jsonl"
    code, stdout, _ = run_cli(capsys, "run", "--scenario", SCENARIO, "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["denies"] == 1


def test_run_without_any_policy_is_usage_error(tmp_path, capsys):
    scenario = tmp_path / "bare.json"
    scenario.write_text(json.dumps({
        "input": 1,
        "workflow": {"step": {"name": "s", "fn": {"op": "input"}}},
    }))
    code, _, stderr = run_cli(
        capsys, "run", "--scenario", str(scenario), "--out", str(tmp_path / "c.jsonl")
    )
    assert code == 2
    assert "no policy" in stderr


def test_run_policy_reference_holding_a_nul_is_usage_error(tmp_path, capsys):
    scenario = json.loads(Path(SCENARIO).read_bytes())
    scenario["policy"] = "a\u0000b"
    path = tmp_path / "nul.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "chain.jsonl"
    code, stdout, stderr = run_cli(capsys, "run", "--scenario", str(path), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert stderr.startswith("effectgov: policy ")
    assert "null byte" in stderr
    assert "\0" not in stderr and "a\\x00b" in stderr
    assert not out.exists()


def test_run_policy_reference_holding_a_newline_is_one_line(tmp_path, capsys):
    scenario = json.loads(Path(SCENARIO).read_bytes())
    scenario["policy"] = "x\ny"
    path = tmp_path / "newline.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "chain.jsonl"
    code, stdout, stderr = run_cli(capsys, "run", "--scenario", str(path), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert stderr.startswith(f"effectgov: policy {tmp_path}/x\\x0ay: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "{bad}", "--out", "{out}"],
        ["run", "--scenario", SCENARIO, "--policy", "{bad}", "--out", "{out}"],
        ["run", "--scenario", SCENARIO, "--out", "{bad}/chain.jsonl"],
        ["verify", "{bad}"],
        ["regions", "--capabilities", "{bad}", "--policy", POLICY_ALL],
        ["regions", "--capabilities", MANIFEST, "--policy", "{bad}"],
        ["bench", "--iters", "1", "--warmup", "0", "--out", "{bad}/report.json"],
    ],
    ids=["run-scenario", "run-policy", "run-out", "verify", "regions-capabilities",
         "regions-policy", "bench-out"],
)
def test_a_path_error_echoes_control_characters_escaped(argv, tmp_path, capsys):
    bad = str(tmp_path / "a\nb\x1bc\x7fd")
    argv = [arg.format(bad=bad, out=tmp_path / "chain.jsonl") for arg in argv]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stderr.count("\n") == 1 and stderr.startswith("effectgov: ")
    assert "a\\x0ab\\x1bc\\x7fd" in stderr
    assert not any(ord(char) < 0x20 or 0x7F <= ord(char) < 0xA0 for char in stderr[:-1])


def test_run_human_echoes_the_chain_path_escaped(tmp_path, capsys):
    out = tmp_path / "c\nd.jsonl"
    code, stdout, _ = run_cli(capsys, "run", "--scenario", SCENARIO, "--out", str(out), "--human")
    assert code == 0 and out.exists()
    assert stdout.splitlines()[-1].startswith(f"chain written to {tmp_path}/c\\x0ad.jsonl, tip ")


def test_run_missing_policy_file(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "run", "--scenario", SCENARIO, "--policy", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "chain.jsonl"),
    )
    assert code == 2
    assert "policy" in stderr


def test_verify_chain_from_run(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    run_cli(capsys, "run", "--scenario", SCENARIO, "--policy", POLICY_EMAIL_DB, "--out", str(out))
    code, stdout, _ = run_cli(capsys, "verify", str(out))
    assert code == 0
    assert json.loads(stdout)["valid"] is True


def test_verify_hand_edited_record(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    run_cli(capsys, "run", "--scenario", SCENARIO, "--policy", POLICY_EMAIL_DB, "--out", str(out))
    original = out.read_bytes().split(b"\n")
    # A changed kind, and a denial relabelled allow: no decision pairs
    # allow with no_capability, so that record is a finding too.
    edits = [(b'"web.browse"', b'"web.search"'), (b'"verdict":"deny"', b'"verdict":"allow"')]
    for old, new in edits:
        lines = list(original)
        assert old in lines[1]
        lines[1] = lines[1].replace(old, new, 1)
        out.write_bytes(b"\n".join(lines))
        code, stdout, _ = run_cli(capsys, "verify", str(out))
        assert code == 1
        assert json.loads(stdout) == {"valid": False, "first_bad_index": 1}


def test_verify_empty_file_is_valid(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    code, stdout, _ = run_cli(capsys, "verify", str(empty))
    assert code == 0
    assert json.loads(stdout) == {"valid": True, "records": 0, "tip": "0" * 64}


def test_run_summary_keeps_its_keys_under_both_bundled_policies(tmp_path, capsys):
    # The counts come from one tally of exec statuses; skipped means denied.
    expected = {
        POLICY_EMAIL_DB: dict(allows=1, denies=1, executed=1, output=None,
                              tip="579c710b647256a347c3d8acfb4ecf8183d876fe3889a111e12e8ba107c64232",
                              world={"db_reads": 1, "emails_sent": 0, "urls_fetched": 0}),
        POLICY_ALL: dict(allows=2, denies=0, executed=2, output="fetched",
                         tip="b0309043b9e643211169b0c9896e4a5f73428f6b9d33deb2901d56267b62447a",
                         world={"db_reads": 1, "emails_sent": 0, "urls_fetched": 1}),
    }
    out = tmp_path / "chain.jsonl"
    for policy, values in expected.items():
        code, stdout, _ = run_cli(
            capsys, "run", "--scenario", SCENARIO, "--policy", policy, "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout) == dict(
            values, records=2, failed=0, handler_missing=0, theater_directive_ids=[],
            chain=str(out),
        )


def test_run_and_verify_report_the_same_tip(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    code, stdout, _ = run_cli(capsys, "run", "--scenario", SCENARIO, "--out", str(out))
    assert code == 0
    ran = json.loads(stdout)
    code, stdout, _ = run_cli(capsys, "verify", str(out))
    assert code == 0
    assert json.loads(stdout) == {"valid": True, "records": ran["records"], "tip": ran["tip"]}
    last = json.loads(out.read_bytes().splitlines()[-1])
    assert ran["tip"] == last["this_hash"]


def test_verify_tip_shows_a_dropped_last_line(tmp_path, capsys):
    # Any prefix of a valid chain is valid; only its tip and count give it away.
    out = tmp_path / "chain.jsonl"
    run_cli(capsys, "run", "--scenario", SCENARIO, "--out", str(out))
    prefix = tmp_path / "prefix.jsonl"
    prefix.write_bytes(b"".join(out.read_bytes().splitlines(keepends=True)[:-1]))
    reports = []
    for path in (out, prefix):
        code, stdout, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        reports.append(json.loads(stdout))
    assert reports[1]["records"] == reports[0]["records"] - 1
    assert reports[1]["tip"] != reports[0]["tip"]


def test_verify_exec_status_against_the_decision_is_a_finding(tmp_path, capsys):
    # All three records, then the last alone: allowed, handler_missing and
    # with a result digest.
    chain = tmp_path / "chain.jsonl"
    for start in (0, 2):
        chain.write_bytes(relink(disagreeing_status_lines()[start:]))
        code, stdout, _ = run_cli(capsys, "verify", str(chain))
        assert code == 1
        assert json.loads(stdout) == {"valid": False, "first_bad_index": 0}


def test_verify_human_names_the_broken_rule(tmp_path, capsys):
    # The bundled scenario's chain with its first line repeated: record 1
    # has seq 0. The JSON report stays the index alone.
    out = tmp_path / "chain.jsonl"
    run_cli(capsys, "run", "--scenario", SCENARIO, "--out", str(out))
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(lines[0] + b"".join(lines))
    code, stdout, _ = run_cli(capsys, "verify", str(out), "--human")
    assert code == 1
    assert stdout == "INVALID at record 1: seq 0 is not the record index 1\n"
    code, stdout, _ = run_cli(capsys, "verify", str(out))
    assert code == 1
    assert json.loads(stdout) == {"valid": False, "first_bad_index": 1}


def test_verify_garbage_is_usage_error(tmp_path, capsys):
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_bytes(b"not a chain\n")
    code, _, stderr = run_cli(capsys, "verify", str(garbage))
    assert code == 2
    assert "line 1" in stderr


def test_verify_deeply_nested_json_is_usage_error(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    run_cli(capsys, "run", "--scenario", SCENARIO, "--policy", POLICY_EMAIL_DB, "--out", str(out))
    out.write_bytes(out.read_bytes() + b"[" * 100_000 + b"\n")
    code, _, stderr = run_cli(capsys, "verify", str(out))
    assert code == 2
    assert "line 3" in stderr


def test_regions_flagship_configuration(capsys):
    code, stdout, _ = run_cli(
        capsys, "regions", "--capabilities", MANIFEST, "--policy", POLICY_FILTER
    )
    assert code == 1
    report = json.loads(stdout)
    assert report == {
        "governed": ["email.send"],
        "ungoverned": ["db.query", "web.browse"],
        "theater": ["credit_card.scan"],
        "coterminous": False,
    }


def test_regions_matched_manifests(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "regions", "--capabilities", MANIFEST, "--policy", POLICY_ALL
    )
    assert code == 0
    assert json.loads(stdout)["coterminous"] is True


def test_regions_both_empty(tmp_path, capsys):
    manifest = tmp_path / "caps.json"
    manifest.write_text('{"capabilities": []}')
    policy = tmp_path / "policy.json"
    policy.write_text('{"rules": []}')
    code, stdout, _ = run_cli(capsys, "regions", "--capabilities", str(manifest),
                              "--policy", str(policy))
    assert code == 0
    assert json.loads(stdout)["coterminous"] is True


def test_regions_manifest_entries_are_effect_kinds(tmp_path, capsys):
    # A name no policy capability or handler could have is refused, not
    # reported as ungoverned.
    manifest = tmp_path / "caps.json"
    manifest.write_text('{"capabilities": ["email.send", "Email Send!"]}')
    code, stdout, stderr = run_cli(capsys, "regions", "--capabilities", str(manifest),
                                   "--policy", POLICY_FILTER)
    assert code == 2
    assert stdout == ""
    assert stderr == (f"effectgov: capability manifest {manifest}: effect kind 'Email Send!': "
                      "invalid character 'E' at index 0\n")


def test_simulate_monitor_reports_both_numbers(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate-monitor", "--coverage", "0.99", "--actions", "100",
        "--trials", "20000", "--seed", "7",
    )
    assert code == 0
    report = json.loads(stdout)
    assert abs(report["analytic"] - 0.63397) < 0.0005
    assert abs(report["empirical"] - report["analytic"]) < 0.02


def test_simulate_monitor_full_coverage(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate-monitor", "--coverage", "1.0", "--actions", "500",
        "--trials", "1000", "--seed", "1",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["analytic"] == 0.0
    assert report["empirical"] == 0.0


def test_simulate_monitor_trillion_actions(capsys):
    # One draw per trial: the cost and memory do not grow with --actions.
    code, stdout, _ = run_cli(
        capsys, "simulate-monitor", "--coverage", repr(1 - 1e-12),
        "--actions", str(10**12), "--trials", "20000", "--seed", "5",
    )
    assert code == 0
    report = json.loads(stdout)
    assert abs(report["analytic"] - 0.632) < 0.001
    assert abs(report["empirical"] - report["analytic"]) < 0.02


def test_simulate_monitor_actions_past_the_float_range(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate-monitor", "--coverage", "0.99",
        "--actions", str(10**400), "--trials", "10",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["analytic"] == 1.0
    assert report["empirical"] == 1.0


def test_simulate_monitor_human(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate-monitor", "--coverage", "1.0", "--actions", "10",
        "--trials", "100", "--seed", "3", "--human",
    )
    assert code == 0
    assert stdout == (
        "analytic gap probability 0.000000\n"
        "empirical gap frequency 0.000000 (100 trials, seed 3)\n"
    )


def test_simulate_monitor_zero_trials_is_usage_error(capsys):
    code, _, stderr = run_cli(
        capsys, "simulate-monitor", "--coverage", "0.5", "--actions", "10", "--trials", "0"
    )
    assert code == 2
    assert "trials" in stderr


def test_simulate_monitor_negative_seed_is_usage_error(capsys):
    code, stdout, stderr = run_cli(
        capsys, "simulate-monitor", "--coverage", "0.5", "--actions", "10",
        "--trials", "10", "--seed", "-1",
    )
    assert code == 2
    assert stdout == ""
    assert stderr == "effectgov: seed must be an integer >= 0, got -1\n"


def test_bench_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "bench", "--iters", "10", "--warmup", "2", "--out", str(out),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["governed"]["iterations"] == 10
    assert report["reference_medians_ms"]["governed"] == 0.23
    assert "context" not in report
    assert json.loads(out.read_text()) == report
    assert run_cli(capsys, "bench", "--context-size", "1")[0] == 2


def test_bench_zero_iterations_is_usage_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, stderr = run_cli(capsys, "bench", "--iters", "0", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("effectgov: ") and stderr.count("\n") == 1
    assert not out.exists()


def test_bench_human_and_unwritable_report(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "bench", "--iters", "10", "--warmup", "2", "--human")
    assert code == 0
    assert stdout.startswith("governed median ")
    assert "overhead ratio" in stdout
    missing = tmp_path / "no_such_dir" / "report.json"
    code, _, stderr = run_cli(
        capsys, "bench", "--iters", "10", "--warmup", "2", "--out", str(missing)
    )
    assert code == 2
    assert "cannot write report" in stderr


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    code, stdout, stderr = run_cli(capsys, "verify", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("effectgov: chain ")
    assert stderr.count("\n") == 1


def test_run_human_reports_theater_hits(tmp_path, capsys):
    # credit_card.scan is granted by the filter policy but has no handler.
    scenario = tmp_path / "scan.json"
    scenario.write_text(json.dumps({
        "input": "",
        "workflow": {"emit": {"name": "scan", "kind": "credit_card.scan", "params": {
            "card": {"op": "const", "value": "4111"}}}},
    }))
    code, stdout, _ = run_cli(
        capsys, "run", "--scenario", str(scenario), "--policy", POLICY_FILTER,
        "--out", str(tmp_path / "chain.jsonl"), "--human",
    )
    assert code == 0
    assert "theater configuration hit by directives [1]" in stdout
    code, stdout, _ = run_cli(
        capsys, "run", "--scenario", str(scenario), "--policy", POLICY_FILTER,
        "--out", str(tmp_path / "chain.jsonl"),
    )
    summary = json.loads(stdout)
    assert code == 0
    assert (summary["allows"], summary["denies"], summary["handler_missing"]) == (1, 0, 1)
    assert summary["theater_directive_ids"] == [1]


def test_human_flags(capsys, tmp_path):
    out = tmp_path / "chain.jsonl"
    code, stdout, _ = run_cli(
        capsys, "run", "--scenario", SCENARIO, "--policy", POLICY_EMAIL_DB,
        "--out", str(out), "--human",
    )
    assert code == 0
    assert "records 2" in stdout
    code, stdout, _ = run_cli(
        capsys, "regions", "--capabilities", MANIFEST, "--policy", POLICY_FILTER, "--human"
    )
    assert code == 1
    assert "NOT coterminous" in stdout


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["run", "--scenario", SCENARIO]) == 2


def test_run_long_seq_scenario(tmp_path, capsys):
    # A seq of 3,000 parts is one list node: neither compiling nor running
    # it nests 3,000 deep.
    query = {"emit": {"name": "q", "kind": "db.query", "params": {
        "table": {"op": "const", "value": "users"},
        "select": {"op": "const", "value": "email"},
    }}}
    identity = {"step": {"name": "s", "fn": {"op": "input"}}}
    scenario = tmp_path / "long.json"
    scenario.write_text(json.dumps({
        "input": 1, "workflow": {"seq": [identity, query] * 1_500},
    }))
    out = tmp_path / "chain.jsonl"
    code, stdout, _ = run_cli(
        capsys, "run", "--scenario", str(scenario), "--policy", POLICY_ALL, "--out", str(out)
    )
    assert code == 0
    assert json.loads(stdout)["records"] == 1_500
    assert len(out.read_bytes().splitlines()) == 1_500


def test_run_too_deep_to_read_or_evaluate_is_usage_error(tmp_path, capsys):
    # 600 nested concats: refused by the JSON decoder's stack (CPython
    # 3.10-3.11) or by the scenario nesting bound (3.12+), a usage error.
    fn = '{"op": "concat", "parts": [' * 600 + '{"op": "input"}' + "]}" * 600
    scenario = tmp_path / "deep.json"
    scenario.write_text(
        '{"input": "x", "workflow": {"step": {"name": "s", "fn": ' + fn + "}}}"
    )
    code, _, stderr = run_cli(
        capsys, "run", "--scenario", str(scenario), "--policy", POLICY_ALL,
        "--out", str(tmp_path / "chain.jsonl"),
    )
    assert code == 2
    assert stderr.startswith("effectgov: ") and stderr.count("\n") == 1


def test_run_refuses_a_too_deep_scenario_before_any_effect(tmp_path, capsys, monkeypatch):
    # Unbounded, 340 nested concats would load and compile, then overflow the
    # stack when run, after the emit before them had taken effect.
    worlds = []

    def spy_world():
        worlds.append(seeded_world())
        return worlds[-1]

    monkeypatch.setattr(cli, "seeded_world", spy_world)
    query = {"emit": {"name": "q", "kind": "db.query", "params": {
        "table": {"op": "const", "value": "users"},
        "select": {"op": "const", "value": "email"},
    }}}
    fn = {"op": "input"}
    for _ in range(340):
        fn = {"op": "concat", "parts": [fn]}
    scenario = tmp_path / "deep.json"
    scenario.write_text(json.dumps({
        "input": "x", "workflow": {"seq": [query, {"step": {"name": "s", "fn": fn}}]},
    }))
    out = tmp_path / "chain.jsonl"
    code, _, stderr = run_cli(
        capsys, "run", "--scenario", str(scenario), "--policy", POLICY_ALL, "--out", str(out)
    )
    assert code == 2
    assert stderr.startswith("effectgov: ") and stderr.count("\n") == 1
    assert "nested deeper than 64 levels" in stderr
    assert not out.exists()
    assert all(world.mutation_count == 0 for world in worlds)


def test_failed_run_writes_the_records_already_issued(tmp_path, capsys):
    def query(select):
        return {"emit": {"name": select, "kind": "db.query", "params": {
            "table": {"op": "const", "value": "users"},
            "select": {"op": "const", "value": select},
        }}}

    # The third emit reads a field its input lacks, so it raises at run time.
    send = {"emit": {"name": "send", "kind": "email.send", "params": {
        "to": {"op": "select-field", "field": "missing"},
        "body": {"op": "const", "value": "hi"},
    }}}
    chains = {}
    for name, parts in (("prefix", [query("id"), query("email")]),
                        ("failing", [query("id"), query("email"), send])):
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps({"input": 1, "workflow": {"seq": parts}}))
        chains[name] = tmp_path / f"{name}.jsonl"
        code, _, stderr = run_cli(capsys, "run", "--scenario", str(scenario),
                                  "--policy", POLICY_ALL, "--out", str(chains[name]))
        assert code == (2 if name == "failing" else 0)
    assert stderr.startswith("effectgov: workflow: ") and stderr.count("\n") == 1
    assert run_cli(capsys, "verify", str(chains["failing"]))[0] == 0
    assert chains["failing"].read_bytes() == chains["prefix"].read_bytes()
    assert len(chains["prefix"].read_bytes().splitlines()) == 2
    # When the chain cannot be written either, both faults share the one line.
    code, _, stderr = run_cli(capsys, "run", "--scenario", str(tmp_path / "failing.json"),
                              "--policy", POLICY_ALL, "--out", str(tmp_path / "no" / "c.jsonl"))
    assert code == 2 and stderr.count("\n") == 1
    assert stderr.startswith("effectgov: workflow: ") and "; cannot write chain " in stderr


@pytest.mark.parametrize("exit_type", [KeyboardInterrupt, SystemExit])
def test_run_writes_its_chain_when_a_handler_exit_ends_it(tmp_path, capsys, monkeypatch,
                                                          exit_type):
    # The db query has run when the fetch raises the exit, so its record is
    # written; then the exit goes on, the same object, not a usage error.
    worlds, raised = [], exit_type("stop")

    def spy_world():
        worlds.append(seeded_world())
        return worlds[-1]

    def fetch(world, directive):
        raise raised

    standard = standard_registry()
    handlers = {kind: standard.get(kind) for kind in standard.capabilities()}
    monkeypatch.setattr(cli, "seeded_world", spy_world)
    monkeypatch.setattr(
        cli, "standard_registry", lambda: HandlerRegistry({**handlers, "web.browse": fetch})
    )
    out = tmp_path / "c.jsonl"
    with pytest.raises(exit_type) as excinfo:
        main(["run", "--scenario", SCENARIO, "--policy", POLICY_ALL, "--out", str(out)])
    assert excinfo.value is raised
    assert [kind for kind, _ in worlds[0].journal] == ["db.query"]
    chain = import_chain(out.read_bytes())
    assert [(record.directive.kind, record.exec_status) for record in chain.records] == [
        ("db.query", ExecStatus.EXECUTED), ("web.browse", ExecStatus.FAILED)
    ]
    # A chain that cannot be written is still reported before the exit goes on.
    capsys.readouterr()
    with pytest.raises(exit_type):
        main(["run", "--scenario", SCENARIO, "--policy", POLICY_ALL,
              "--out", str(tmp_path / "no" / "c.jsonl")])
    stderr = capsys.readouterr().err
    assert stderr.startswith("effectgov: cannot write chain ") and stderr.count("\n") == 1


# Documents no reader accepts: not UTF-8, not JSON, past the decoder's
# nesting or int-string limits, or JSON of the wrong shape for every
# document type (policy, scenario, capability manifest, chain record).
HOSTILE_CORPUS = [
    b"\xff\xfe{",
    b'{"rules": "\xc3\x28"}',
    b"[" * 100_000,
    b'{"rules": ' * 100_000,
    b"[" + b"1" * 5_000 + b"]",
    b'{"input": ' + b"9" * 5_000 + b"}",
    b"[]",
    b'"text"',
    b'{"unknown": 1}',
    b"{}",
    b'{"rules": [1]}',
    b'{"capabilities": [1]}',
    b'{"capabilities": ["Email Send!"]}',
    b'{"input": 1, "workflow": {"step": []}}',
    b'{"seq":0,"directive":{"id":1,"issuer":"s","kind":"a.b","params":{},"phase":"plan",'
    b'"required_capability":"a.b","trust":"agent"},'
    b'"decision":{"verdict":"deny","reason":"no_capability"},"exec_status":[],'
    b'"result_digest":"' + b"0" * 64 + b'","prev_hash":"' + b"0" * 64 + b'",'
    b'"this_hash":"' + b"0" * 64 + b'"}\n',
]

# argv for every file-taking argument, given the file and an output path.
FILE_ARGUMENTS = {
    "run --scenario": lambda f, out: ["run", "--scenario", f, "--policy", POLICY_EMAIL_DB,
                                      "--out", out],
    "run --policy": lambda f, out: ["run", "--scenario", SCENARIO, "--policy", f,
                                    "--out", out],
    "verify": lambda f, out: ["verify", f],
    "regions --capabilities": lambda f, out: ["regions", "--capabilities", f,
                                              "--policy", POLICY_FILTER],
    "regions --policy": lambda f, out: ["regions", "--capabilities", MANIFEST,
                                        "--policy", f],
}


@pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig"])
@pytest.mark.parametrize("argument", sorted(FILE_ARGUMENTS))
def test_file_arguments_read_utf8_only(argument, encoding, tmp_path, capsys):
    # Each argument gets the valid document it expects, re-encoded.
    chain = tmp_path / "chain.jsonl"
    assert main(["run", "--scenario", SCENARIO, "--out", str(chain)]) == 0
    valid = {
        "run --scenario": SCENARIO,
        "run --policy": POLICY_EMAIL_DB,
        "verify": str(chain),
        "regions --capabilities": MANIFEST,
        "regions --policy": POLICY_FILTER,
    }[argument]
    path = tmp_path / "input"
    path.write_bytes(Path(valid).read_text(encoding="utf-8").encode(encoding))
    capsys.readouterr()
    code, _, stderr = run_cli(capsys, *FILE_ARGUMENTS[argument](str(path), str(tmp_path / "o")))
    assert code == 2
    assert stderr.startswith("effectgov: ") and stderr.count("\n") == 1


# How each fault makes the path p unreadable; a NUL in its name cannot be
# opened at all.
PATH_FAULTS = {
    "missing": lambda path: None,
    "directory": Path.mkdir,
    "symlink loop": lambda path: os.symlink(path.name, path),
    "NUL": lambda path: None,
}

# The message prefix of each file argument, and of the scenario's reference.
READS = {
    "run --scenario": "scenario",
    "run --policy": "policy",
    "run policy reference": "policy",
    "verify": "chain",
    "regions --capabilities": "capability manifest",
    "regions --policy": "policy",
}


@pytest.mark.parametrize("fault", sorted(PATH_FAULTS))
@pytest.mark.parametrize("argument", sorted(READS))
def test_a_path_that_cannot_be_read_is_usage_error(argument, fault, tmp_path, capsys):
    path = tmp_path / ("p\0" if fault == "NUL" else "p")
    PATH_FAULTS[fault](path)
    out = tmp_path / "chain.jsonl"
    if argument == "run policy reference":
        # A reference is read as joined to the scenario's directory.
        scenario = json.loads(Path(SCENARIO).read_bytes())
        scenario["policy"] = path.name
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        argv = ["run", "--scenario", str(tmp_path / "s.json"), "--out", str(out)]
    else:
        argv = FILE_ARGUMENTS[argument](str(path), str(out))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    shown = str(path).replace("\0", "\\x00")
    assert stderr.startswith(f"effectgov: {READS[argument]} {shown}: ")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    (["run", "--scenario", SCENARIO, "--out", "{out}"], "chain"),
    (["bench", "--iters", "2", "--warmup", "0", "--out", "{out}"], "report"),
], ids=["run", "bench"])
def test_an_out_path_holding_a_nul_is_usage_error(argv, what, tmp_path, capsys):
    out = tmp_path / "o\0ut"
    code, _, stderr = run_cli(capsys, *[arg.format(out=out) for arg in argv])
    assert code == 2
    assert stderr == f"effectgov: cannot write {what} {tmp_path}/o\\x00ut: embedded null byte\n"
    assert not (tmp_path / "o").exists()


def _json_or_none(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return None


@seed(20_261_018)
@settings(max_examples=400, deadline=None)
@given(
    argument=st.sampled_from(sorted(FILE_ARGUMENTS)),
    data=st.one_of(st.sampled_from(HOSTILE_CORPUS), st.binary(max_size=80)),
)
def test_exit_code_is_always_0_1_or_2(argument, data):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        argv = FILE_ARGUMENTS[argument](str(path), str(Path(tmp) / "chain.jsonl"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if argument == "verify":
        # A line that is not JSON, anywhere, is a parse failure; a file of
        # JSON lines that are not a chain is a finding.
        lines = data.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        if lines:
            assert code == (2 if any(_json_or_none(line) is None for line in lines) else 1)
    elif data in HOSTILE_CORPUS or not isinstance(_json_or_none(data), dict):
        assert code == 2
        assert stderr.getvalue().startswith("effectgov: ")
