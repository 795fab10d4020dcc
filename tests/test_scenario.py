"""Scenario files: the built-in step vocabulary and the bundled example."""

import json

import pytest

from effectgov import (
    GovernanceKernel,
    ScenarioError,
    Verdict,
    bundled_data,
    load_policy,
    load_scenario,
    run,
    seeded_world,
    standard_registry,
)
from effectgov.scenario import MAX_DEPTH


def run_scenario(scenario_doc, policy_doc):
    scenario = load_scenario(scenario_doc)
    world = seeded_world()
    kernel = GovernanceKernel(load_policy(policy_doc), standard_registry(), world)
    result = run(scenario.workflow, scenario.input, kernel, trust=scenario.trust)
    return kernel, world, result


def single_step(fn_spec, input_value):
    doc = json.dumps({
        "input": input_value,
        "workflow": {"step": {"name": "s", "fn": fn_spec}},
    })
    scenario = load_scenario(doc)
    kernel = GovernanceKernel(
        load_policy(b'{"rules": []}'), standard_registry(), seeded_world()
    )
    return run(scenario.workflow, scenario.input, kernel).output


def test_const_and_input_ops():
    assert single_step({"op": "const", "value": 42}, "ignored") == 42
    assert single_step({"op": "input"}, "echo") == "echo"


def test_select_field_op():
    assert single_step({"op": "select-field", "field": "k"}, {"k": "v"}) == "v"


def test_encode_url_op():
    out = single_step(
        {"op": "encode-url", "base": "http://h.example/p", "param": "q"}, "a b&c"
    )
    assert out == "http://h.example/p?q=a%20b%26c"


def test_concat_op():
    out = single_step(
        {"op": "concat", "parts": [
            {"op": "const", "value": "n="},
            {"op": "input"},
            {"op": "const", "value": True},
        ]},
        7,
    )
    assert out == "n=7true"


def test_eq_op_drives_branches():
    doc = json.dumps({
        "input": "go",
        "workflow": {"branch": {
            "when": {"op": "eq", "left": {"op": "input"}, "right": {"op": "const", "value": "go"}},
            "then": {"step": {"name": "t", "fn": {"op": "const", "value": "yes"}}},
            "else": {"step": {"name": "e", "fn": {"op": "const", "value": "no"}}},
        }},
    })
    kernel = GovernanceKernel(load_policy(b'{"rules": []}'), standard_registry(), seeded_world())
    scenario = load_scenario(doc)
    assert run(scenario.workflow, scenario.input, kernel).output == "yes"


def test_iterate_node_in_scenario():
    doc = json.dumps({
        "input": None,
        "workflow": {"iterate": {
            "over": {"op": "const", "value": ["a", "b"]},
            "body": {"emit": {"name": "mail", "kind": "email.send", "params": {
                "to": {"op": "concat", "parts": [{"op": "input"}, {"op": "const", "value": "@x.test"}]},
                "body": {"op": "const", "value": "hi"},
            }}},
        }},
    })
    kernel, world, _ = run_scenario(doc, bundled_data("policy_all_tools.json"))
    assert [to for to, _ in world.outbox] == ["a@x.test", "b@x.test"]


def test_bundled_exfiltration_under_agent_tools_policy():
    kernel, world, _ = run_scenario(
        bundled_data("exfiltration_scenario.json"), bundled_data("policy_email_db.json")
    )
    verdicts = [r.decision.verdict for r in kernel.chain.records]
    assert verdicts == [Verdict.ALLOW, Verdict.DENY]
    assert kernel.chain.records[1].directive.kind == "web.browse"
    assert world.http_log == ()


def test_bundled_exfiltration_under_all_tools_policy():
    # A policy that grants everything is enforced just as faithfully: the
    # exfiltration URL lands in the fetch log, visible in provenance.
    kernel, world, _ = run_scenario(
        bundled_data("exfiltration_scenario.json"), bundled_data("policy_all_tools.json")
    )
    assert all(r.decision.verdict is Verdict.ALLOW for r in kernel.chain.records)
    assert len(world.http_log) == 1
    assert world.http_log[0].startswith("http://collect.example/drop?q=")
    assert "FAKE-SECRET-0001" in world.http_log[0]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"workflow": {"step": {"name": "s", "fn": {"op": "input"}}}}, "missing field 'input'"),
        ({"input": 1, "workflow": {"bogus": {}}}, "unknown node type"),
        ({"input": 1, "workflow": {"step": {"name": "s", "fn": {"op": "nope"}}}}, "unknown op"),
        ({"input": 1, "workflow": {"step": {"name": "s", "fn": {"op": "input"}}}, "x": 1},
         "unknown field"),
        ({"input": 1, "workflow": {"seq": []}}, "non-empty"),
        ({"input": 1, "trust": "sudo",
          "workflow": {"step": {"name": "s", "fn": {"op": "input"}}}}, "unknown trust"),
        ({"input": 1, "workflow": {"emit": {"name": "e", "kind": "a.b", "phase": "warp",
                                             "params": {}}}}, "unknown phase"),
        ({"input": 1, "workflow": {"emit": {"name": "e", "kind": "Bad.Kind",
                                             "params": {}}}}, "invalid character"),
    ],
)
def test_strict_scenario_errors(doc, message):
    with pytest.raises(ScenarioError, match=message):
        load_scenario(json.dumps(doc))


def test_error_paths_name_their_location():
    doc = {"input": 1, "workflow": {"seq": [
        {"step": {"name": "ok", "fn": {"op": "input"}}},
        {"emit": {"name": "e", "kind": "a.b",
                  "params": {"p": {"op": "concat", "parts": [{"op": "huh"}]}}}},
    ]}}
    with pytest.raises(ScenarioError, match=r"workflow\.seq\[1\]\.emit\.params\.p\.parts\[0\]"):
        load_scenario(json.dumps(doc))


def test_scenario_not_json():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(b"{nope")


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_load_scenario_reads_bytes_as_utf8_only(encoding):
    document = bundled_data("exfiltration_scenario.json").decode("utf-8").encode(encoding)
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(document)


def test_policy_reference_parsed_and_optional():
    with_ref = load_scenario(bundled_data("exfiltration_scenario.json"))
    assert with_ref.policy_ref == "policy_email_db.json"
    without = load_scenario(json.dumps({
        "input": 1, "workflow": {"step": {"name": "s", "fn": {"op": "input"}}},
    }))
    assert without.policy_ref is None
    with pytest.raises(ScenarioError, match="'policy' must be a string"):
        load_scenario(json.dumps({
            "input": 1, "policy": 7,
            "workflow": {"step": {"name": "s", "fn": {"op": "input"}}},
        }))


def nested_input_scenario(depth):
    """A scenario document nested exactly ``depth`` levels, through its input."""
    value = []
    for _ in range(depth - 2):  # the top-level object and innermost list make two
        value = [value]
    return json.dumps({"input": value, "workflow": {"step": {"name": "s", "fn": {"op": "input"}}}})


def test_nesting_bound_is_exact():
    scenario = load_scenario(nested_input_scenario(MAX_DEPTH))
    kernel = GovernanceKernel(load_policy(b'{"rules": []}'), standard_registry(), seeded_world())
    assert run(scenario.workflow, scenario.input, kernel).output == scenario.input
    with pytest.raises(ScenarioError, match=f"nested deeper than {MAX_DEPTH} levels"):
        load_scenario(nested_input_scenario(MAX_DEPTH + 1))
