"""Scenario files: JSON descriptions of workflows built from fixed steps.

A scenario carries an input value, an optional trust level and a workflow
tree. Leaves use a small vocabulary of built-in value functions, so a
scenario cannot smuggle arbitrary code; it stays inside the pure algebra.

Top level::

    {"input": <json value>, "trust": "agent", "policy": "policy.json",
     "workflow": <node>}

``trust`` defaults to agent. ``policy`` is an optional reference to a
policy file, resolved relative to the scenario's own location by whoever
loads it; an explicitly supplied policy always wins over the reference.

Nodes (single-key objects)::

    {"step":    {"name": "...", "fn": <valuefn>}}
    {"emit":    {"name": "...", "kind": "email.send", "phase": "execute",
                 "params": {"to": <valuefn>, ...}}}
    {"seq":     [<node>, ...]}      non-empty; one Seq node over all parts
    {"branch":  {"when": <valuefn>, "then": <node>, "else": <node>}}
    {"iterate": {"over": <valuefn>, "body": <node>}}

Value functions, evaluated against the node's current value::

    {"op": "const", "value": <json>}          that constant
    {"op": "input"}                            the current value
    {"op": "select-field", "field": "k"}       current["k"]
    {"op": "encode-url", "base": "http://h/p", "param": "q"}
                                               base?q=<urlencoded current>
    {"op": "concat", "parts": [<valuefn>...]}  string concatenation
    {"op": "eq", "left": <valuefn>, "right": <valuefn>}   equality test

A document nested deeper than MAX_DEPTH objects and arrays, counting the
top-level object as 1, is refused before anything is compiled. That
bounds the recursion of compiling, running and comparing (``eq``) values,
so a loaded scenario cannot run out of stack part-way through its effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable
from urllib.parse import quote

from .directives import (
    DirectiveError,
    JSON_ERRORS,
    Phase,
    TrustLevel,
    check_fields,
    load_json,
    phase_from_wire,
    trust_from_wire,
)
from .workflow import (
    Branch,
    Emit,
    Iterate,
    PureStep,
    Workflow,
    WorkflowError,
    seq,
)

Value = Any
ValueFn = Callable[[Value], Value]

MAX_DEPTH = 64


class ScenarioError(ValueError):
    """A scenario document failed validation; messages carry a path."""


@dataclass(frozen=True)
class Scenario:
    workflow: Workflow
    input: Value
    trust: TrustLevel
    policy_ref: str | None = None


def _as_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    raise WorkflowError(f"cannot render {type(value).__name__} as text")


def _require_str(obj: dict, field: str, where: str) -> str:
    value = obj.get(field)
    if not isinstance(value, str):
        raise ScenarioError(f"{where}: {field!r} must be a string")
    return value


def _compile_valuefn(form, where: str) -> ValueFn:
    if not isinstance(form, dict) or not isinstance(form.get("op"), str):
        raise ScenarioError(f"{where}: expected an object with an 'op' field")
    op = form["op"]

    if op == "const":
        check_fields(form, {"op", "value"}, set(), where, ScenarioError)
        constant = form["value"]
        return lambda value: constant

    if op == "input":
        check_fields(form, {"op"}, set(), where, ScenarioError)
        return lambda value: value

    if op == "select-field":
        check_fields(form, {"op", "field"}, set(), where, ScenarioError)
        field = _require_str(form, "field", where)

        def select(value):
            if not isinstance(value, dict) or field not in value:
                raise WorkflowError(f"select-field: no field {field!r} in current value")
            return value[field]

        return select

    if op == "encode-url":
        check_fields(form, {"op", "base", "param"}, set(), where, ScenarioError)
        base = _require_str(form, "base", where)
        param = _require_str(form, "param", where)
        return lambda value: f"{base}?{param}={quote(_as_text(value), safe='')}"

    if op == "concat":
        check_fields(form, {"op", "parts"}, set(), where, ScenarioError)
        parts = form["parts"]
        if not isinstance(parts, list):
            raise ScenarioError(f"{where}: 'parts' must be a list")
        fns = [
            _compile_valuefn(part, f"{where}.parts[{index}]")
            for index, part in enumerate(parts)
        ]
        return lambda value: "".join(_as_text(fn(value)) for fn in fns)

    if op == "eq":
        check_fields(form, {"op", "left", "right"}, set(), where, ScenarioError)
        left = _compile_valuefn(form["left"], f"{where}.left")
        right = _compile_valuefn(form["right"], f"{where}.right")
        return lambda value: left(value) == right(value)

    raise ScenarioError(f"{where}: unknown op {op!r}")


def _compile_node(node, where: str) -> Workflow:
    if not isinstance(node, dict) or len(node) != 1:
        raise ScenarioError(f"{where}: a node must be a single-key object")
    node_type, body = next(iter(node.items()))

    if node_type == "step":
        check_fields(body, {"name", "fn"}, set(), f"{where}.step", ScenarioError)
        name = _require_str(body, "name", f"{where}.step")
        fn = _compile_valuefn(body["fn"], f"{where}.step.fn")
        return PureStep(name=name, fn=fn)

    if node_type == "emit":
        check_fields(body, {"name", "kind", "params"}, {"phase"}, f"{where}.emit", ScenarioError)
        params_form = body["params"]
        if not isinstance(params_form, dict):
            raise ScenarioError(f"{where}.emit: 'params' must be an object")
        param_fns = {
            key: _compile_valuefn(fn_form, f"{where}.emit.params.{key}")
            for key, fn_form in params_form.items()
        }

        def params_fn(value):
            return {key: fn(value) for key, fn in param_fns.items()}

        # The emit checks its own name, kind and phase when built.
        try:
            phase = phase_from_wire(body.get("phase", Phase.EXECUTE.value))
            return Emit(name=body["name"], kind=body["kind"], phase=phase, params_fn=params_fn)
        except DirectiveError as exc:
            raise ScenarioError(f"{where}.emit: {exc}") from None

    if node_type == "seq":
        if not isinstance(body, list) or not body:
            raise ScenarioError(f"{where}.seq: must be a non-empty list")
        return seq(
            *[_compile_node(part, f"{where}.seq[{index}]") for index, part in enumerate(body)]
        )

    if node_type == "branch":
        check_fields(body, {"when", "then", "else"}, set(), f"{where}.branch", ScenarioError)
        predicate = _compile_valuefn(body["when"], f"{where}.branch.when")
        return Branch(
            predicate=predicate,
            then_arm=_compile_node(body["then"], f"{where}.branch.then"),
            else_arm=_compile_node(body["else"], f"{where}.branch.else"),
        )

    if node_type == "iterate":
        check_fields(body, {"over", "body"}, set(), f"{where}.iterate", ScenarioError)
        items_fn = _compile_valuefn(body["over"], f"{where}.iterate.over")
        return Iterate(
            body=_compile_node(body["body"], f"{where}.iterate.body"), items_fn=items_fn
        )

    raise ScenarioError(f"{where}: unknown node type {node_type!r}")


def _check_depth(document: dict) -> None:
    """Refuse containers nested past MAX_DEPTH, one level at a time.

    Exact type tests suffice because the JSON decoder builds plain dicts
    and lists, and they cost half what isinstance does here.
    """
    level = [document]
    for _ in range(MAX_DEPTH):
        level = [
            child
            for node in level
            for child in (node.values() if type(node) is dict else node)
            if type(child) in (dict, list)
        ]
        if not level:
            return
    raise ScenarioError(f"scenario: nested deeper than {MAX_DEPTH} levels")


def load_scenario(document: bytes | str) -> Scenario:
    try:
        obj = load_json(document)
    except JSON_ERRORS as exc:
        raise ScenarioError(f"scenario document is not valid JSON: {exc}") from None
    check_fields(obj, {"input", "workflow"}, {"trust", "policy"}, "scenario", ScenarioError)
    _check_depth(obj)
    try:
        trust = trust_from_wire(obj.get("trust", TrustLevel.AGENT.wire_name))
    except ValueError as exc:
        raise ScenarioError(f"scenario: {exc}") from None
    policy_ref = obj.get("policy")
    if policy_ref is not None and not isinstance(policy_ref, str):
        raise ScenarioError("scenario: 'policy' must be a string path")
    workflow = _compile_node(obj["workflow"], "workflow")
    return Scenario(workflow=workflow, input=obj["input"], trust=trust, policy_ref=policy_ref)
