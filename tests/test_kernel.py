"""Decision pipeline and the issue boundary."""

import dataclasses
import itertools
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from effectgov import (
    Chain,
    ChainIntegrityError,
    DecisionReason,
    DirectiveError,
    EMPTY_POLICY,
    ExecStatus,
    GovernanceKernel,
    HandlerRegistry,
    Phase,
    Policy,
    PolicyRule,
    TrustLevel,
    Verdict,
    decide,
    import_chain,
    seeded_world,
    standard_registry,
)
from effectgov.analysis import enumerate_directive_space
from effectgov.decisions import DENY_NO_CAPABILITY, Decision, decision_from_obj
from effectgov.directives import make_directive
from effectgov.kernel import ExecutionOutcome
from effectgov.provenance import ZERO_DIGEST

from support import fresh_kernel, random_policy, relink, valid_params_for


def reference_decision(rule, directive):
    """Independent statement of the three-check pipeline, for the grid oracle."""
    if rule is None:
        return ("deny", "no_capability")
    if directive.trust.value < rule.min_trust.value:
        return ("deny", "insufficient_trust")
    if directive.phase not in rule.allowed_phases:
        return ("deny", "phase_violation")
    return ("allow", "granted")


def directive_for(kind, trust, phase, id=1):
    return make_directive(kind, valid_params_for(kind, random.Random(0)), "step", trust, phase, id)


def email_rule(min_trust=TrustLevel.AGENT, phases=(Phase.EXECUTE,)):
    return PolicyRule(capability="email.send", min_trust=min_trust,
                      allowed_phases=frozenset(phases))


def test_decide_grid_against_reference():
    # Every combination of rule floor, rule phases, directive trust,
    # directive phase and coverage, checked cell by cell.
    nonempty_phase_sets = [
        frozenset(combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations(Phase, size)
    ]
    for min_trust, phases, covered in itertools.product(
        TrustLevel, nonempty_phase_sets, (False, True)
    ):
        rule = email_rule(min_trust, phases) if covered else None
        policy = Policy.from_rules([rule] if rule else [])
        for directive in enumerate_directive_space(["email.send"]):
            decision = decide(policy, directive)
            assert (decision.verdict.value, decision.reason.value) == reference_decision(
                rule, directive
            ), (min_trust, phases, directive.trust, directive.phase, covered)


def test_decide_examples():
    policy = Policy.from_rules([email_rule()])
    allowed = decide(policy, directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE))
    assert allowed.verdict is Verdict.ALLOW and allowed.reason is DecisionReason.GRANTED

    uncovered = decide(policy, directive_for("web.browse", TrustLevel.AGENT, Phase.EXECUTE))
    assert uncovered.reason is DecisionReason.NO_CAPABILITY

    floor = Policy.from_rules([email_rule(min_trust=TrustLevel.OPERATOR)])
    low = decide(floor, directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE))
    assert low.reason is DecisionReason.INSUFFICIENT_TRUST

    wrong_phase = decide(policy, directive_for("email.send", TrustLevel.AGENT, Phase.PLAN))
    assert wrong_phase.reason is DecisionReason.PHASE_VIOLATION


def test_decision_allow_iff_granted():
    assert [(decision.verdict, decision.reason) for decision in Decision] == [
        (Verdict.ALLOW, DecisionReason.GRANTED),
        (Verdict.DENY, DecisionReason.NO_CAPABILITY),
        (Verdict.DENY, DecisionReason.INSUFFICIENT_TRUST),
        (Verdict.DENY, DecisionReason.PHASE_VIOLATION),
    ]
    for decision in Decision:
        assert (decision.verdict is Verdict.ALLOW) == (decision.reason is DecisionReason.GRANTED)
    for verdict, reason in [("allow", "no_capability"), ("deny", "granted")]:
        with pytest.raises(ValueError, match="verdict and reason"):
            decision_from_obj({"verdict": verdict, "reason": reason})


@given(
    kind=st.sampled_from(["email.send", "db.query", "web.browse", "other.cap"]),
    trust=st.sampled_from(list(TrustLevel)),
    phase=st.sampled_from(list(Phase)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=300)
def test_decide_total_and_pure(kind, trust, phase, seed):
    policy = random_policy(random.Random(seed), ["email.send", "db.query", "web.browse"])
    directive = make_directive(kind, {}, "s", trust, phase, 1)
    first = decide(policy, directive)
    assert isinstance(first, Decision)
    assert decide(policy, directive) == first


def test_decide_consults_no_world_or_chain():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    before_world = kernel.world.snapshot_bytes()
    for _ in range(10):
        decide(kernel.policy, directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE))
    assert len(kernel.chain) == 0
    assert kernel.world.snapshot_bytes() == before_world


def test_submit_allowed_email():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step1",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.performed
    assert outcome.result == "sent"
    assert len(kernel.world.outbox) == 1
    assert len(kernel.chain) == 1
    assert kernel.chain.records[0].exec_status is ExecStatus.EXECUTED


def test_execution_outcome_keeps_its_dataclass_behaviour():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step1",
                           TrustLevel.AGENT, Phase.EXECUTE)
    record = outcome.record
    assert repr(outcome) == f"ExecutionOutcome(record={record!r}, result='sent', error=None)"
    assert outcome == ExecutionOutcome(record, "sent")
    assert outcome == ExecutionOutcome(record=record, result="sent", error=None)
    assert outcome != ExecutionOutcome(record, "sent", "boom")
    failed = dataclasses.replace(outcome, result=None, error="boom")
    assert (failed.record, failed.result, failed.error) == (record, None, "boom")
    assert dataclasses.replace(failed, result="sent", error=None) == outcome
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.result = "other"


def test_submit_denied_browse_leaves_world_unchanged():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    before = kernel.world.snapshot_bytes()
    outcome = kernel.issue("web.browse", {"url": "http://x/?q=SECRET"}, "step3",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert not outcome.performed
    assert outcome.denial_reason is DecisionReason.NO_CAPABILITY
    assert kernel.world.snapshot_bytes() == before
    assert len(kernel.chain) == 1
    record = kernel.chain.records[0]
    assert record.decision.verdict is Verdict.DENY
    assert record.exec_status is ExecStatus.SKIPPED


def test_thousand_submissions_counted_both_sides():
    rng = random.Random(7)
    kernel = fresh_kernel(random_policy(rng))
    for index in range(1000):
        kind = rng.choice(["email.send", "db.query", "web.browse"])
        kernel.issue(kind, valid_params_for(kind, rng), f"s{index}",
                     rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
    records = kernel.chain.records
    assert len(records) == 1000
    allows = [r for r in records if r.decision.verdict is Verdict.ALLOW]
    assert kernel.world.mutation_count == len(allows)


def test_allow_without_handler_is_recorded_and_flagged():
    policy = Policy.from_rules([
        PolicyRule(capability="ghost.cap", min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE})),
    ])
    kernel = fresh_kernel(policy)
    before = kernel.world.snapshot_bytes()
    outcome = kernel.issue("ghost.cap", {}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    # decide() said allow; execution found nothing behind the grant.
    assert outcome.decision.verdict is Verdict.ALLOW
    assert outcome.exec_status is ExecStatus.HANDLER_MISSING
    assert not outcome.performed
    assert outcome.denial_reason is DecisionReason.NO_CAPABILITY
    assert kernel.theater_directive_ids == (1,)
    record = kernel.chain.records[0]
    assert record.exec_status is ExecStatus.HANDLER_MISSING
    assert record.result_digest == b"\x00" * 32
    assert kernel.world.snapshot_bytes() == before


def test_handler_failure_recorded_and_run_continues():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    failed = kernel.issue("email.send", {"body": "no recipient"}, "step",
                          TrustLevel.AGENT, Phase.EXECUTE)
    assert failed.exec_status is ExecStatus.FAILED
    assert failed.result is None
    assert "to" in failed.error
    assert len(kernel.world.outbox) == 0
    ok = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                      TrustLevel.AGENT, Phase.EXECUTE)
    assert ok.performed
    assert len(kernel.chain) == 2


def test_non_scalar_handler_result_is_a_failure():
    registry = HandlerRegistry({"odd.cap": lambda world, directive: ["not", "scalar"]})
    policy = Policy.from_rules([
        PolicyRule(capability="odd.cap", min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE})),
    ])
    kernel = GovernanceKernel(policy, registry, seeded_world())
    outcome = kernel.issue("odd.cap", {}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.exec_status is ExecStatus.FAILED
    assert "non-scalar" in outcome.error


@pytest.mark.parametrize("result", [10**5000, "\ud800"], ids=["huge_int", "lone_surrogate"])
def test_unencodable_handler_result_still_gets_its_record(result):
    # The effect has already run when the result is digested, so a result
    # with no canonical encoding is a failure with a record, not an escape.
    effects = []

    def handler(world, directive):
        effects.append(directive.id)
        return result

    registry = HandlerRegistry({"odd.cap": handler})
    policy = Policy.from_rules([
        PolicyRule(capability="odd.cap", min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE})),
    ])
    kernel = GovernanceKernel(policy, registry, seeded_world())
    outcome = kernel.issue("odd.cap", {}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert effects == [1]
    assert outcome.exec_status is ExecStatus.FAILED
    assert outcome.result is None
    assert outcome.error.startswith("DirectiveError: value has no canonical encoding")
    assert len(kernel.chain) == 1
    assert kernel.chain.records[0].result_digest == bytes(32)
    assert kernel.chain.verify().valid


def test_registry_rejects_duplicates_and_reports_capabilities():
    registry = standard_registry()
    assert registry.capabilities() == {"email.send", "db.query", "web.browse"}
    with pytest.raises(ValueError, match="already"):
        registry.register("email.send", lambda world, directive: "x")


def test_all_deny_run_is_inert():
    rng = random.Random(11)
    kernel = fresh_kernel(EMPTY_POLICY)
    before = kernel.world.snapshot_bytes()
    for index in range(200):
        kind = rng.choice(["email.send", "db.query", "web.browse"])
        outcome = kernel.issue(kind, valid_params_for(kind, rng), "s",
                               rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
        assert outcome.decision.verdict is Verdict.DENY
    assert kernel.world.snapshot_bytes() == before
    assert len(kernel.chain) == 200


def test_concurrent_submissions_serialize():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    per_thread = 50

    def worker(tag):
        for index in range(per_thread):
            kernel.issue("email.send", {"to": f"{tag}@example.test", "body": str(index)},
                         f"thread{tag}", TrustLevel.AGENT, Phase.EXECUTE)

    threads = [threading.Thread(target=worker, args=(tag,)) for tag in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    records = kernel.chain.records
    assert len(records) == 8 * per_thread
    assert kernel.chain.verify().valid
    ids = [record.directive.id for record in records]
    assert len(set(ids)) == len(ids)
    journal_ids = sorted(directive_id for _, directive_id in kernel.world.journal)
    assert journal_ids == sorted(ids)


def test_journal_matches_allow_records_random_runs():
    rng = random.Random(23)
    for _ in range(50):
        kernel = fresh_kernel(random_policy(rng))
        for index in range(rng.randint(1, 30)):
            kind = rng.choice(["email.send", "db.query", "web.browse"])
            kernel.issue(kind, valid_params_for(kind, rng), "s",
                         rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
        allow_ids = sorted(
            record.directive.id
            for record in kernel.chain.records
            if record.decision.verdict is Verdict.ALLOW
        )
        journal_ids = sorted(directive_id for _, directive_id in kernel.world.journal)
        assert journal_ids == allow_ids


def test_hostile_handlers_still_get_one_record_each():
    # Handlers that raise arbitrary exceptions, before or after their
    # effect, must neither escape the boundary nor lose a record.
    rng = random.Random(31)
    standard = standard_registry()
    faults = [RuntimeError("boom"), KeyError("missing"), ZeroDivisionError("zero")]
    plan = {}  # directive id -> (when to raise: None, "before" or "after"; fault)

    def hostile(capability):
        real = standard.get(capability)

        def handler(world, directive):
            when, fault = plan[directive.id]
            if when == "before":
                raise fault
            result = real(world, directive)
            if when == "after":
                raise fault
            return result

        return handler

    registry = HandlerRegistry({cap: hostile(cap) for cap in standard.capabilities()})
    kernel = GovernanceKernel(random_policy(rng), registry, seeded_world())
    for directive_id in range(1, 301):
        kind = rng.choice(["email.send", "db.query", "web.browse"])
        when, fault = plan[directive_id] = (rng.choice([None, "before", "after"]),
                                            rng.choice(faults))
        outcome = kernel.issue(kind, valid_params_for(kind, rng), "s",
                               rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
        if outcome.decision.verdict is Verdict.ALLOW and when is not None:
            assert outcome.exec_status is ExecStatus.FAILED
            assert outcome.result is None
            assert outcome.error == f"{type(fault).__name__}: {fault}"

    records = kernel.chain.records
    assert [record.directive.id for record in records] == list(range(1, 301))
    assert kernel.chain.verify().valid
    statuses = {record.directive.id: record.exec_status for record in records}
    assert ExecStatus.EXECUTED in statuses.values()
    # The world journals every effect that ran, whether or not the handler
    # raised afterwards; each such effect has its record.
    effected = sorted(
        directive_id
        for directive_id, status in statuses.items()
        if status is ExecStatus.EXECUTED
        or (status is ExecStatus.FAILED and plan[directive_id][0] == "after")
    )
    journal_ids = sorted(directive_id for _, directive_id in kernel.world.journal)
    assert journal_ids == effected


def test_kernel_resumed_on_a_chain_continues_above_its_highest_id():
    chain = Chain()
    for id in (5, 9):
        chain.append(directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE, id=id),
                     DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
    resumed = import_chain(chain.export())
    # Ids ascend as a chain rule: neither the last id nor one below it goes in.
    exported = resumed.export()
    for id in (9, 2):
        with pytest.raises(ValueError, match=f"directive id {id} is not above the last id 9"):
            resumed.append(directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE, id=id),
                           DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
        assert len(resumed) == 2 and resumed.export() is exported
    # Nor does an import: the same records with ids 5, 9, 2, re-linked.
    lines = chain.export().split(b"\n")[:-1]
    lines.append(lines[0].replace(b'{"id":5,', b'{"id":2,', 1))
    with pytest.raises(ChainIntegrityError) as excinfo:
        import_chain(relink(lines))
    assert excinfo.value.index == 2
    assert import_chain(relink(lines[:2])) == chain

    kernel = GovernanceKernel(Policy.from_rules([email_rule()]), standard_registry(),
                              seeded_world(), chain=resumed)
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.record.directive.id == 10
    assert [record.directive.id for record in kernel.chain.records] == [5, 9, 10]
    assert kernel.chain.verify().valid


def test_an_issue_that_cannot_build_its_directive_uses_up_no_id():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    with pytest.raises(DirectiveError):
        kernel.issue("Not A Kind", {}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert len(kernel.chain) == 0
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.record.directive.id == 1


def test_issue_continues_above_an_append_made_outside_the_kernel():
    kernel = fresh_kernel(Policy.from_rules([email_rule()]))
    kernel.chain.append(directive_for("web.browse", TrustLevel.AGENT, Phase.EXECUTE, id=50),
                        DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.record.directive.id == 51
    assert kernel.chain.verify().valid


def test_resumed_kernel_reports_the_imported_theater_hits():
    policy = Policy.from_rules([
        email_rule(),
        PolicyRule(capability="ghost.cap", min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE})),
    ])
    first = fresh_kernel(policy)
    for kind in ("ghost.cap", "email.send", "ghost.cap"):
        first.issue(kind, {"to": "a@b.c", "body": "hi"}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert first.theater_directive_ids == (1, 3)
    resumed = GovernanceKernel(policy, standard_registry(), seeded_world(),
                               chain=import_chain(first.chain.export()))
    assert resumed.theater_directive_ids == (1, 3)
    resumed.issue("ghost.cap", {}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert resumed.theater_directive_ids == (1, 3, 4)
