"""Decision pipeline and the issue boundary."""

import inspect
import itertools
import os
import random
import sys
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
from effectgov.decisions import ALLOW_GRANTED, DENY_NO_CAPABILITY, Decision, decision_from_obj
from effectgov.directives import Directive
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
    return Directive(id, kind, valid_params_for(kind, random.Random(0)), "step", trust, phase)


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
        policy = Policy([rule] if rule else [])
        for trust, phase in itertools.product(TrustLevel, Phase):
            directive = Directive(1, "email.send", {}, "probe", trust, phase)
            decision = decide(policy, directive)
            assert (decision.verdict.value, decision.reason.value) == reference_decision(
                rule, directive
            ), (min_trust, phases, directive.trust, directive.phase, covered)


def test_decide_examples():
    policy = Policy([email_rule()])
    allowed = decide(policy, directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE))
    assert allowed.verdict is Verdict.ALLOW and allowed.reason is DecisionReason.GRANTED

    uncovered = decide(policy, directive_for("web.browse", TrustLevel.AGENT, Phase.EXECUTE))
    assert uncovered.reason is DecisionReason.NO_CAPABILITY

    floor = Policy([email_rule(min_trust=TrustLevel.OPERATOR)])
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
    directive = Directive(1, kind, {}, "s", trust, phase)
    first = decide(policy, directive)
    assert isinstance(first, Decision)
    assert decide(policy, directive) == first


def test_decide_consults_no_world_or_chain():
    kernel = fresh_kernel(Policy([email_rule()]))
    before_world = kernel.world.snapshot_bytes()
    for _ in range(10):
        decide(kernel.policy, directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE))
    assert len(kernel.chain) == 0
    assert kernel.world.snapshot_bytes() == before_world


def test_submit_allowed_email():
    kernel = fresh_kernel(Policy([email_rule()]))
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step1",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.performed
    assert outcome.result == "sent"
    assert len(kernel.world.outbox) == 1
    assert len(kernel.chain) == 1
    assert kernel.chain.records[0].exec_status is ExecStatus.EXECUTED


@pytest.mark.parametrize("part", ("outcome", "record"))
def test_execution_outcome_is_a_value(part):
    # An outcome and its record are tuples of their fields: built, shown,
    # compared and replaced by them, and never assigned to.
    kernel = fresh_kernel(Policy([email_rule()]))
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step1",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome == ExecutionOutcome(outcome.record, "sent")
    value = outcome if part == "outcome" else outcome.record
    kind = type(value)
    fields = value._asdict()
    shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{kind.__name__}({shown})"
    assert value == kind(*fields.values()) == kind(**fields)
    last = kind._fields[-1]
    changed = value._replace(**{last: "boom"})
    assert changed != value and getattr(changed, last) == "boom"
    assert changed[:-1] == value[:-1]
    assert changed._replace(**{last: fields[last]}) == value
    with pytest.raises(AttributeError):
        setattr(value, last, "other")
    with pytest.raises(AttributeError):
        value.extra = "other"


def test_submit_denied_browse_leaves_world_unchanged():
    kernel = fresh_kernel(Policy([email_rule()]))
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
    policy = Policy([
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
    kernel = fresh_kernel(Policy([email_rule()]))
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
    policy = Policy([
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
    policy = Policy([
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


@pytest.mark.parametrize("exit_type", [SystemExit, KeyboardInterrupt, GeneratorExit])
def test_a_handler_that_raises_an_exit_gets_its_failed_record_and_the_exit_goes_on(exit_type):
    # The world may already have changed when the handler raises, so the
    # issue is recorded before the exit propagates.
    effects = []
    raised = exit_type("stop")

    def handler(world, directive):
        effects.append(directive.id)
        raise raised

    registry = HandlerRegistry({"odd.cap": handler})
    policy = Policy([
        PolicyRule(capability="odd.cap", min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE})),
    ])
    kernel = GovernanceKernel(policy, registry, seeded_world())
    with pytest.raises(exit_type) as excinfo:
        kernel.issue("odd.cap", {"n": 1}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert excinfo.value is raised
    assert effects == [1]
    [record] = kernel.chain.records
    assert (record.directive.id, record.decision, record.exec_status, record.result_digest) == (
        1, ALLOW_GRANTED, ExecStatus.FAILED, ZERO_DIGEST
    )
    assert kernel.chain.verify().valid
    assert import_chain(kernel.chain.export()) == kernel.chain
    # The kernel's lock was let go: the next issue continues the chain.
    kernel.issue("odd.cap", {"n": 2}, "step", TrustLevel.AGENT, Phase.PLAN)
    assert kernel.chain.last_id == 2


def issue_within_10_s(kernel, *args):
    """kernel.issue(*args) in a daemon thread, so a deadlock fails the test, not hangs it."""
    outcomes, errors = [], []

    def issue():
        try:
            outcomes.append(kernel.issue(*args))
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    thread = threading.Thread(target=issue, daemon=True)
    thread.start()
    thread.join(10)
    assert not thread.is_alive(), "the issue deadlocked"
    assert errors == []
    return outcomes[0]


@pytest.mark.parametrize("nested", ["issue_on_own", "issue_on_sharer", "append"])
def test_a_handler_that_reenters_its_boundary_is_refused_and_its_issue_records_failed(nested):
    # The nested call is refused before it builds anything, so it uses no id
    # and leaves no record; the handler sees the refusal as an exception.
    chain, effects, kernels = Chain(), [], []

    def handler(world, directive):
        effects.append(directive.id)
        if nested == "append":
            chain.append(directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE, id=99),
                         DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
        else:
            kernels[1 if nested == "issue_on_sharer" else 0].issue(
                "email.send", {"to": "x"}, "nested", TrustLevel.AGENT, Phase.EXECUTE
            )
        return "done"

    policy = Policy([email_rule()])
    kernels += [GovernanceKernel(policy, HandlerRegistry({"email.send": handler}), None, chain)
                for _ in range(2)]
    outcome = issue_within_10_s(kernels[0], "email.send", {"to": "a"}, "outer",
                                TrustLevel.AGENT, Phase.EXECUTE)
    refused = "append to" if nested == "append" else "issue on"
    assert outcome.error == f"RuntimeError: a handler cannot {refused} the chain it is recorded in"
    assert effects == [1]
    [record] = chain.records
    assert record is outcome.record
    assert (record.directive.id, record.exec_status) == (1, ExecStatus.FAILED)
    assert chain.verify().valid
    # The refusal lasts only while the handler runs: an issue and a plain
    # append after it go on from id 1.
    kernels[1].issue("email.send", {"to": "b"}, "next", TrustLevel.AGENT, Phase.PLAN)
    chain.append(directive_for("email.send", TrustLevel.AGENT, Phase.EXECUTE, id=3),
                 DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
    assert [record.directive.id for record in chain.records] == [1, 2, 3]


def test_a_handler_may_catch_the_refusal_and_its_issue_executes():
    kernel = None

    def handler(world, directive):
        try:
            kernel.issue("email.send", {"to": "x"}, "nested", TrustLevel.AGENT, Phase.EXECUTE)
        except RuntimeError:
            return "refused"
        return "nested issue ran"

    kernel = GovernanceKernel(Policy([email_rule()]), HandlerRegistry({"email.send": handler}),
                              None)
    outcome = issue_within_10_s(kernel, "email.send", {"to": "a"}, "outer",
                                TrustLevel.AGENT, Phase.EXECUTE)
    assert (outcome.exec_status, outcome.result) == (ExecStatus.EXECUTED, "refused")
    assert [record.directive.id for record in kernel.chain.records] == [1]


def test_an_exit_between_the_digest_and_the_status_records_failed_with_no_digest():
    # A trace function that raises makes the exception arrive at that line
    # of issue, as a signal's KeyboardInterrupt may: the digest is computed,
    # and the status not yet executed.
    kernel = fresh_kernel(Policy([email_rule()]))
    code = GovernanceKernel.issue.__code__
    lines, start = inspect.getsourcelines(code)
    [target] = [start + offset for offset, line in enumerate(lines)
                if line.strip() == "status = _EXECUTED"]
    raised = KeyboardInterrupt("late")

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == target:
            raise raised
        return trace

    sys.settrace(trace)
    try:
        with pytest.raises(KeyboardInterrupt) as excinfo:
            kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                         TrustLevel.AGENT, Phase.EXECUTE)
    finally:
        sys.settrace(None)
    assert excinfo.value is raised
    assert len(kernel.world.outbox) == 1
    [record] = kernel.chain.records
    assert (record.exec_status, record.result_digest) == (ExecStatus.FAILED, ZERO_DIGEST)
    assert kernel.chain.verify().valid


def test_registry_is_fixed_when_built_and_reports_capabilities():
    registry = standard_registry()
    assert registry.capabilities() == {"email.send", "db.query", "web.browse"}
    assert [name for name in dir(registry) if not name.startswith("_")] == [
        "capabilities", "get",
    ]
    handlers = {"email.send": lambda world, directive: "x"}
    built = HandlerRegistry(handlers)
    handlers["shell.exec"] = lambda world, directive: "y"
    assert built.capabilities() == {"email.send"}
    assert built.get("shell.exec") is None


def test_registry_refuses_a_non_callable_handler_or_a_bad_kind():
    with pytest.raises(TypeError, match="handler for 'email.send' is not callable"):
        HandlerRegistry({"email.send": "not a function"})
    with pytest.raises(DirectiveError):
        HandlerRegistry({"Email Send": lambda world, directive: "x"})


def test_two_kernels_on_one_chain_keep_one_record_per_issue():
    # Kernel 1's handler blocks mid-issue while kernel 2 issues on the same
    # chain. Kernel 2 must wait for kernel 1's append, not take its id.
    entered, release = threading.Event(), threading.Event()

    def blocking(world, directive):
        entered.set()
        assert release.wait(10)
        return "slow"

    chain = Chain()
    policy = Policy([email_rule()])
    first = GovernanceKernel(policy, HandlerRegistry({"email.send": blocking}), None, chain)
    second = GovernanceKernel(
        policy, HandlerRegistry({"email.send": lambda world, directive: "fast"}), None, chain
    )
    outcomes, errors = {}, []

    def issue(kernel, tag):
        try:
            outcomes[tag] = kernel.issue("email.send", {"to": tag}, tag,
                                         TrustLevel.AGENT, Phase.EXECUTE)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    one = threading.Thread(target=issue, args=(first, "one"))
    one.start()
    assert entered.wait(10)
    two = threading.Thread(target=issue, args=(second, "two"))
    two.start()
    two.join(0.5)
    waited = two.is_alive()
    release.set()
    one.join(10)
    two.join(10)
    assert not one.is_alive() and not two.is_alive()
    assert waited, "kernel 2 appended while kernel 1's issue was in flight"
    assert errors == []
    assert [record.directive.id for record in chain.records] == [1, 2]
    assert outcomes["one"].record is chain.records[0]
    assert outcomes["two"].record is chain.records[1]
    assert outcomes["one"].result == "slow" and outcomes["two"].result == "fast"
    assert chain.verify().valid


def test_kernels_sharing_a_chain_keep_every_record_under_thread_stress():
    chain, world = Chain(), seeded_world()
    policy = Policy([email_rule()])
    kernels = [GovernanceKernel(policy, standard_registry(), world, chain) for _ in range(2)]
    workers, per_worker = 2 * (os.cpu_count() or 1) + 2, 300
    errors = []

    def worker(tag):
        try:
            for index in range(per_worker):
                kernels[tag % 2].issue("email.send", {"to": f"{tag}@example.test",
                                                      "body": str(index)},
                                       f"thread{tag}", TrustLevel.AGENT, Phase.EXECUTE)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tag,)) for tag in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(world.outbox) == len(chain) == workers * per_worker
    ids = [record.directive.id for record in chain.records]
    assert ids == list(range(1, len(ids) + 1))
    assert [directive_id for _, directive_id in world.journal] == ids
    assert chain.verify().valid


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
    kernel = fresh_kernel(Policy([email_rule()]))
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

    kernel = GovernanceKernel(Policy([email_rule()]), standard_registry(),
                              seeded_world(), chain=resumed)
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.record.directive.id == 10
    assert [record.directive.id for record in kernel.chain.records] == [5, 9, 10]
    assert kernel.chain.verify().valid


def test_an_issue_that_cannot_build_its_directive_uses_up_no_id():
    kernel = fresh_kernel(Policy([email_rule()]))
    with pytest.raises(DirectiveError):
        kernel.issue("Not A Kind", {}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert len(kernel.chain) == 0
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.record.directive.id == 1


def test_issue_continues_above_an_append_made_outside_the_kernel():
    kernel = fresh_kernel(Policy([email_rule()]))
    kernel.chain.append(directive_for("web.browse", TrustLevel.AGENT, Phase.EXECUTE, id=50),
                        DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
    outcome = kernel.issue("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                           TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.record.directive.id == 51
    assert kernel.chain.verify().valid


def test_resumed_kernel_reports_the_imported_theater_hits():
    policy = Policy([
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
