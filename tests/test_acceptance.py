"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and runtime budgets are pinned here; nothing is deferred
to later calibration.
"""

import json
import math
import random
import threading
import time
from contextlib import contextmanager

from effectgov import (
    Chain,
    ChainFormatError,
    ChainIntegrityError,
    EMPTY_POLICY,
    ExecStatus,
    GovernanceKernel,
    HandlerRegistry,
    Phase,
    Policy,
    PolicyRule,
    TrustLevel,
    Verdict,
    bench_governed_vs_direct,
    bundled_path,
    decide,
    gap_probability,
    import_chain,
    layered_cost,
    run,
    seeded_world,
    simulate_monitor,
    standard_registry,
)
from effectgov.bench import REFERENCE_MEDIANS_MS
from effectgov.cli import main as cli_main
from effectgov.decisions import DENY_NO_CAPABILITY
from effectgov.directives import Directive
from effectgov.provenance import ZERO_DIGEST

from support import (
    SIM_KINDS,
    fresh_kernel,
    random_input,
    random_policy,
    random_workflow,
    record_essence,
    valid_params_for,
)


@contextmanager
def criterion(number: int, title: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        if budget_seconds is not None:
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
            )
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_gap_probability_analytic():
    with criterion(1, "coverage compounding, analytic", budget_seconds=1.0):
        assert abs(gap_probability(0.99, 100) - 0.63397) <= 0.0005
        assert abs(gap_probability(0.99, 1000) - 0.99996) <= 0.000005


def test_criterion_2_gap_probability_monte_carlo():
    with criterion(2, "coverage compounding, Monte Carlo", budget_seconds=10.0):
        trials = 100_000
        analytic = gap_probability(0.99, 100)
        empirical = simulate_monitor(0.99, 100, trials, seed=42)
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        assert abs(empirical - analytic) <= 4.0 * sigma


def test_criterion_3_three_region_reproduction(capsys):
    with criterion(3, "three-region partition of the flagship configuration",
                   budget_seconds=1.0):
        code = cli_main([
            "regions",
            "--capabilities", str(bundled_path("capability_manifest.json")),
            "--policy", str(bundled_path("policy_email_filter.json")),
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["governed"] == ["email.send"]
        assert sorted(report["ungoverned"]) == ["db.query", "web.browse"]
        assert report["theater"] == ["credit_card.scan"]
        assert report["coterminous"] is False


def test_criterion_4_safety_bijection():
    with criterion(4, "journal/allow-record bijection over 10,000 generated runs",
                   budget_seconds=120.0):
        baseline = seeded_world().snapshot_bytes()
        for index in range(10_000):
            rng = random.Random(41_000_000 + index)
            workflow = random_workflow(rng, depth=3)
            policy = random_policy(rng)
            trust = rng.choice(list(TrustLevel))
            value = random_input(rng)

            kernel = fresh_kernel(policy)
            run(workflow, value, kernel, trust=trust)
            allow_ids = sorted(
                record.directive.id
                for record in kernel.chain.records
                if record.decision.verdict is Verdict.ALLOW
            )
            journal_ids = sorted(did for _, did in kernel.world.journal)
            assert journal_ids == allow_ids, f"bijection broken at run {index}"
            assert len(set(journal_ids)) == len(journal_ids)

            denied = fresh_kernel(EMPTY_POLICY)
            run(workflow, value, denied, trust=trust)
            assert denied.world.snapshot_bytes() == baseline, f"all-deny mutated at {index}"
            assert all(
                record.decision.verdict is Verdict.DENY
                for record in denied.chain.records
            )


def test_criterion_5_compositionality():
    with criterion(5, "chain(Seq(A,B)) == chain(A) ++ chain(B) for 1,000 pairs",
                   budget_seconds=60.0):
        from effectgov.workflow import Seq

        for index in range(1_000):
            rng = random.Random(52_000_000 + index)
            workflow_a = random_workflow(rng, depth=2)
            workflow_b = random_workflow(rng, depth=2)
            policy = random_policy(rng)
            trust = rng.choice(list(TrustLevel))
            value = random_input(rng)

            whole = fresh_kernel(policy)
            run(Seq((workflow_a, workflow_b)), value, whole, trust=trust)

            shared_world = seeded_world()
            first = fresh_kernel(policy, world=shared_world)
            result_a = run(workflow_a, value, first, trust=trust)
            second = fresh_kernel(policy, world=shared_world)
            run(workflow_b, result_a.output, second, trust=trust)

            expected = [record_essence(r) for r in first.chain.records]
            expected += [record_essence(r) for r in second.chain.records]
            got = [record_essence(r) for r in whole.chain.records]
            assert got == expected, f"concatenation broke at pair {index}"


def _chain_pool(count: int, length: int) -> list[list[bytes]]:
    pool = []
    for seed in range(count):
        rng = random.Random(63_000_000 + seed)
        kernel = fresh_kernel(random_policy(rng))
        for _ in range(length):
            kind = rng.choice(["email.send", "db.query", "web.browse"])
            kernel.issue(kind, valid_params_for(kind, rng), "pool",
                         rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
        pool.append(kernel.chain.export().split(b"\n")[:-1])
    return pool


def test_criterion_6_tamper_evidence():
    with criterion(6, "single-bit flips detected in 10,000 of 10,000 trials",
                   budget_seconds=60.0):
        rng = random.Random(74_000_000)
        pool = _chain_pool(count=20, length=10)
        detected = 0
        for index in range(10_000):
            lines = list(rng.choice(pool))
            target = rng.randrange(len(lines))
            mutated = bytearray(lines[target])
            bit = rng.randrange(len(mutated) * 8)
            mutated[bit // 8] ^= 1 << (bit % 8)
            lines[target] = bytes(mutated)
            blob = b"".join(line + b"\n" for line in lines)
            try:
                import_chain(blob)
            except ChainFormatError as exc:
                assert exc.line_number - 1 <= target, f"late detection at trial {index}"
                detected += 1
            except ChainIntegrityError as exc:
                assert exc.index <= target, f"late detection at trial {index}"
                detected += 1
        assert detected == 10_000


def test_criterion_7_determinism_replay():
    with criterion(7, "export, import and re-decide reproduces every decision"):
        rng = random.Random(85_000_000)
        policy = Policy([
            PolicyRule(capability="email.send", min_trust=TrustLevel.AGENT,
                       allowed_phases=frozenset({Phase.EXECUTE})),
            PolicyRule(capability="db.query", min_trust=TrustLevel.OPERATOR,
                       allowed_phases=frozenset({Phase.EXECUTE, Phase.PLAN})),
        ])
        kernel = fresh_kernel(policy)
        for index in range(500):
            kind = rng.choice(["email.send", "db.query", "web.browse"])
            kernel.issue(kind, valid_params_for(kind, rng), f"s{index}",
                         rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
        exported = kernel.chain.export()
        imported = import_chain(exported)
        assert imported == kernel.chain
        assert imported.export() == exported
        for record in imported.records:
            assert decide(policy, record.directive) == record.decision


def test_criterion_8_overhead_property():
    with criterion(8, "governed/direct median ratio <= 5, governed < 1 ms"):
        governed, direct = bench_governed_vs_direct(iters=50, warmup=5)
        assert governed.iterations == 50 and governed.warmup == 5
        ratio = governed.median_us / direct.median_us
        print(
            f"  measured: governed {governed.median_us:.1f} us, direct "
            f"{direct.median_us:.1f} us, ratio {ratio:.2f}; reference medians "
            f"{REFERENCE_MEDIANS_MS['governed']} ms governed vs "
            f"{REFERENCE_MEDIANS_MS['direct']} ms direct"
        )
        assert ratio <= 5.0
        assert governed.median_us < 1000.0


def test_criterion_9_layered_cost_arithmetic():
    with criterion(9, "10 ms per action over 1,000 actions adds exactly 10 s"):
        added_ms = layered_cost(0.0, [10.0], 1000)
        assert added_ms == 10_000.0
        assert added_ms / 1000.0 == 10.0


class HandlerExit(BaseException):
    """The exit a criterion-10 handler raises; the issuing thread catches it."""


# What a criterion-10 handler does once its effect has run. Every behaviour
# runs the effect first, so each allow record has exactly one journal entry
# whatever comes after it.
HANDLER_BEHAVIOURS = (
    "returns", "non_scalar", "raises", "exits", "issues_on_own", "issues_on_sharer",
    "appends", "refused_and_returns",
)


def test_criterion_10_one_record_per_issue_whatever_the_handler_does():
    with criterion(10, "one record per issue over 2,000 seeded issues of hostile handlers",
                   budget_seconds=60.0):
        standard = standard_registry()
        threads, exercised = [], set()
        for trial in range(20):
            rng = random.Random(96_000_000 + trial)
            plan = {}  # directive id -> behaviour of its handler
            chain, world = Chain(), seeded_world()
            kernels = []  # two kernels on one chain; issue i goes to kernels[i % 2]

            def hostile(kind):
                real = standard.get(kind)

                def handler(world, directive):
                    behaviour = plan[directive.id]
                    exercised.add(behaviour)
                    result = real(world, directive)
                    if behaviour == "non_scalar":
                        return [result]
                    if behaviour == "raises":
                        raise RuntimeError("after the effect")
                    if behaviour == "exits":
                        raise HandlerExit(directive.id)
                    if behaviour == "appends":
                        nested = Directive(directive.id + 1, kind, directive.params, "nested",
                                           directive.trust, directive.phase)
                        chain.append(nested, DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
                    elif behaviour != "returns":
                        # Issue i + 1 runs on kernels[i % 2]; the other one shares its chain.
                        sharer = behaviour == "issues_on_sharer"
                        target = kernels[directive.id % 2 if sharer else (directive.id - 1) % 2]
                        try:
                            target.issue(kind, directive.params, "nested",
                                         directive.trust, directive.phase)
                        except RuntimeError:
                            if behaviour != "refused_and_returns":
                                raise
                    return result

                return handler

            registry = HandlerRegistry({kind: hostile(kind) for kind in SIM_KINDS})
            kernels += [GovernanceKernel(random_policy(rng), registry, world, chain)
                        for _ in range(2)]
            outcomes = []
            for index in range(100):
                kind = rng.choice(SIM_KINDS)
                plan[index + 1] = rng.choice(HANDLER_BEHAVIOURS)
                args = (kind, valid_params_for(kind, rng), "outer",
                        rng.choice(list(TrustLevel)), rng.choice(list(Phase)))

                def outer(kernel=kernels[index % 2], args=args):
                    try:
                        outcomes.append(kernel.issue(*args))
                    except HandlerExit as exc:
                        outcomes.append(exc)

                threads.append(threading.Thread(target=outer, daemon=True))
                threads[-1].start()
                threads[-1].join(10)
                assert not threads[-1].is_alive(), f"trial {trial}: issue {index} hung"
                assert len(outcomes) == len(chain) == index + 1, (trial, index)

            records = chain.records
            # Contiguous ids: no nested call used one.
            assert [record.directive.id for record in records] == list(range(1, 101))
            assert chain.verify().valid
            for record, outcome in zip(records, outcomes):
                behaviour = plan[record.directive.id]
                if record.decision.verdict is Verdict.DENY:
                    expected = ExecStatus.SKIPPED
                elif behaviour in ("returns", "refused_and_returns"):
                    expected = ExecStatus.EXECUTED
                else:
                    expected = ExecStatus.FAILED
                assert record.exec_status is expected, (trial, record.directive.id)
                if isinstance(outcome, HandlerExit):
                    assert behaviour == "exits" and outcome.args == (record.directive.id,)
                else:
                    assert outcome.record is record
            allow_ids = [record.directive.id for record in records
                         if record.decision.verdict is Verdict.ALLOW]
            assert [directive_id for _, directive_id in world.journal] == allow_ids
        assert exercised == set(HANDLER_BEHAVIOURS)
        assert not any(thread.is_alive() for thread in threads)


# Edits of one byte of a chain: a flipped bit, a space inserted before the
# byte, or the byte replaced by "A", by "0" or by the six bytes \u0041.
CHAIN_EDITS = (
    lambda byte, rng: bytes([byte ^ 1 << rng.randrange(8)]),
    lambda byte, rng: b" " + bytes([byte]),
    lambda byte, rng: b"A",
    lambda byte, rng: b"0",
    lambda byte, rng: b"\\u0041",
)


def test_criterion_11_tampering_caught_at_or_before_the_first_edited_record(tmp_path, capsys):
    with criterion(11, "1-3 edits of 1,000 seeded chains caught at or before the first",
                   budget_seconds=60.0):
        path = tmp_path / "chain.jsonl"
        for trial in range(1_000):
            rng = random.Random(111_000_000 + trial)
            kernel = fresh_kernel(random_policy(rng))
            for _ in range(rng.randint(3, 8)):
                kind = rng.choice(SIM_KINDS)
                kernel.issue(kind, valid_params_for(kind, rng), "edit",
                             rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
            original = kernel.chain.export()
            spots = rng.sample(range(len(original)), rng.randint(1, 3))
            edits = {spot: rng.choice(CHAIN_EDITS)(original[spot], rng) for spot in spots}
            blob = bytearray(original)
            for spot in sorted(edits, reverse=True):  # the last first: each spot stays put
                blob[spot : spot + 1] = edits[spot]
            blob = bytes(blob)
            # "A" over "A" or "0" over "0" leaves the byte as it was.
            changed = [spot for spot, new in edits.items() if new != original[spot : spot + 1]]
            path.write_bytes(blob)
            code = cli_main(["verify", str(path)])
            out = capsys.readouterr().out
            try:
                import_chain(blob)
                expected, index = 0, None
            except ChainIntegrityError as exc:
                expected, index = 1, exc.index
            except ChainFormatError:
                expected, index = 2, None
            assert code == expected, f"trial {trial}: exit {code}, import says {expected}"
            assert (code == 0) == (blob == original), f"trial {trial}"
            if code == 1:
                assert json.loads(out)["first_bad_index"] == index, f"trial {trial}"
                first_edited = original.count(b"\n", 0, min(changed))
                assert index <= first_edited, f"late detection at trial {trial}"
