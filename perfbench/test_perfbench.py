"""Self-tests of the benchmark: seeded inputs, realised mix, checks, tracing.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import effectgov  # noqa: E402
from tracer import Tracer, layer_metrics, layer_table, traced_api  # noqa: E402
from workloads import (  # noqa: E402
    AUDIT_CHAINS,
    AUDIT_TAMPERED,
    WORKLOADS,
    Api,
    ChainAudit,
    Tally,
    check_monitor_cells,
)

POLICY = effectgov.load_policy((BENCH_DIR / "policy.json").read_bytes())
KERNEL_WORKLOADS = ("agent_tasks", "long_session", "chain_audit")


def input_bytes(name: str, seed: int) -> bytes:
    """The inputs of a workload's first operations, serialised."""
    workload = WORKLOADS[name](seed, POLICY)
    if name == "agent_tasks":
        return b"".join(workload.task("measure", index)[0] for index in range(3))
    if name == "long_session":
        return repr(workload.session("measure", 0, 500)).encode()
    if name == "chain_audit":
        return b"".join(case.data for case in workload.cases)
    return repr([workload.call("measure", index) for index in range(20)]).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = input_bytes(name, 7)
    assert first == input_bytes(name, 7)
    assert first != input_bytes(name, 8)


def test_inputs_repeat_across_processes():
    script = (
        "import hashlib, test_perfbench as t\n"
        "print(hashlib.sha256(b''.join(t.input_bytes(n, 11) for n in sorted(t.WORKLOADS)))"
        ".hexdigest())"
    )
    here = hashlib.sha256(
        b"".join(input_bytes(name, 11) for name in sorted(WORKLOADS))
    ).hexdigest()
    env = dict(os.environ, PYTHONHASHSEED="12345")
    there = subprocess.run(
        [sys.executable, "-c", script], cwd=BENCH_DIR, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.strip()
    assert there == here


@pytest.mark.parametrize("name", KERNEL_WORKLOADS)
def test_realised_mix_within_stated_ranges(name):
    tally = Tally()
    WORKLOADS[name](3, POLICY).run_phase(Api(POLICY), tally, seconds=0.2)
    assert tally.failed == 0, tally.problems
    mix = tally.mix()
    shares = mix["shares"]
    assert 0.65 <= shares["executed"] <= 0.75
    assert 0.15 <= shares["skipped"] <= 0.25
    for reason in ("no_capability", "insufficient_trust", "phase_violation"):
        assert 0.04 <= shares[reason] <= 0.10
    assert 0.03 <= shares["failed"] <= 0.07
    assert 0.03 <= shares["handler_missing"] <= 0.07
    if name == "long_session":
        assert mix["chain_length"] >= 10_000
        assert 300 <= mix["param_bytes_mean"] <= 1200
        assert mix["param_bytes_max"] >= 2048
    else:
        assert mix["chain_length"] == 100
        assert mix["param_bytes_max"] <= 256


def test_one_audit_chain_in_ten_is_tampered():
    cases = ChainAudit(5, POLICY).cases
    assert len(cases) == AUDIT_CHAINS + AUDIT_TAMPERED
    assert sum(case.flipped_record is not None for case in cases) * 10 == len(cases)


def test_audit_check_flags_a_tampered_chain_that_imports():
    cases = ChainAudit(5, POLICY).cases
    clean = next(case for case in cases if case.flipped_record is None)
    tampered = next(case for case in cases if case.flipped_record is not None)
    output = ChainAudit.operate(Api(POLICY), clean)
    assert ChainAudit.check(clean, output, Tally()) is None
    assert ChainAudit.check(tampered, output, Tally()) is not None


def test_monitor_check_flags_a_biased_frequency():
    trials = 1_000_000
    expected = effectgov.gap_probability(0.99, 100)
    on_target = {(0.99, 100): [round(expected * trials), trials, 3]}
    biased = {(0.99, 100): [round((expected + 0.005) * trials), trials, 3]}
    assert check_monitor_cells(on_target) == []
    assert [calls for _, calls in check_monitor_cells(biased)] == [3]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reconciles(name):
    def traced_phase():
        tracer, tally = Tracer(), Tally()
        workload = WORKLOADS[name](2, POLICY)
        with traced_api(POLICY, tracer, workload.trace_block) as api:
            # Long enough for an untraced block of every workload to follow the first traced one.
            workload.run_phase(api, tally, seconds=1.5)
        return tally, api, layer_metrics(tracer, api), layer_table(tracer)

    tally, api, metrics, table = traced_phase()
    assert tally.failed == 0, tally.problems
    # Alternate blocks of operations are traced.
    assert table["ops"] == len(api.op_ns[True]) > 0
    assert len(api.op_ns[False]) > 0
    assert len(api.op_ns[True]) + len(api.op_ns[False]) == len(tally.latencies_ns)
    # The layers account for nearly all of each traced operation.
    assert table["unattributed_us_per_op"] < 0.15 * table["op_us_mean"]
    # Wrappers are removed again when the traced phase ends.
    assert effectgov.kernel.decide is effectgov.decide
    outcomes = {key: value for key, value in metrics.items() if key.startswith("kernel.outcome.")}
    if name in ("agent_tasks", "long_session"):
        assert sum(value for value, _ in outcomes.values()) == 1000
        repeat = traced_phase()[2]
        for key in (*outcomes, "directives.make_directive.calls_per_issue",
                    "kernel.result_digest.calls_per_issue"):
            assert metrics[key] == repeat[key]
        assert metrics["directives.make_directive.calls_per_issue"][0] == 1.0
        # Results are digested for executed actions only, 70% of the mix.
        assert metrics["kernel.result_digest.calls_per_issue"][0] == 0.7
    if name == "chain_audit":
        # Three at the time of writing; the table exists to watch it fall.
        # Only traced imports count, so the figure is a whole number per record.
        renders = metrics["provenance.renders_per_record"][0]
        assert renders >= 1 and renders == round(renders)
        assert metrics["provenance.import_parse.us_per_record"][0] > 0
