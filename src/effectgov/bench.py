"""Latency benchmarks: governed issue against direct handler calls.

Methodology: a fixed workload of one email.send directive per iteration,
timed per iteration on the monotonic clock after a warmup, percentiles by
nearest rank. The governed loop goes through the full kernel pipeline
(decide, execute, provenance append). The direct loop invokes the handler
through _invoke_direct, a bypass that exists only in this module for
measurement and is not part of the package's public surface.

Absolute numbers are machine-specific. For orientation, the reference
implementation this harness mirrors (BEAM/OTP on Apple Silicon) reported
0.23 ms median governed, 0.24 ms median direct, and 0.38 ms median for a
round trip carrying a 4 KB governance context; see REFERENCE_MEDIANS_MS.
That last figure is the reference platform's alone: this harness times
governed against direct only, because a single boundary in one process
hands no context between execution contexts.
"""

from __future__ import annotations

import gc
import math
import platform
import time
from dataclasses import asdict, dataclass

from .directives import Directive, Phase, TrustLevel, check_count
from .kernel import GovernanceKernel, HandlerRegistry
from .policy import Policy, PolicyRule
from .simworld import EMAIL_SEND, SimWorld, seeded_world, standard_registry

# Reference platform medians (BEAM/OTP 27 on Apple Silicon, n=50 with
# 5-iteration warmup). Context for reports, not acceptance targets.
REFERENCE_MEDIANS_MS = {
    "governed": 0.23,
    "direct": 0.24,
    "context_message_4096": 0.38,
}

_WORKLOAD_PARAMS = {"to": "ops@example.test", "body": "benchmark ping"}


@dataclass(frozen=True)
class BenchReport:
    scenario: str
    iterations: int
    warmup: int
    median_us: float
    mean_us: float
    p99_us: float
    machine: str

    def to_json_obj(self) -> dict:
        return asdict(self)


def machine_descriptor() -> str:
    return f"{platform.platform()} / CPython {platform.python_version()}"


def _nearest_rank(sorted_ns: list[int], percentile: float) -> int:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_ns)))
    return sorted_ns[rank - 1]


def _time_loop(fn, iterations: int, warmup: int) -> list[int]:
    check_count(iterations, "iterations", 1)
    check_count(warmup, "warmup", 0)
    for _ in range(warmup):
        fn()
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()  # collector pauses otherwise land in arbitrary samples
    try:
        for _ in range(iterations):
            start = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - start)
    finally:
        if was_enabled:
            gc.enable()
    return samples


def _make_report(scenario: str, iterations: int, warmup: int, samples_ns: list[int]) -> BenchReport:
    ordered = sorted(samples_ns)
    return BenchReport(
        scenario=scenario,
        iterations=iterations,
        warmup=warmup,
        median_us=_nearest_rank(ordered, 50.0) / 1000.0,
        mean_us=sum(ordered) / len(ordered) / 1000.0,
        p99_us=_nearest_rank(ordered, 99.0) / 1000.0,
        machine=machine_descriptor(),
    )


def _email_policy() -> Policy:
    return Policy(
        [
            PolicyRule(
                capability=EMAIL_SEND,
                min_trust=TrustLevel.AGENT,
                allowed_phases=frozenset({Phase.EXECUTE}),
            )
        ]
    )


def _invoke_direct(registry: HandlerRegistry, world: SimWorld, directive: Directive):
    # Measurement-only bypass: no decision, no provenance. Keep private.
    handler = registry.get(directive.kind)
    return handler(world, directive)


def bench_governed_vs_direct(iters: int = 50, warmup: int = 5) -> tuple[BenchReport, BenchReport]:
    """Identical workloads, one through issue, one through the bypass."""
    registry = standard_registry()
    kernel = GovernanceKernel(_email_policy(), registry, seeded_world())

    def governed_once():
        kernel.issue(EMAIL_SEND, _WORKLOAD_PARAMS, "bench", TrustLevel.AGENT, Phase.EXECUTE)

    governed_samples = _time_loop(governed_once, iters, warmup)

    direct_world = seeded_world()
    counter = iter(range(1, iters + warmup + 1))

    def direct_once():
        directive = Directive(
            next(counter), EMAIL_SEND, _WORKLOAD_PARAMS, "bench", TrustLevel.AGENT, Phase.EXECUTE
        )
        _invoke_direct(registry, direct_world, directive)

    direct_samples = _time_loop(direct_once, iters, warmup)

    return (
        _make_report("governed", iters, warmup, governed_samples),
        _make_report("direct", iters, warmup, direct_samples),
    )
