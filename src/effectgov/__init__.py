"""Structural effect governance kernel.

Pure workflows describe intended effects as directives; a single governed
boundary decides them syntactically (capability, trust, phase), executes
allowed effects against a simulated world, and records every decision in a
hash-linked provenance chain as part of execution. Companion analyzers
compute the governed/ungoverned/theater region partition, the monitoring
coverage gap, and governance overhead benchmarks.
"""

from importlib import resources
from pathlib import Path

from .analysis import (
    RegionReport,
    enumerate_directive_space,
    gap_probability,
    layered_cost,
    regions,
    simulate_monitor,
)
from .bench import (
    BenchReport,
    REFERENCE_MEDIANS_MS,
    bench_context_message,
    bench_governed_vs_direct,
)
from .decisions import (
    ALLOW_GRANTED,
    DENY_INSUFFICIENT_TRUST,
    DENY_NO_CAPABILITY,
    DENY_PHASE_VIOLATION,
    Decision,
    DecisionReason,
    Verdict,
)
from .directives import (
    Directive,
    DirectiveError,
    Phase,
    Scalar,
    TrustLevel,
    canonical_value_bytes,
    make_directive,
    parse_directive,
    validate_kind,
)
from .kernel import (
    ExecutionOutcome,
    GovernanceKernel,
    Handler,
    HandlerError,
    HandlerRegistry,
    decide,
)
from .policy import (
    EMPTY_POLICY,
    Policy,
    PolicyError,
    PolicyRule,
    load_policy,
    narrow,
    policy_capabilities,
    serialize_policy,
)
from .provenance import (
    Chain,
    ChainFormatError,
    ChainIntegrityError,
    ExecStatus,
    ProvenanceRecord,
    VerificationReport,
    ZERO_DIGEST,
    import_chain,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simworld import (
    DB_QUERY,
    EMAIL_SEND,
    SIM_CAPABILITIES,
    WEB_BROWSE,
    SimWorld,
    seeded_world,
    standard_registry,
)
from .workflow import (
    Branch,
    Emit,
    Iterate,
    PureStep,
    RunResult,
    Seq,
    Workflow,
    WorkflowError,
    branch,
    emit,
    iterate,
    run,
    seq,
    step,
)

__version__ = "0.1.0"


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled scenario/policy file (data/ directory)."""
    return Path(str(resources.files(__name__).joinpath("data", name)))


def bundled_data(name: str) -> bytes:
    """Contents of a bundled scenario/policy file."""
    return resources.files(__name__).joinpath("data", name).read_bytes()


__all__ = [
    "ALLOW_GRANTED",
    "BenchReport",
    "Branch",
    "Chain",
    "ChainFormatError",
    "ChainIntegrityError",
    "DB_QUERY",
    "DENY_INSUFFICIENT_TRUST",
    "DENY_NO_CAPABILITY",
    "DENY_PHASE_VIOLATION",
    "Decision",
    "DecisionReason",
    "Directive",
    "DirectiveError",
    "EMAIL_SEND",
    "EMPTY_POLICY",
    "Emit",
    "ExecStatus",
    "ExecutionOutcome",
    "GovernanceKernel",
    "Handler",
    "HandlerError",
    "HandlerRegistry",
    "Iterate",
    "Phase",
    "Policy",
    "PolicyError",
    "PolicyRule",
    "ProvenanceRecord",
    "PureStep",
    "REFERENCE_MEDIANS_MS",
    "RegionReport",
    "RunResult",
    "SIM_CAPABILITIES",
    "Scalar",
    "Scenario",
    "ScenarioError",
    "Seq",
    "SimWorld",
    "TrustLevel",
    "VerificationReport",
    "Verdict",
    "WEB_BROWSE",
    "Workflow",
    "WorkflowError",
    "ZERO_DIGEST",
    "bench_context_message",
    "bench_governed_vs_direct",
    "branch",
    "bundled_data",
    "bundled_path",
    "canonical_value_bytes",
    "decide",
    "emit",
    "enumerate_directive_space",
    "gap_probability",
    "import_chain",
    "iterate",
    "layered_cost",
    "load_policy",
    "load_scenario",
    "make_directive",
    "narrow",
    "parse_directive",
    "policy_capabilities",
    "regions",
    "run",
    "seeded_world",
    "seq",
    "serialize_policy",
    "simulate_monitor",
    "standard_registry",
    "step",
    "validate_kind",
]
