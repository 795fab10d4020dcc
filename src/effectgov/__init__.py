"""Structural effect governance kernel.

Pure workflows describe intended effects as directives; a single governed
boundary decides them syntactically (capability, trust, phase), executes
allowed effects against a simulated world, and records every decision in a
hash-linked provenance chain as part of execution. Companion analyzers
compute the governed/ungoverned/theater region partition, the monitoring
coverage gap, and governance overhead benchmarks.
"""

from .analysis import gap_probability, layered_cost, regions, simulate_monitor
from .bench import bench_governed_vs_direct
from .decisions import DecisionReason, Verdict
from .directives import DirectiveError, Phase, TrustLevel
from .kernel import GovernanceKernel, HandlerError, HandlerRegistry, decide
from .policy import EMPTY_POLICY, Policy, PolicyError, PolicyRule, load_policy
from .provenance import Chain, ChainFormatError, ChainIntegrityError, ExecStatus, import_chain
from .scenario import ScenarioError, load_scenario
from .simworld import seeded_world, standard_registry
from .workflow import WorkflowError, branch, emit, iterate, run, seq, step

__version__ = "0.1.0"


def bundled_path(name: str) -> "Path":
    """Filesystem path of a bundled scenario/policy file (data/ directory)."""
    from importlib import resources
    from pathlib import Path
    return Path(str(resources.files(__name__).joinpath("data", name)))


def bundled_data(name: str) -> bytes:
    """Contents of a bundled scenario/policy file."""
    from importlib import resources
    return resources.files(__name__).joinpath("data", name).read_bytes()


__all__ = [
    "Chain",
    "ChainFormatError",
    "ChainIntegrityError",
    "DecisionReason",
    "DirectiveError",
    "EMPTY_POLICY",
    "ExecStatus",
    "GovernanceKernel",
    "HandlerError",
    "HandlerRegistry",
    "Phase",
    "Policy",
    "PolicyError",
    "PolicyRule",
    "ScenarioError",
    "TrustLevel",
    "Verdict",
    "WorkflowError",
    "bench_governed_vs_direct",
    "branch",
    "bundled_data",
    "bundled_path",
    "decide",
    "emit",
    "gap_probability",
    "import_chain",
    "iterate",
    "layered_cost",
    "load_policy",
    "load_scenario",
    "regions",
    "run",
    "seeded_world",
    "seq",
    "simulate_monitor",
    "standard_registry",
    "step",
]
