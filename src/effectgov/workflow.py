"""Pure composition layer: trees whose leaves may emit directives.

Nothing in this module can reach a world or a handler. A workflow's only
world-relevant output is the stream of directives its Emit leaves hand to
the kernel; everything else is deterministic computation over plain
values. Evaluation order is fixed (left to right, depth first) and
directive ids are assigned at submission, which is what makes chains
concatenate under sequencing.

Node semantics:

* PureStep(name, fn): output is fn(value).
* Emit(name, kind, phase, params_fn): issues one directive with
  parameters params_fn(value); output is the handler result when the
  directive executed, else None.
* Seq(parts): feeds each part's output to the next part, in order.
* Branch(predicate, then_arm, else_arm): predicate(value) picks the arm,
  which receives the unchanged value.
* Iterate(body, items_fn): runs body once per item of items_fn(value),
  feeding each item to body; output is the last body output, or the
  unchanged input when the list is empty. Iteration is bounded by
  construction; there is no unbounded recursion in this algebra.

User-supplied functions (fn, params_fn, predicate, items_fn) are required
to be deterministic and world-blind; run(check_determinism=True) evaluates
each twice and raises on disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .directives import Phase, Scalar, TrustLevel
from .kernel import GovernanceKernel

Value = Any


class WorkflowError(Exception):
    """A workflow broke its evaluation contract at run time."""


class Workflow:
    """Base class for composition nodes; instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class PureStep(Workflow):
    name: str
    fn: Callable[[Value], Value]


@dataclass(frozen=True)
class Emit(Workflow):
    name: str
    kind: str
    phase: Phase
    params_fn: Callable[[Value], Mapping[str, Scalar]]


@dataclass(frozen=True)
class Seq(Workflow):
    parts: tuple[Workflow, ...]


@dataclass(frozen=True)
class Branch(Workflow):
    predicate: Callable[[Value], bool]
    then_arm: Workflow
    else_arm: Workflow


@dataclass(frozen=True)
class Iterate(Workflow):
    body: Workflow
    items_fn: Callable[[Value], list]


def step(name: str, fn: Callable[[Value], Value]) -> PureStep:
    return PureStep(name=name, fn=fn)


def emit(
    name: str,
    kind: str,
    params_fn: Callable[[Value], Mapping[str, Scalar]],
    phase: Phase = Phase.EXECUTE,
) -> Emit:
    return Emit(name=name, kind=kind, phase=phase, params_fn=params_fn)


def seq(*parts: Workflow) -> Workflow:
    """Sequence of one or more workflows; a single part is returned as is."""
    if not parts:
        raise ValueError("seq needs at least one workflow")
    return parts[0] if len(parts) == 1 else Seq(parts)


def branch(predicate, then_arm: Workflow, else_arm: Workflow) -> Branch:
    return Branch(predicate=predicate, then_arm=then_arm, else_arm=else_arm)


def iterate(body: Workflow, items_fn) -> Iterate:
    return Iterate(body=body, items_fn=items_fn)


@dataclass(frozen=True)
class RunResult:
    """Final value plus how many submissions the run made.

    The provenance the run produced is the tail of ``kernel.chain``:
    directives_issued records, all of it when the kernel started with a
    fresh chain.
    """

    output: Value
    directives_issued: int


def _call(fn, value, check: bool, what: str, *names):
    """fn(value); with check, evaluated twice and compared.

    ``what % names`` labels the node in the error, formatted only then.
    """
    out = fn(value)
    if check and fn(value) != out:
        raise WorkflowError(f"{what % names} is not deterministic")
    return out


def _eval(node: Workflow, value: Value, kernel, trust, check: bool) -> Value:
    if isinstance(node, PureStep):
        return _call(node.fn, value, check, "step %r", node.name)
    if isinstance(node, Emit):
        params = _call(node.params_fn, value, check, "emit %r params", node.name)
        outcome = kernel.issue(node.kind, params, node.name, trust, node.phase)
        return outcome.result
    if isinstance(node, Seq):
        for part in node.parts:
            value = _eval(part, value, kernel, trust, check)
        return value
    if isinstance(node, Branch):
        chosen = _call(node.predicate, value, check, "branch predicate")
        if not isinstance(chosen, bool):
            raise WorkflowError(f"branch predicate returned non-bool {chosen!r}")
        arm = node.then_arm if chosen else node.else_arm
        return _eval(arm, value, kernel, trust, check)
    if isinstance(node, Iterate):
        items = _call(node.items_fn, value, check, "iterate items")
        if not isinstance(items, (list, tuple)):
            raise WorkflowError(f"iterate items must be a finite list, got {type(items).__name__}")
        current = value
        for item in items:
            current = _eval(node.body, item, kernel, trust, check)
        return current
    raise WorkflowError(f"unknown workflow node {type(node).__name__}")


def run(
    workflow: Workflow,
    value: Value,
    kernel: GovernanceKernel,
    trust: TrustLevel = TrustLevel.AGENT,
    check_determinism: bool = False,
) -> RunResult:
    """Evaluate the tree; every Emit leaf becomes exactly one submission."""
    before = len(kernel.chain)
    output = _eval(workflow, value, kernel, trust, check_determinism)
    return RunResult(output=output, directives_issued=len(kernel.chain) - before)
