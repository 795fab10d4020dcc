"""Pure composition layer: trees whose leaves may emit directives.

Nothing in this module can reach a world or a handler. Nodes are handed
an issue function, never the kernel: a workflow's only world-relevant
output is the stream of directives its Emit leaves pass to that function,
which run makes over kernel.issue; everything else is deterministic
computation over plain values. Evaluation order is fixed (left to right,
depth first) and directive ids are assigned by kernel.issue, which is what
makes chains concatenate under sequencing.

Each node class is the one definition of its node: it evaluates itself
(_eval), checks its children, its functions and (an Emit) its directive
fields when it is built, and is its own constructor (step, emit, branch
and iterate are the classes). run checks the root the same way, so a
malformed tree is refused before it issues anything. Node semantics:

* PureStep(name, fn): output is fn(value).
* Emit(name, kind, params_fn, phase=EXECUTE): issues one directive with
  parameters params_fn(value); output is the handler result when the
  directive executed, else None.
* Seq(parts): feeds each part's output to the next part, in order.
* Branch(predicate, then_arm, else_arm): predicate(value), which must be
  True or False, picks the arm, which receives the unchanged value.
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

from .directives import DirectiveError, Phase, Scalar, TrustLevel, validate_kind
from .kernel import GovernanceKernel

Value = Any


class WorkflowError(Exception):
    """A workflow tree is malformed, or broke its evaluation contract."""


class Workflow:
    """Base class for composition nodes; instances are immutable."""

    __slots__ = ()


def _call(fn, value, check: bool, what: str, *names):
    """fn(value); with check, evaluated twice and compared.

    ``what % names`` labels the node in the error, formatted only then.
    """
    out = fn(value)
    if check and fn(value) != out:
        raise WorkflowError(f"{what % names} is not deterministic")
    return out


def _check_node(node) -> None:
    if not isinstance(node, _NODES):
        raise WorkflowError(f"unknown workflow node {type(node).__name__}")


def _check_fn(fn, what: str, *names) -> None:
    if not callable(fn):
        raise WorkflowError(f"{what % names} is not callable: {type(fn).__name__}")


@dataclass(frozen=True)
class PureStep(Workflow):
    name: str
    fn: Callable[[Value], Value]

    def __post_init__(self) -> None:
        _check_fn(self.fn, "step %r fn", self.name)

    def _eval(self, value: Value, issue, check: bool) -> Value:
        return _call(self.fn, value, check, "step %r", self.name)


@dataclass(frozen=True)
class Emit(Workflow):
    name: str
    kind: str
    params_fn: Callable[[Value], Mapping[str, Scalar]]
    phase: Phase = Phase.EXECUTE

    def __post_init__(self) -> None:
        # The checks Directive makes of these fields, made once here, so a
        # tree cannot fail on its own fields after some of its effects ran.
        validate_kind(self.kind)
        if not isinstance(self.name, str) or self.name == "":
            raise DirectiveError(f"emit name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.phase, Phase):
            raise DirectiveError(f"phase must be a Phase, got {self.phase!r}")
        _check_fn(self.params_fn, "emit %r params_fn", self.name)

    def _eval(self, value: Value, issue, check: bool) -> Value:
        params = _call(self.params_fn, value, check, "emit %r params", self.name)
        return issue(self, params).result


@dataclass(frozen=True)
class Seq(Workflow):
    parts: tuple[Workflow, ...]

    def __post_init__(self) -> None:
        # A tuple of the parts as checked: a list the caller changes later,
        # or a generator the check would use up, cannot change the tree.
        object.__setattr__(self, "parts", tuple(self.parts))
        for part in self.parts:
            _check_node(part)

    def _eval(self, value: Value, issue, check: bool) -> Value:
        for part in self.parts:
            value = part._eval(value, issue, check)
        return value


@dataclass(frozen=True)
class Branch(Workflow):
    predicate: Callable[[Value], bool]
    then_arm: Workflow
    else_arm: Workflow

    def __post_init__(self) -> None:
        _check_fn(self.predicate, "branch predicate")
        _check_node(self.then_arm)
        _check_node(self.else_arm)

    def _eval(self, value: Value, issue, check: bool) -> Value:
        chosen = _call(self.predicate, value, check, "branch predicate")
        if chosen is True:
            return self.then_arm._eval(value, issue, check)
        if chosen is False:
            return self.else_arm._eval(value, issue, check)
        raise WorkflowError(f"branch predicate returned non-bool {chosen!r}")


@dataclass(frozen=True)
class Iterate(Workflow):
    body: Workflow
    items_fn: Callable[[Value], list]

    def __post_init__(self) -> None:
        _check_fn(self.items_fn, "iterate items_fn")
        _check_node(self.body)

    def _eval(self, value: Value, issue, check: bool) -> Value:
        items = _call(self.items_fn, value, check, "iterate items")
        if not isinstance(items, (list, tuple)):
            raise WorkflowError(f"iterate items must be a finite list, got {type(items).__name__}")
        current = value
        for item in items:
            current = self.body._eval(item, issue, check)
        return current


_NODES = (PureStep, Emit, Seq, Branch, Iterate)
step, emit, branch, iterate = PureStep, Emit, Branch, Iterate


def seq(*parts: Workflow) -> Workflow:
    """Sequence of one or more workflows; a single part is returned as is."""
    if not parts:
        raise ValueError("seq needs at least one workflow")
    return parts[0] if len(parts) == 1 else Seq(parts)


@dataclass(frozen=True)
class RunResult:
    """Final value plus how many directives the run itself issued.

    The run's provenance is directives_issued records of ``kernel.chain``,
    in issue order; other writers of a shared chain may add records
    between them. With no other writer they are the chain's tail, and all
    of it when the kernel started with a fresh chain.
    """

    output: Value
    directives_issued: int


def run(
    workflow: Workflow,
    value: Value,
    kernel: GovernanceKernel,
    trust: TrustLevel = TrustLevel.AGENT,
    check_determinism: bool = False,
) -> RunResult:
    """Evaluate the tree; every Emit leaf becomes exactly one kernel.issue."""
    _check_node(workflow)
    outcomes = []

    def issue(node: Emit, params):
        # kernel.issue is looked up per call, since an instance may replace it.
        outcome = kernel.issue(node.kind, params, node.name, trust, node.phase)
        outcomes.append(outcome)
        return outcome

    output = workflow._eval(value, issue, check_determinism)
    return RunResult(output=output, directives_issued=len(outcomes))
