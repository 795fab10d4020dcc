"""The single governance boundary.

``GovernanceKernel.issue`` is the only path from a directive to a world
mutation. It builds the directive (``Directive``, bound as
``make_directive``), runs the syntactic decision pipeline (capability,
then trust, then phase; the first failing check names the deny reason),
executes allowed effects through a registered handler, and appends one
provenance record per directive, denials included. There is no bypass:
nothing else in this package can reach a handler.

decide() is a pure function of (policy, directive). Each issue holds its
chain's lock, the boundary's only lock, from the id read through the
append, so chain order is a total order consistent with execution order,
also for kernels that share one chain. A handler cannot re-enter it.
The chain is the one account: ids and theater hits are read from it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Mapping, NamedTuple, Optional

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
    Phase,
    Scalar,
    TrustLevel,
    canonical_value_bytes,
    validate_kind,
)
from .policy import Policy
from .provenance import Chain, ExecStatus, ProvenanceRecord, ZERO_DIGEST

make_directive = Directive  # the name perfbench's tracer patches to count builds per issue

# Module globals, because an issue takes one or two and a global loads far
# faster than an Enum attribute.
_EXECUTED, _SKIPPED, _HANDLER_MISSING, _FAILED = ExecStatus


class HandlerError(Exception):
    """Raised by a handler to report that the effect could not be performed.

    A failed handler does not abort the run; the failure is recorded.
    """


Handler = Callable[[Any, Directive], Scalar]


class HandlerRegistry:
    """Effect handlers owned by the boundary, fixed when built.

    The key set is the expressiveness boundary: an effect kind without a
    handler cannot happen in this system, whatever any policy says. There
    is no way to add a handler afterwards, so a region verdict over
    capabilities() holds for the registry's whole life.
    """

    def __init__(self, handlers: Optional[Mapping[str, Handler]] = None):
        self._handlers: dict[str, Handler] = {}
        for capability, handler in (handlers or {}).items():
            capability = validate_kind(capability)
            if not callable(handler):
                raise TypeError(f"handler for {capability!r} is not callable")
            if capability in self._handlers:
                raise ValueError(f"two handlers for capability {capability!r}")
            self._handlers[capability] = handler

    def get(self, capability: str) -> Optional[Handler]:
        return self._handlers.get(capability)

    def capabilities(self) -> frozenset[str]:
        return frozenset(self._handlers)


def decide(policy: Policy, directive: Directive) -> Decision:
    """Pure, total decision: capability lookup, then trust, then phase."""
    rule = policy.rules.get(directive.kind)
    if rule is None:
        return DENY_NO_CAPABILITY
    if directive.trust < rule.min_trust:
        return DENY_INSUFFICIENT_TRUST
    if directive.phase not in rule.allowed_phases:
        return DENY_PHASE_VIOLATION
    return ALLOW_GRANTED


class ExecutionOutcome(NamedTuple):
    """What one issue produced: its record, and the result if any.

    The decision and exec status are read from the record; the chain keeps
    the result only as a digest and the handler's error not at all.
    """

    record: ProvenanceRecord
    result: Optional[Scalar]
    error: Optional[str] = None

    @property
    def decision(self) -> Decision:
        return self.record.decision

    @property
    def exec_status(self) -> ExecStatus:
        return self.record.exec_status

    @property
    def performed(self) -> bool:
        return self.exec_status is ExecStatus.EXECUTED

    @property
    def denial_reason(self) -> Optional[DecisionReason]:
        """Why nothing happened; allowed-but-unprovided counts as NoCapability."""
        if self.decision.verdict is Verdict.DENY:
            return self.decision.reason
        if self.exec_status is ExecStatus.HANDLER_MISSING:
            return DecisionReason.NO_CAPABILITY
        return None


class GovernanceKernel:
    """Boundary state: policy, handler registry, world, open chain.

    An Allow verdict whose capability has no handler is a theater
    configuration: it is recorded (exec_status handler_missing) and
    reported to the caller as a denial-equivalent outcome rather than
    raised, so region analysis can consume it as data.
    """

    def __init__(
        self,
        policy: Policy,
        registry: HandlerRegistry,
        world: Any,
        chain: Optional[Chain] = None,
    ):
        self._policy = policy
        self._registry = registry
        self._world = world
        self._chain = chain if chain is not None else Chain()

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def registry(self) -> HandlerRegistry:
        return self._registry

    @property
    def world(self) -> Any:
        return self._world

    @property
    def chain(self) -> Chain:
        return self._chain

    @property
    def theater_directive_ids(self) -> tuple[int, ...]:
        """Ids of directives that were allowed but had no handler, read from the chain."""
        records = self._chain.records
        return tuple(r.directive.id for r in records if r.exec_status is _HANDLER_MISSING)

    def issue(
        self,
        kind: str,
        params: Mapping[str, Scalar],
        issuer: str,
        trust: TrustLevel,
        phase: Phase,
    ) -> ExecutionOutcome:
        """Build a directive, decide it, execute it if allowed, and record it.

        Atomic per directive, also against other writers of the same chain.
        Its id is one above the chain's ``last_id``, so a resumed chain
        continues, and a directive never built uses no id. A result that is
        not a scalar, say a list, fails with ``DirectiveError: non-scalar
        list``, the error ``canonical_value_bytes`` raises. A handler's
        ``SystemExit``, ``KeyboardInterrupt`` or ``GeneratorExit`` is
        recorded as failed and then raised on. A handler's own issue or
        append on this chain raises RuntimeError and builds nothing.
        """
        with self._chain._lock:
            if self._chain._in_issue:
                raise RuntimeError("a handler cannot issue on the chain it is recorded in")
            directive = make_directive(self._chain.last_id + 1, kind, params, issuer, trust, phase)
            decision = decide(self._policy, directive)
            result = error = None
            status = _SKIPPED
            if decision is ALLOW_GRANTED:
                handler = self._registry.get(directive.kind)
                status = _HANDLER_MISSING if handler is None else _FAILED
            try:
                if status is _FAILED:
                    self._chain._in_issue = True
                    result = handler(self._world, directive)
                    digest = hashlib.sha256(canonical_value_bytes(result)).digest()
                    status = _EXECUTED
            except Exception as exc:
                # Any handler fault, or a result with no canonical encoding,
                # still gets its one record: the world may already have changed.
                result, error = None, str(exc)
                if not isinstance(exc, HandlerError):
                    error = f"{type(exc).__name__}: {error}"
            finally:
                # The one append; a handler's exit goes on after it. An exit
                # may land after the digest, so only an executed record has it.
                self._chain._in_issue = False
                record = self._chain.append(
                    directive, decision, status, digest if status is _EXECUTED else ZERO_DIGEST
                )
            return ExecutionOutcome(record, result, error)
