"""Allow/deny vocabulary produced by the boundary's checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Verdict(Enum):
    ALLOW = "allow"
    DENY = "deny"


class DecisionReason(Enum):
    GRANTED = "granted"
    NO_CAPABILITY = "no_capability"
    INSUFFICIENT_TRUST = "insufficient_trust"
    PHASE_VIOLATION = "phase_violation"


@dataclass(frozen=True)
class Decision:
    """Verdict plus the reason for it; Allow pairs only with Granted.

    ``wire`` is the decision's JSON text in the chain line, key order fixed
    (verdict, reason); computed once because every record embeds it.
    """

    verdict: Verdict
    reason: DecisionReason
    wire: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        allowed = self.verdict is Verdict.ALLOW
        granted = self.reason is DecisionReason.GRANTED
        if allowed != granted:
            raise ValueError(f"inconsistent decision: {self.verdict} with {self.reason}")
        wire = '{"verdict":"%s","reason":"%s"}' % (self.verdict.value, self.reason.value)
        object.__setattr__(self, "wire", wire)


ALLOW_GRANTED = Decision(Verdict.ALLOW, DecisionReason.GRANTED)
DENY_NO_CAPABILITY = Decision(Verdict.DENY, DecisionReason.NO_CAPABILITY)
DENY_INSUFFICIENT_TRUST = Decision(Verdict.DENY, DecisionReason.INSUFFICIENT_TRUST)
DENY_PHASE_VIOLATION = Decision(Verdict.DENY, DecisionReason.PHASE_VIOLATION)

_VERDICT_BY_WIRE = {verdict.value: verdict for verdict in Verdict}
_REASON_BY_WIRE = {reason.value: reason for reason in DecisionReason}
# The four consistent decisions by wire pair, so a parsed record shares them.
_DECISION_BY_WIRE = {
    (decision.verdict.value, decision.reason.value): decision
    for decision in (
        ALLOW_GRANTED,
        DENY_NO_CAPABILITY,
        DENY_INSUFFICIENT_TRUST,
        DENY_PHASE_VIOLATION,
    )
}
_DECISION_KEYS = frozenset({"verdict", "reason"})


def decision_from_obj(obj) -> Decision:
    """Rebuild a decision from a parsed JSON object; strict about shape."""
    if not isinstance(obj, dict) or obj.keys() != _DECISION_KEYS:
        raise ValueError(f"decision must be an object with verdict and reason, got {obj!r}")
    try:
        return _DECISION_BY_WIRE[obj["verdict"], obj["reason"]]
    except (KeyError, TypeError):
        pass
    try:
        verdict = _VERDICT_BY_WIRE[obj["verdict"]]
        reason = _REASON_BY_WIRE[obj["reason"]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown verdict or reason in {obj!r}") from None
    return Decision(verdict, reason)  # an inconsistent pair: raises
