"""Allow/deny vocabulary produced by the boundary's checks."""

from __future__ import annotations

from enum import Enum


class Verdict(Enum):
    ALLOW = "allow"
    DENY = "deny"


class DecisionReason(Enum):
    GRANTED = "granted"
    NO_CAPABILITY = "no_capability"
    INSUFFICIENT_TRUST = "insufficient_trust"
    PHASE_VIOLATION = "phase_violation"


class Decision(Enum):
    """Verdict plus the reason for it: one of the four legal pairs.

    Allow pairs only with Granted, and no other pair exists, so an
    inconsistent decision cannot be built. ``wire`` is the decision's JSON
    bytes in the chain line, key order fixed (verdict, reason).
    """

    ALLOW_GRANTED = (Verdict.ALLOW, DecisionReason.GRANTED)
    DENY_NO_CAPABILITY = (Verdict.DENY, DecisionReason.NO_CAPABILITY)
    DENY_INSUFFICIENT_TRUST = (Verdict.DENY, DecisionReason.INSUFFICIENT_TRUST)
    DENY_PHASE_VIOLATION = (Verdict.DENY, DecisionReason.PHASE_VIOLATION)

    def __init__(self, verdict: Verdict, reason: DecisionReason):
        self.verdict = verdict
        self.reason = reason
        self.wire = ('{"verdict":"%s","reason":"%s"}' % (verdict.value, reason.value)).encode()


# Module globals, because decide() returns one per call and a global loads
# far faster than an Enum attribute.
ALLOW_GRANTED, DENY_NO_CAPABILITY, DENY_INSUFFICIENT_TRUST, DENY_PHASE_VIOLATION = Decision

_DECISION_BY_WIRE = {
    (decision.verdict.value, decision.reason.value): decision for decision in Decision
}
_DECISION_KEYS = frozenset({"verdict", "reason"})


def decision_from_obj(obj) -> Decision:
    """Rebuild a decision from a parsed JSON object; strict about shape."""
    if isinstance(obj, dict) and obj.keys() == _DECISION_KEYS:
        try:
            return _DECISION_BY_WIRE[obj["verdict"], obj["reason"]]
        except (KeyError, TypeError):
            pass
    raise ValueError(f"decision must be one of the four verdict and reason pairs, got {obj!r}")
