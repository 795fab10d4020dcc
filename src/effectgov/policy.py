"""Allow-list rulebook consulted by the governance boundary.

A capability the policy does not mention is denied by default. There is no
deny-list, no wildcard matching and at most one rule per capability, so a
decision never depends on rule ordering. A policy is built once, by
Policy(rules) or load_policy, and never changes.

Policy file format (JSON, unknown fields rejected)::

    {"rules": [{"capability": "email.send",
                "min_trust": "agent",
                "allowed_phases": ["execute"]}]}
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .directives import (
    JSON_ERRORS,
    Phase,
    TrustLevel,
    check_fields,
    load_json,
    phase_from_wire,
    trust_from_wire,
    validate_kind,
)


class PolicyError(ValueError):
    """A policy document or rule failed validation."""


@dataclass(frozen=True)
class PolicyRule:
    """Grant of one capability above a trust floor, within given phases."""

    capability: str
    min_trust: TrustLevel
    allowed_phases: frozenset[Phase]

    def __post_init__(self):
        validate_kind(self.capability)
        if not isinstance(self.min_trust, TrustLevel):
            raise PolicyError(f"min_trust must be a TrustLevel, got {self.min_trust!r}")
        phases = frozenset(self.allowed_phases)
        if not phases:
            raise PolicyError(f"rule for {self.capability!r} allows no phases")
        for phase in phases:
            if not isinstance(phase, Phase):
                raise PolicyError(f"allowed_phases entry is not a Phase: {phase!r}")
        object.__setattr__(self, "allowed_phases", phases)


@dataclass(frozen=True, init=False)
class Policy:
    """Immutable map capability -> rule, built from its rules once; copies rebuild it."""

    rules: Mapping[str, PolicyRule]

    def __init__(self, rules: Iterable[PolicyRule]):
        """Policy of the rules; names the position of a non-rule or a repeated capability."""
        by_capability: dict[str, PolicyRule] = {}
        for index, rule in enumerate(rules):
            if not isinstance(rule, PolicyRule):
                raise PolicyError(f"rules[{index}]: not a PolicyRule: {rule!r}")
            if rule.capability in by_capability:
                raise PolicyError(f"rules[{index}]: duplicate capability {rule.capability!r}")
            by_capability[rule.capability] = rule
        object.__setattr__(self, "rules", MappingProxyType(dict(sorted(by_capability.items()))))

    def __reduce__(self):
        return Policy, (tuple(self.rules.values()),)

    def __hash__(self):  # rules are key-sorted, so equal policies list equal rules
        return hash(tuple(self.rules.values()))


EMPTY_POLICY = Policy([])


_RULE_FIELDS = frozenset({"capability", "min_trust", "allowed_phases"})


def _rule_from_entry(entry, where: str) -> PolicyRule:
    check_fields(entry, _RULE_FIELDS, set(), where, PolicyError)
    names = entry["allowed_phases"]
    if not isinstance(names, list) or not names:
        raise PolicyError(f"{where}: allowed_phases must be a non-empty list")
    try:
        phases = [phase_from_wire(name) for name in names]
        rule = PolicyRule(
            capability=entry["capability"],
            min_trust=trust_from_wire(entry["min_trust"]),
            allowed_phases=phases,
        )
    except ValueError as exc:
        raise PolicyError(f"{where}: {exc}") from None
    if len(rule.allowed_phases) != len(phases):
        raise PolicyError(f"{where}: repeated phase in allowed_phases")
    return rule


def load_policy(document: bytes | str) -> Policy:
    """Parse and validate a policy document; errors carry rule positions."""
    try:
        obj = load_json(document)
    except JSON_ERRORS as exc:
        raise PolicyError(f"policy document is not valid JSON: {exc}") from None
    check_fields(obj, {"rules"}, set(), "policy", PolicyError)
    entries = obj["rules"]
    if not isinstance(entries, list):
        raise PolicyError("'rules' must be a list")
    # Lazy, so a duplicate is reported before any fault in a later rule.
    return Policy(
        _rule_from_entry(entry, f"rules[{index}]") for index, entry in enumerate(entries)
    )
