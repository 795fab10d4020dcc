"""Policy rules, capability lookup and the policy file format."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from effectgov import (
    EMPTY_POLICY,
    Phase,
    Policy,
    PolicyError,
    PolicyRule,
    TrustLevel,
    load_policy,
)
from effectgov.policy import policy_capabilities, serialize_policy


def rule(capability="email.send", min_trust=TrustLevel.AGENT, phases=(Phase.EXECUTE,)):
    return PolicyRule(capability=capability, min_trust=min_trust,
                      allowed_phases=frozenset(phases))


TWO_RULE_DOCUMENT = json.dumps(
    {
        "rules": [
            {"capability": "email.send", "min_trust": "agent", "allowed_phases": ["execute"]},
            {"capability": "db.query", "min_trust": "operator",
             "allowed_phases": ["plan", "execute"]},
        ]
    }
)


def test_lookup_hit():
    policy = Policy.from_rules([rule()])
    assert policy.rules.get("email.send") == rule()


def test_lookup_miss_is_none():
    policy = Policy.from_rules([rule()])
    assert policy.rules.get("web.browse") is None


def test_lookup_on_empty_policy():
    assert EMPTY_POLICY.rules.get("anything.at_all") is None


def test_load_policy_two_rules():
    policy = load_policy(TWO_RULE_DOCUMENT)
    assert len(policy.rules) == 2
    assert policy_capabilities(policy) == {"email.send", "db.query"}
    assert policy.rules.get("db.query").min_trust is TrustLevel.OPERATOR


def test_load_policy_duplicate_capability():
    document = json.dumps({"rules": [
        {"capability": "email.send", "min_trust": "agent", "allowed_phases": ["execute"]},
        {"capability": "email.send", "min_trust": "system", "allowed_phases": ["plan"]},
    ]})
    with pytest.raises(PolicyError, match=r"rules\[1\].*email\.send"):
        load_policy(document)


def test_load_policy_unknown_trust_has_position():
    document = json.dumps({"rules": [
        {"capability": "email.send", "min_trust": "agent", "allowed_phases": ["execute"]},
        {"capability": "db.query", "min_trust": "root", "allowed_phases": ["execute"]},
    ]})
    with pytest.raises(PolicyError, match=r"rules\[1\].*'root'"):
        load_policy(document)


def test_load_policy_unknown_phase_has_position():
    document = json.dumps({"rules": [
        {"capability": "email.send", "min_trust": "agent", "allowed_phases": ["deploy"]},
    ]})
    with pytest.raises(PolicyError, match=r"rules\[0\].*'deploy'"):
        load_policy(document)


def test_load_policy_rejects_unknown_fields():
    with pytest.raises(PolicyError, match="policy: unknown field 'default'"):
        load_policy(json.dumps({"rules": [], "default": "allow"}))
    with pytest.raises(PolicyError, match=r"rules\[0\]: unknown field"):
        load_policy(json.dumps({"rules": [
            {"capability": "a.b", "min_trust": "agent", "allowed_phases": ["plan"],
             "priority": 1},
        ]}))


def test_load_policy_grants_for_phantom_capability():
    # Granting a capability nothing provides is legal here; region analysis
    # is what flags it as theater.
    document = json.dumps({"rules": [
        {"capability": "credit_card.read", "min_trust": "agent", "allowed_phases": ["execute"]},
    ]})
    policy = load_policy(document)
    assert policy_capabilities(policy) == {"credit_card.read"}


def test_empty_phase_list_rejected():
    document = json.dumps({"rules": [
        {"capability": "a.b", "min_trust": "agent", "allowed_phases": []},
    ]})
    with pytest.raises(PolicyError, match="non-empty"):
        load_policy(document)
    with pytest.raises(PolicyError, match="no phases"):
        rule(phases=())


def test_malformed_json_rejected():
    with pytest.raises(PolicyError, match="not valid JSON"):
        load_policy(b'{"rules": [')


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_load_policy_reads_bytes_as_utf8_only(encoding):
    # json.loads on bytes would detect UTF-16/32 and skip a UTF-8 BOM; the
    # policy format is UTF-8, so all three are parse errors.
    document = json.dumps({"rules": []}).encode(encoding)
    with pytest.raises(PolicyError, match="not valid JSON"):
        load_policy(document)


policies = st.lists(
    st.sampled_from(["email.send", "db.query", "web.browse", "fs.read"]),
    unique=True, max_size=4,
).flatmap(
    lambda caps: st.tuples(
        *[
            st.tuples(
                st.just(cap),
                st.sampled_from(list(TrustLevel)),
                st.frozensets(st.sampled_from(list(Phase)), min_size=1),
            )
            for cap in caps
        ]
    )
).map(
    lambda specs: Policy.from_rules(
        [PolicyRule(capability=c, min_trust=t, allowed_phases=p) for c, t, p in specs]
    )
)


@given(policies)
@settings(max_examples=200)
def test_serialize_load_roundtrip(policy):
    assert load_policy(serialize_policy(policy)) == policy


def test_duplicate_rule_construction_rejected():
    with pytest.raises(PolicyError, match="duplicate"):
        Policy.from_rules([rule(), rule(min_trust=TrustLevel.SYSTEM)])


def test_duplicate_is_reported_at_its_position_before_later_faults():
    with pytest.raises(PolicyError, match=r"^rules\[1\]: duplicate capability 'email\.send'$"):
        Policy.from_rules([rule(), rule(min_trust=TrustLevel.SYSTEM)])
    document = json.dumps({"rules": [
        {"capability": "email.send", "min_trust": "agent", "allowed_phases": ["execute"]},
        {"capability": "email.send", "min_trust": "system", "allowed_phases": ["plan"]},
        {"capability": "Bad", "min_trust": "root", "allowed_phases": []},
    ]})
    with pytest.raises(PolicyError, match=r"^rules\[1\]: duplicate capability 'email\.send'$"):
        load_policy(document)
