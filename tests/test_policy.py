"""Policy rules, capability lookup and the policy file format."""

import copy
import json
import pickle

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
    policy = Policy([rule()])
    assert policy.rules.get("email.send") == rule()


def test_lookup_miss_is_none():
    policy = Policy([rule()])
    assert policy.rules.get("web.browse") is None


def test_lookup_on_empty_policy():
    assert EMPTY_POLICY.rules.get("anything.at_all") is None


def test_load_policy_two_rules():
    policy = load_policy(TWO_RULE_DOCUMENT)
    assert len(policy.rules) == 2
    assert set(policy.rules) == {"email.send", "db.query"}
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
    assert set(policy.rules) == {"credit_card.read"}


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
    lambda specs: Policy(
        [PolicyRule(capability=c, min_trust=t, allowed_phases=p) for c, t, p in specs]
    )
)


@given(policies)
@settings(max_examples=200)
def test_copy_and_pickle_roundtrip(policy):
    # A copy is rebuilt by Policy(rules), so it holds its own rule map.
    for copied in (copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))):
        assert copied == policy and copied.rules is not policy.rules


def test_duplicate_rule_construction_rejected():
    with pytest.raises(PolicyError, match="duplicate"):
        Policy([rule(), rule(min_trust=TrustLevel.SYSTEM)])


def test_duplicate_is_reported_at_its_position_before_later_faults():
    with pytest.raises(PolicyError, match=r"^rules\[1\]: duplicate capability 'email\.send'$"):
        Policy([rule(), rule(min_trust=TrustLevel.SYSTEM)])
    document = json.dumps({"rules": [
        {"capability": "email.send", "min_trust": "agent", "allowed_phases": ["execute"]},
        {"capability": "email.send", "min_trust": "system", "allowed_phases": ["plan"]},
        {"capability": "Bad", "min_trust": "root", "allowed_phases": []},
    ]})
    with pytest.raises(PolicyError, match=r"^rules\[1\]: duplicate capability 'email\.send'$"):
        load_policy(document)


def test_policy_refuses_an_entry_that_is_not_a_rule_at_its_position():
    with pytest.raises(PolicyError, match=r"^rules\[1\]: not a PolicyRule: 1$"):
        Policy([rule(), 1])
    # A mapping is iterated as its keys, which are not rules either.
    with pytest.raises(PolicyError, match=r"^rules\[0\]: not a PolicyRule: 'email\.send'$"):
        Policy({"email.send": rule()})


def test_policy_is_its_rules_sorted_and_read_only():
    policy = Policy(iter([rule("web.browse"), rule("db.query")]))
    assert list(policy.rules) == ["db.query", "web.browse"]
    assert policy == Policy([rule("db.query"), rule("web.browse")])
    with pytest.raises(TypeError):
        policy.rules["email.send"] = rule()


def test_equal_policies_hash_equal():
    # Equal rule sets, given in any order, make one policy and one hash.
    policy = Policy([rule("web.browse"), rule("db.query")])
    same = Policy([rule("db.query"), rule("web.browse")])
    assert hash(policy) == hash(same) and len({policy, same, copy.deepcopy(policy)}) == 1
    assert len({policy, Policy([rule("db.query")]), Policy([])}) == 3


def test_rule_refuses_a_trust_or_phase_of_the_wrong_type():
    with pytest.raises(PolicyError, match="min_trust must be a TrustLevel, got 'agent'"):
        PolicyRule(capability="email.send", min_trust="agent",
                   allowed_phases=frozenset({Phase.EXECUTE}))
    with pytest.raises(PolicyError, match="allowed_phases entry is not a Phase: 'execute'"):
        PolicyRule(capability="email.send", min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({"execute"}))


def test_load_policy_refuses_a_repeated_phase_and_non_list_rules():
    document = json.dumps({"rules": [
        {"capability": "email.send", "min_trust": "agent", "allowed_phases": ["execute"]},
        {"capability": "db.query", "min_trust": "agent",
         "allowed_phases": ["plan", "plan"]},
    ]})
    with pytest.raises(PolicyError, match=r"^rules\[1\]: repeated phase in allowed_phases$"):
        load_policy(document)
    with pytest.raises(PolicyError, match="^'rules' must be a list$"):
        load_policy(json.dumps({"rules": {"email.send": {}}}))
