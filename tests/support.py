"""Seeded generators shared by randomized tests.

Everything here is driven by an explicit random.Random instance, so test
runs are reproducible. Generated workflows only emit kinds the simulated
world provides handlers for, with parameters those handlers accept; this
keeps allowed directives executable, which the journal/record matching
tests rely on.
"""

from __future__ import annotations

import hashlib
import random
import re

from effectgov import (
    Chain,
    ExecStatus,
    GovernanceKernel,
    Phase,
    Policy,
    PolicyRule,
    TrustLevel,
    seeded_world,
    standard_registry,
)
from effectgov.decisions import ALLOW_GRANTED, DENY_NO_CAPABILITY
from effectgov.directives import make_directive
from effectgov.provenance import ZERO_DIGEST
from effectgov.simworld import SIM_CAPABILITIES
from effectgov.workflow import Branch, Emit, Iterate, PureStep, Seq

SIM_KINDS = sorted(SIM_CAPABILITIES)
ALL_PHASES = list(Phase)
ALL_TRUST = list(TrustLevel)


def random_policy(rng: random.Random, capabilities=SIM_KINDS) -> Policy:
    rules = []
    for capability in capabilities:
        if rng.random() < 0.7:
            phase_count = rng.randint(1, len(ALL_PHASES))
            rules.append(
                PolicyRule(
                    capability=capability,
                    min_trust=rng.choice(ALL_TRUST),
                    allowed_phases=frozenset(rng.sample(ALL_PHASES, phase_count)),
                )
            )
    return Policy.from_rules(rules)


def valid_params_for(kind: str, rng: random.Random) -> dict:
    if kind == "email.send":
        return {"to": f"user{rng.randint(0, 9)}@example.test", "body": f"note {rng.randint(0, 99)}"}
    if kind == "db.query":
        return {"table": rng.choice(["sensitive", "users"]), "select": rng.choice(["*", "id"])}
    if kind == "web.browse":
        return {"url": f"http://site.example/{rng.randint(0, 99)}"}
    raise AssertionError(f"no parameter template for {kind}")


_PURE_FNS = [
    ("identity", lambda value: value),
    ("tag", lambda value: f"{value}|t"),
    ("length", lambda value: len(str(value))),
    ("shout", lambda value: str(value).upper()),
]


def _random_leaf(rng: random.Random, counter: list[int]):
    counter[0] += 1
    if rng.random() < 0.55:
        kind = rng.choice(SIM_KINDS)
        params = valid_params_for(kind, rng)
        return Emit(
            name=f"emit{counter[0]}",
            kind=kind,
            phase=rng.choice(ALL_PHASES),
            params_fn=lambda value, params=params: params,
        )
    name, fn = rng.choice(_PURE_FNS)
    return PureStep(name=f"{name}{counter[0]}", fn=fn)


def random_workflow(rng: random.Random, depth: int = 3, counter=None):
    if counter is None:
        counter = [0]
    if depth <= 0 or rng.random() < 0.15:
        return _random_leaf(rng, counter)
    shape = rng.random()
    if shape < 0.6:
        return Seq((
            random_workflow(rng, depth - 1, counter),
            random_workflow(rng, depth - 1, counter),
        ))
    if shape < 0.8:
        return Branch(
            predicate=lambda value: len(str(value)) % 2 == 0,
            then_arm=random_workflow(rng, depth - 1, counter),
            else_arm=random_workflow(rng, depth - 1, counter),
        )
    items = [rng.randint(0, 9) for _ in range(rng.randint(0, 3))]
    return Iterate(
        body=random_workflow(rng, depth - 1, counter),
        items_fn=lambda value, items=items: list(items),
    )


def random_input(rng: random.Random):
    return rng.choice(["", "seed", 7, 42, True, "padding-x"])


def fresh_kernel(policy: Policy, world=None) -> GovernanceKernel:
    return GovernanceKernel(policy, standard_registry(), world if world is not None else seeded_world())


def record_essence(record) -> tuple:
    """Record content that survives sequence renumbering.

    Drops seq, directive id and the hash links, which all depend on chain
    position; keeps everything governance acted on plus what happened.
    """
    return (
        record.directive.kind,
        dict(record.directive.params),
        record.directive.issuer,
        record.directive.trust,
        record.directive.phase,
        record.decision,
        record.exec_status,
        record.result_digest,
    )


_SEQ = re.compile(rb'^\{"seq":[0-9]+,')
_LINK_TAIL = re.compile(rb',"prev_hash":"[0-9a-f]{64}","this_hash":"[0-9a-f]{64}"\}$')


def relink(lines) -> bytes:
    """Chain bytes of edited lines, renumbered and re-hashed in their new order.

    Each line gets seq = its index and the links of the provenance module's
    formula, this_hash = SHA-256(prev_hash || line without this_hash), so
    only the rules other than seq and linking can refuse the result.
    """
    prev = bytes(32)
    out = []
    for index, line in enumerate(lines):
        line = _SEQ.sub(b'{"seq":%d,' % index, line, count=1)
        body = _LINK_TAIL.sub(b',"prev_hash":"%s"}' % prev.hex().encode(), line, count=1)
        this = hashlib.sha256(prev + body).digest()
        out.append(body[:-1] + b',"this_hash":"%s"}\n' % this.hex().encode())
        prev = this
    return b"".join(out)


def disagreeing_status_lines() -> list[bytes]:
    """Chain lines no kernel writes, unlinked: a record's status against its decision.

    Record 0 is denied but executed, record 1 allowed but skipped, and
    record 2 allowed, handler_missing, with a result digest.
    """
    chain = Chain()
    for id, decision, status, digest in (
        (1, DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST),
        (2, ALLOW_GRANTED, ExecStatus.EXECUTED, ZERO_DIGEST),
        (3, ALLOW_GRANTED, ExecStatus.HANDLER_MISSING, ZERO_DIGEST),
    ):
        directive = make_directive("email.send", {"to": "a@b.c", "body": "hi"}, "step",
                                   TrustLevel.AGENT, Phase.EXECUTE, id)
        chain.append(directive, decision, status, digest)
    lines = chain.export().split(b"\n")[:-1]
    edits = [(b'"exec_status":"skipped"', b'"exec_status":"executed"'),
             (b'"exec_status":"executed"', b'"exec_status":"skipped"'),
             (b'"result_digest":"%s"' % (b"0" * 64), b'"result_digest":"%s"' % (b"11" * 32))]
    for index, (old, new) in enumerate(edits):
        assert old in lines[index]
        lines[index] = lines[index].replace(old, new, 1)
    return lines
