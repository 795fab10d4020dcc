"""Simulated world: an email outbox, a row store and an HTTP fetch log.

Every handler journals (effect kind, directive id) exactly once per
invocation, reads included, so world history and provenance can be matched
record for record. The world's own surface is read-only; mutation happens
only inside the handlers wired by standard_registry(), and handlers are
reachable only through a kernel's issue pipeline.
"""

from __future__ import annotations

import json

from .directives import Directive
from .kernel import HandlerError, HandlerRegistry

EMAIL_SEND = "email.send"
DB_QUERY = "db.query"
WEB_BROWSE = "web.browse"
# The encoder json.dumps(rows, sort_keys=True, separators=(",", ":")) builds per call.
_encode_rows = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Obviously fake fixture data for the pre-seeded tables.
_SENSITIVE_ROWS = [
    {"id": "1", "owner": "test-subject-a", "secret": "FAKE-SECRET-0001"},
    {"id": "2", "owner": "test-subject-b", "secret": "FAKE-SECRET-0002"},
    {"id": "3", "owner": "test-subject-c", "secret": "FAKE-SECRET-0003"},
]
_USER_ROWS = [
    {"id": "1", "name": "alice.example"},
    {"id": "2", "name": "bob.example"},
]


class SimWorld:
    """World state reachable only through the registered handlers."""

    __slots__ = ("_outbox", "_tables", "_http_log", "_journal")

    def __init__(self, tables: dict[str, list[dict[str, str]]] | None = None):
        self._outbox: list[tuple[str, str]] = []
        self._tables = {
            name: [dict(row) for row in rows] for name, rows in (tables or {}).items()
        }
        self._http_log: list[str] = []
        self._journal: list[tuple[str, int]] = []

    @property
    def outbox(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._outbox)

    @property
    def http_log(self) -> tuple[str, ...]:
        return tuple(self._http_log)

    @property
    def journal(self) -> tuple[tuple[str, int], ...]:
        """(effect kind, directive id) per mutation or journaled read."""
        return tuple(self._journal)

    @property
    def mutation_count(self) -> int:
        return len(self._journal)

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def table(self, name: str) -> tuple[dict[str, str], ...]:
        return tuple(dict(row) for row in self._tables[name])

    def snapshot(self) -> dict:
        """JSON-safe view of the entire world, for assertions and the CLI."""
        return {
            "outbox": [[to, body] for to, body in self._outbox],
            "tables": {name: [dict(row) for row in rows] for name, rows in self._tables.items()},
            "http_log": list(self._http_log),
            "journal": [[kind, directive_id] for kind, directive_id in self._journal],
        }

    def snapshot_bytes(self) -> bytes:
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":")).encode("utf-8")


def seeded_world() -> SimWorld:
    """Fresh world with the fixture tables, including the sensitive one."""
    return SimWorld(tables={"sensitive": _SENSITIVE_ROWS, "users": _USER_ROWS})


def _require_str_param(directive: Directive, name: str) -> str:
    value = directive.params.get(name)
    if not isinstance(value, str):
        raise HandlerError(f"{directive.kind}: missing or non-string parameter {name!r}")
    return value


def _send_email(world: SimWorld, directive: Directive) -> str:
    to = _require_str_param(directive, "to")
    body = _require_str_param(directive, "body")
    world._outbox.append((to, body))
    world._journal.append((EMAIL_SEND, directive.id))
    return "sent"


def _query_table(world: SimWorld, directive: Directive) -> str:
    table = _require_str_param(directive, "table")
    select = _require_str_param(directive, "select")
    rows = world._tables.get(table)
    if rows is None:
        raise HandlerError(f"{DB_QUERY}: unknown table {table!r}")
    if select == "*":
        projected = rows
    else:
        if any(select not in row for row in rows):
            raise HandlerError(f"{DB_QUERY}: unknown column {select!r} in {table!r}")
        projected = [row[select] for row in rows]
    world._journal.append((DB_QUERY, directive.id))
    return _encode_rows(projected)


def _fetch_url(world: SimWorld, directive: Directive) -> str:
    url = _require_str_param(directive, "url")
    if url == "":
        raise HandlerError(f"{WEB_BROWSE}: url must not be empty")
    world._http_log.append(url)
    world._journal.append((WEB_BROWSE, directive.id))
    return "fetched"


def standard_registry() -> HandlerRegistry:
    """The three simulated tools; their key set is the expressiveness boundary."""
    return HandlerRegistry(
        {EMAIL_SEND: _send_email, DB_QUERY: _query_table, WEB_BROWSE: _fetch_url}
    )
