"""Hash-linked provenance chain, written by the boundary as it executes.

The chain is not a reconstruction of what happened; appending a record is
part of performing (or refusing) the effect. One record per submission,
denials included.

Wire format is JSON Lines, one record per line, keys in this fixed order::

    {"seq":0,"directive":{...},"decision":{"verdict":...,"reason":...},
     "exec_status":"executed","result_digest":"<64 hex>",
     "prev_hash":"<64 hex>","this_hash":"<64 hex>"}

The line bytes are the canonical form of the record. The link digest is

    this_hash = SHA-256(prev_hash_bytes || line_with_this_hash_removed)

with the genesis record linking from 32 zero bytes. Hex is lowercase.
Records embed the directive in its canonical encoding, so a chain line is
bit-exact reproducible from the record's fields alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .decisions import Decision, decision_from_obj, decision_wire_json
from .directives import JSON_ERRORS, Directive, directive_from_obj, load_json

HASH_SIZE = 32
ZERO_DIGEST = b"\x00" * HASH_SIZE


class ExecStatus(Enum):
    """What happened after the decision."""

    EXECUTED = "executed"
    SKIPPED = "skipped"  # decision was deny; the handler never ran
    HANDLER_MISSING = "handler_missing"  # allowed, but nothing provides the capability
    FAILED = "failed"  # handler ran and reported failure; no result


_STATUS_BY_WIRE = {status.value: status for status in ExecStatus}


class ChainFormatError(ValueError):
    """A chain file could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ChainIntegrityError(ValueError):
    """A chain failed verification; carries the first bad record index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"record {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class ProvenanceRecord:
    seq: int
    directive: Directive
    decision: Decision
    exec_status: ExecStatus
    result_digest: bytes
    prev_hash: bytes
    this_hash: bytes


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    first_bad_index: Optional[int] = None


def _record_body(
    seq: int,
    directive: Directive,
    decision: Decision,
    exec_status: ExecStatus,
    result_digest: bytes,
    prev_hash: bytes,
) -> bytes:
    return (
        '{"seq":%d,"directive":%s,"decision":%s,"exec_status":"%s",'
        '"result_digest":"%s","prev_hash":"%s"}'
        % (
            seq,
            directive.canonical.decode("utf-8"),
            decision_wire_json(decision),
            exec_status.value,
            result_digest.hex(),
            prev_hash.hex(),
        )
    ).encode("utf-8")


def _with_this_hash(body: bytes, this_hash: bytes) -> bytes:
    return b'%s,"this_hash":"%s"}' % (body[:-1], this_hash.hex().encode("ascii"))


def record_line(record: ProvenanceRecord) -> bytes:
    """The record's canonical wire line (without trailing newline)."""
    body = _record_body(
        record.seq,
        record.directive,
        record.decision,
        record.exec_status,
        record.result_digest,
        record.prev_hash,
    )
    return _with_this_hash(body, record.this_hash)


# Width of the line's ',"this_hash":"<64 hex>"}' tail. Cutting it and
# restoring the closing brace gives back the hashed body; that is only
# sound once this_hash is known to be HASH_SIZE bytes.
_TAIL_SIZE = len(b',"this_hash":""}') + 2 * HASH_SIZE


def _link_hash(prev: bytes, line: bytes) -> bytes:
    return hashlib.sha256(prev + line[:-_TAIL_SIZE] + b"}").digest()


def _first_bad_index(records, lines) -> Optional[int]:
    """Lowest index whose record breaks the chain, or None if all link."""
    prev = ZERO_DIGEST
    for index, (record, line) in enumerate(zip(records, lines)):
        if (
            record.seq != index
            or record.prev_hash != prev
            or len(record.result_digest) != HASH_SIZE
            or len(record.this_hash) != HASH_SIZE
            or _link_hash(prev, line) != record.this_hash
        ):
            return index
        prev = record.this_hash
    return None


class Chain:
    """Append-only sequence of provenance records.

    Every construction path establishes validity (a new chain is empty;
    from_records and import_chain verify) and records are immutable, so
    an invalid chain is unreachable through this API and append stays
    O(1). There is deliberately no operation that removes or reorders
    records.
    """

    __slots__ = ("_records", "_lines")

    def __init__(self):
        self._records: list[ProvenanceRecord] = []
        self._lines: list[bytes] = []

    @classmethod
    def from_records(cls, records: Iterable[ProvenanceRecord]) -> "Chain":
        """Adopt existing records, refusing any that fail verification."""
        records = list(records)
        return cls._adopt(records, [record_line(record) for record in records])

    @classmethod
    def _adopt(cls, records: list, lines: list) -> "Chain":
        """Chain of records and their canonical lines, if they verify."""
        index = _first_bad_index(records, lines)
        if index is not None:
            raise ChainIntegrityError(index, "hash chain does not verify")
        chain = cls()
        chain._records = records
        chain._lines = lines
        return chain

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self._records == other._records

    @property
    def records(self) -> tuple[ProvenanceRecord, ...]:
        return tuple(self._records)

    @property
    def tip(self) -> bytes:
        """Hash the next record must link from."""
        return self._records[-1].this_hash if self._records else ZERO_DIGEST

    def append(
        self,
        directive: Directive,
        decision: Decision,
        exec_status: ExecStatus,
        result_digest: bytes,
    ) -> ProvenanceRecord:
        if len(result_digest) != HASH_SIZE:
            raise ValueError(f"result digest must be {HASH_SIZE} bytes")
        seq = len(self._records)
        prev = self.tip
        body = _record_body(seq, directive, decision, exec_status, result_digest, prev)
        this = hashlib.sha256(prev + body).digest()
        record = ProvenanceRecord(
            seq=seq,
            directive=directive,
            decision=decision,
            exec_status=exec_status,
            result_digest=result_digest,
            prev_hash=prev,
            this_hash=this,
        )
        self._records.append(record)
        self._lines.append(_with_this_hash(body, this))
        return record

    def verify(self) -> VerificationReport:
        """Recheck every link over the stored lines; renders nothing."""
        index = _first_bad_index(self._records, self._lines)
        return VerificationReport(valid=index is None, first_bad_index=index)

    def export(self) -> bytes:
        """JSON Lines; the exact bytes that were hashed, one record per line."""
        return b"".join(line + b"\n" for line in self._lines)


_RECORD_KEYS = frozenset(
    {"seq", "directive", "decision", "exec_status", "result_digest", "prev_hash", "this_hash"}
)


def _digest_from_hex(value, index: int, name: str) -> bytes:
    try:
        digest = bytes.fromhex(value)
    except (TypeError, ValueError):
        digest = None
    if digest is not None and len(digest) == HASH_SIZE and digest.hex() == value:
        return digest
    if (
        not isinstance(value, str)
        or len(value) != 2 * HASH_SIZE
        or value != value.lower()
    ):
        raise ChainIntegrityError(index, f"{name} is not 64 lowercase hex characters")
    raise ChainIntegrityError(index, f"{name} is not hex")


def _record_from_obj(obj, index: int) -> ProvenanceRecord:
    if not isinstance(obj, dict) or obj.keys() != _RECORD_KEYS:
        raise ChainIntegrityError(index, "record does not have the fixed field set")
    seq = obj["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ChainIntegrityError(index, f"seq must be a non-negative integer, got {seq!r}")
    try:
        directive = directive_from_obj(obj["directive"])
        decision = decision_from_obj(obj["decision"])
    except ValueError as exc:
        raise ChainIntegrityError(index, str(exc)) from None
    status = _STATUS_BY_WIRE.get(obj["exec_status"])
    if status is None:
        raise ChainIntegrityError(index, f"unknown exec_status {obj['exec_status']!r}")
    return ProvenanceRecord(
        seq=seq,
        directive=directive,
        decision=decision,
        exec_status=status,
        result_digest=_digest_from_hex(obj["result_digest"], index, "result_digest"),
        prev_hash=_digest_from_hex(obj["prev_hash"], index, "prev_hash"),
        this_hash=_digest_from_hex(obj["this_hash"], index, "this_hash"),
    )


def import_chain(data: bytes) -> Chain:
    """Parse and verify an exported chain.

    Raises ChainFormatError (with line number) for lines that are not
    valid JSON, and ChainIntegrityError (with record index) for records
    that parse but are not canonical or do not verify.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    records = []
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for position, raw in enumerate(lines):
        try:
            obj = load_json(raw)
        except JSON_ERRORS as exc:
            raise ChainFormatError(position + 1, f"not valid JSON: {exc}") from None
        record = _record_from_obj(obj, position)
        if record_line(record) != raw:
            raise ChainIntegrityError(position, "record bytes are not in canonical form")
        records.append(record)
    return Chain._adopt(records, lines)
