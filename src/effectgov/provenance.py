"""Hash-linked provenance chain, written by the boundary as it executes.

The chain is not a reconstruction of what happened; appending a record is
part of performing (or refusing) the effect. One record per issued
directive, denials included.

Wire format is JSON Lines, one record per line, keys in this fixed order::

    {"seq":0,"directive":{...},"decision":{"verdict":...,"reason":...},
     "exec_status":"executed","result_digest":"<64 hex>",
     "prev_hash":"<64 hex>","this_hash":"<64 hex>"}

The line bytes are the canonical form of the record. The link digest is

    this_hash = SHA-256(prev_hash_bytes || line_with_this_hash_removed)

with the genesis record linking from 32 zero bytes. Hex is lowercase.
Records embed the directive in its canonical encoding, so a chain line is
bit-exact reproducible from the record's fields alone. ``Chain.append``
builds the line as bytes in one formatting step: the directive's canonical
bytes, held since the directive was built, go in as they are, next to the
decision's and status's precomputed wire bytes and the hex of the digests;
nothing is decoded and re-encoded. Once the line is in the buffer, the
directive lets its own copy of those bytes go.

``import_chain`` reads each line in place: one compiled recognizer for that
canonical line is matched over the line's span of the buffer, with no
slice. A line it accepts is, by construction, the canonical line of a
valid record, so the record is built from the match's groups: only the
params, and an issuer holding an escape, go through the C JSON scanner;
the line is not parsed as a whole, nor the directive rendered, nor the
record rendered back for comparison. A line it rejects, or one dense with
escapes, which the grammar reads slower than the JSON parser, is sliced
and parsed in full (JSON, field checks, then a re-render compared with the
line's bytes), which names the fault, so errors do not depend on the path.
Links and the other ``Chain`` rules are then checked over the line bytes,
as ``Chain.verify`` does.

A chain stores its line bytes once: one buffer, every line with its
trailing newline, which ``export`` returns and then shares with the chain.
``import_chain`` adopts the caller's ``bytes`` as that buffer without
splitting or copying it. Records stay built next to the buffer, because
every reader of a chain reads its records, and decoding them again from the
bytes would cost that reader the parse import already paid. A record is a
``NamedTuple`` of its fields and a directive a slotted frozen dataclass. A
record's directive does not repeat the buffer's bytes: ``append`` releases
the directive's canonical bytes once its line is in the buffer, and an
imported directive never holds any; ``Directive.canonical`` renders them
again.

``copy``, ``deepcopy`` and ``pickle`` rebuild records from their fields as
tuples, directives by their constructor (``__reduce__``), and a chain by
``import_chain`` from its bytes, so a copied chain shares only the
immutable buffer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import threading
from binascii import hexlify, unhexlify
from enum import Enum
from typing import NamedTuple, Optional

from .decisions import ALLOW_GRANTED, Decision, decision_from_obj
from .directives import (
    EFFECT_KIND_GRAMMAR,
    JSON_ERRORS,
    MAX_DIRECTIVE_ID,
    Directive,
    Phase,
    TrustLevel,
    _CANONICAL_TEMPLATE,
    _set_canonical,
    directive_from_obj,
    load_json,
)

HASH_SIZE = 32
ZERO_DIGEST = b"\x00" * HASH_SIZE


class ExecStatus(Enum):
    """What happened after the decision."""

    EXECUTED = "executed"
    SKIPPED = "skipped"  # decision was deny; the handler never ran
    HANDLER_MISSING = "handler_missing"  # allowed, but nothing provides the capability
    FAILED = "failed"  # handler ran and reported failure; no result

    def __init__(self, value: str):
        self._wire = value.encode()  # its text in the chain line, as bytes


_STATUS_BY_WIRE = {status.value: status for status in ExecStatus}
_SKIPPED = ExecStatus.SKIPPED
_EXECUTED = ExecStatus.EXECUTED


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


class ProvenanceRecord(NamedTuple):
    """One chain entry, as the tuple of its fields.

    It compares, copies and pickles by those fields, so it also equals the
    plain tuple of the same values; nothing in this package compares a
    record with anything but a record.
    """

    seq: int
    directive: Directive
    decision: Decision
    exec_status: ExecStatus
    result_digest: bytes
    prev_hash: bytes
    this_hash: bytes


class VerificationReport(NamedTuple):
    valid: bool
    first_bad_index: Optional[int] = None


_BODY_TEMPLATE = (
    b'{"seq":%d,"directive":%b,"decision":%b,"exec_status":"%b",'
    b'"result_digest":"%b","prev_hash":"%b"}'
)


def _record_body(
    seq: int,
    directive: Directive,
    decision: Decision,
    exec_status: ExecStatus,
    result_digest: bytes,
    prev_hash: bytes,
) -> bytes:
    return _BODY_TEMPLATE % (
        seq,
        directive.canonical,
        decision.wire,
        exec_status._wire,
        hexlify(result_digest),
        hexlify(prev_hash),
    )


_TAIL = b',"this_hash":"%b"}'  # the line's last field, in place of the body's "}"


def _with_this_hash(body: bytes, this_hash: bytes) -> bytes:
    """The chain line of a record body, with its newline."""
    return body[:-1] + _TAIL % hexlify(this_hash) + b"\n"


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
    return _with_this_hash(body, record.this_hash)[:-1]


# Width of the line's _TAIL, filled. Cutting it and restoring the closing
# brace gives back the hashed body; every way into a chain (append, and
# import's recognizer and full parse) holds this_hash and result_digest to
# HASH_SIZE bytes.
_TAIL_SIZE = len(_TAIL % bytes(2 * HASH_SIZE))


def _link_hash(prev: bytes, data: bytes, start: int, end: int) -> bytes:
    """Link digest of the line ``data[start:end]``, hashed from the buffer."""
    return hashlib.sha256(prev + data[start : end - _TAIL_SIZE] + b"}").digest()


def _first_bad_index(records, data, ends) -> Optional[int]:
    """Lowest index whose record breaks a ``Chain`` rule, or None if none does.

    Record i's line is the bytes of ``data`` before the newline at offset
    ``ends[i]`` and after the one at ``ends[i - 1]``.
    """
    prev = ZERO_DIGEST
    last_id = 0
    start = 0
    for index, (record, end) in enumerate(zip(records, ends)):
        if (
            record.seq != index
            or record.prev_hash != prev
            or record.directive.id <= last_id
            or (record.exec_status is _SKIPPED) is (record.decision is ALLOW_GRANTED)
            or (record.exec_status is not _EXECUTED and record.result_digest != ZERO_DIGEST)
            or _link_hash(prev, data, start, end) != record.this_hash
        ):
            return index
        prev = record.this_hash
        last_id = record.directive.id
        start = end + 1
    return None


class Chain:
    """Append-only sequence of provenance records.

    Record i has seq i, links from record i - 1's this_hash, carries a
    directive id above record i - 1's, is skipped if and only if its
    verdict is deny, and has a non-zero result digest only if executed.
    Every construction path keeps these rules (a new chain is empty, append
    refuses a record that breaks one, import_chain verifies) and records
    are tuples, so an invalid chain is unreachable through this API.
    There is deliberately no operation that removes or reorders records.
    A copy is imported from the export, so it is verified again.

    The line bytes are stored once, in one buffer that is the export: every
    line with its trailing newline, and the offset of each line's newline,
    next to the records built from them. The buffer is a ``bytearray`` while
    records are appended and immutable ``bytes`` once exported or imported:
    ``import_chain`` adopts the caller's ``bytes``, ``export`` returns the
    buffer and keeps it, and the next ``append`` copies it once. The
    records' directives hold no canonical bytes of their own: ``append``
    releases them and imported ones never hold them.
    """

    __slots__ = ("_records", "_data", "_ends", "_lock", "_in_issue")

    def __init__(self):
        self._records: list[ProvenanceRecord] = []
        self._data: bytes | bytearray = b""
        self._ends: list[int] = []
        # Held while append grows the buffer and while export swaps it for
        # its immutable copy: unheld, a swap could drop a line just added.
        # The boundary's one lock: kernel.issue holds it from reading
        # last_id through its append, which takes it again, re-entrantly.
        self._lock = threading.RLock()
        # Set by kernel.issue while its handler runs, under the lock, so
        # only that handler sees it: it may not issue or append here.
        self._in_issue = False

    @classmethod
    def _adopt(cls, records: list, data: bytes, ends: list) -> "Chain":
        """Chain of records over their canonical lines in ``data``, if they verify."""
        index = _first_bad_index(records, data, ends)
        if index is not None:
            raise ChainIntegrityError(
                index, "record breaks a chain rule (seq, link, id, status or digest)"
            )
        chain = cls()
        chain._records = records
        chain._data = data
        chain._ends = ends
        return chain

    def __reduce__(self):
        return import_chain, (self.export(),)

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        # Each record's this_hash is a SHA-256 over its line, so equal
        # records and equal bytes are the same condition.
        if not isinstance(other, Chain):
            return NotImplemented
        return self._data == other._data

    @property
    def records(self) -> tuple[ProvenanceRecord, ...]:
        return tuple(self._records)

    @property
    def tip(self) -> bytes:
        """Hash the next record must link from."""
        return self._records[-1].this_hash if self._records else ZERO_DIGEST

    @property
    def last_id(self) -> int:
        """Directive id the next record must be above: the last record's, or 0."""
        return self._records[-1].directive.id if self._records else 0

    def append(
        self,
        directive: Directive,
        decision: Decision,
        exec_status: ExecStatus,
        result_digest: bytes,
    ) -> ProvenanceRecord:
        if len(result_digest) != HASH_SIZE:
            raise ValueError(f"result digest must be {HASH_SIZE} bytes")
        if (exec_status is _SKIPPED) is (decision is ALLOW_GRANTED):
            raise ValueError("a record is skipped if and only if it is denied")
        if exec_status is not _EXECUTED and result_digest != ZERO_DIGEST:
            raise ValueError("only an executed record carries a result digest")
        with self._lock:
            if self._in_issue:
                raise RuntimeError("a handler cannot append to the chain it is recorded in")
            last_id = self.last_id
            if directive.id <= last_id:
                raise ValueError(f"directive id {directive.id} is not above the last id {last_id}")
            seq = len(self._records)
            prev = self.tip
            body = _record_body(seq, directive, decision, exec_status, result_digest, prev)
            this = hashlib.sha256(prev + body).digest()
            record = ProvenanceRecord(
                seq, directive, decision, exec_status, result_digest, prev, this
            )
            data = self._data
            if type(data) is bytes:  # empty, imported or exported: copy it once
                data = self._data = bytearray(data)
            data += _with_this_hash(body, this)
            _set_canonical(directive, None)  # the buffer holds them now
            self._ends.append(len(data) - 1)
            self._records.append(record)
            return record

    def verify(self) -> VerificationReport:
        """Recheck every link over the stored lines; renders nothing."""
        index = _first_bad_index(self._records, self._data, self._ends)
        return VerificationReport(valid=index is None, first_bad_index=index)

    def export(self) -> bytes:
        """JSON Lines; the exact bytes that were hashed, one record per line.

        The chain keeps the returned bytes as its buffer, so it does not
        hold a second copy of its export; the next ``append`` copies them
        once. For a chain imported from ``bytes`` and not appended to since,
        this is that same object.
        """
        with self._lock:
            data = self._data
            if type(data) is not bytes:
                data = self._data = bytes(data)
            return data


_RECORD_KEYS = frozenset(
    {"seq", "directive", "decision", "exec_status", "result_digest", "prev_hash", "this_hash"}
)


def _digest_from_hex(value, index: int, name: str) -> bytes:
    """Digest of a hex field; its spelling is left to the canonical compare."""
    try:
        digest = bytes.fromhex(value)
    except (TypeError, ValueError):
        digest = b""
    if len(digest) != HASH_SIZE:
        raise ChainIntegrityError(index, f"{name} is not 64 lowercase hex characters")
    return digest


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


def _parse_line(raw: bytes, index: int) -> ProvenanceRecord:
    """Record of one chain line through the JSON parser; raises what is wrong."""
    try:
        obj = load_json(raw)
    except JSON_ERRORS as exc:
        raise ChainFormatError(index + 1, f"not valid JSON: {exc}") from None
    record = _record_from_obj(obj, index)
    if record_line(record) != raw:
        raise ChainIntegrityError(index, "record bytes are not in canonical form")
    _set_canonical(record.directive, None)  # raw holds them
    return record


# The canonical-line recognizer: the writer's templates, literals escaped,
# with one field pattern per placeholder. Strings are spelled exactly as
# json.encoder.encode_basestring spells them, integers carry no sign on
# zero and no leading zeros, each enum and the four consistent decisions
# are listed, and required_capability repeats kind. Only string bodies
# admit bytes outside ASCII, so decoding the issuer and the params strictly
# checks the whole line's UTF-8.
_PHASES = {phase.value.encode(): phase for phase in Phase}
_TRUSTS = {level.wire_name.encode(): level for level in TrustLevel}
_STATUSES = {status._wire: status for status in ExecStatus}
_DECISIONS = {decision.wire: decision for decision in Decision}


def _one_of(table) -> str:
    return "|".join(re.escape(key.decode("ascii")) for key in table)


_NATURAL = r"(?:0|[1-9][0-9]*)"
_INTEGER = r"(?:0|-?[1-9][0-9]*)"
_PLAIN = r'[^"\\\x00-\x1f]*'
# An unrolled loop; a per-character alternation is slower than a full parse.
_STRING = r'"%s(?:\\(?:["\\bfnrt]|u00(?:0[0-7bef]|1[0-9a-f]))%s)*"' % (_PLAIN, _PLAIN)
_PAIR = r"%s:(?:%s|%s|true|false)" % (_STRING, _STRING, _INTEGER)
_HEX = r"[0-9a-f]{64}"
_LINE_FIELDS = (
    "(?P<seq>%s)" % _NATURAL,
    "(?P<id>%s)" % _NATURAL,
    '(?P<issuer>(?!"")%s)' % _STRING,
    "(?P<kind>%s)" % EFFECT_KIND_GRAMMAR,
    r"(?P<params>\{(?:%s(?:,%s)*)?\})" % (_PAIR, _PAIR),
    "(?P<phase>%s)" % _one_of(_PHASES),
    "(?P=kind)",
    "(?P<trust>%s)" % _one_of(_TRUSTS),
    "(?P<decision>%s)" % _one_of(_DECISIONS),
    "(?P<status>%s)" % _one_of(_STATUSES),
    "(?P<result>%s)" % _HEX,
    "(?P<prev>%s)" % _HEX,
    "(?P<this>%s)" % _HEX,
)


# Built and compiled on the first import_chain, not at import: that takes a
# few ms, which processes that never import a chain would pay for nothing.
# A template edit that adds or drops a field fails the zip there.
@functools.cache
def _line_matcher():
    # The body's first %b is its directive slot, and _TAIL takes its "}".
    template = _BODY_TEMPLATE.replace(b"%b", _CANONICAL_TEMPLATE.encode(), 1)[:-1] + _TAIL
    first, *literals = re.split(rb"%[dsb]", template)
    pattern = re.escape(first) + b"".join(
        field.encode("ascii") + re.escape(literal)
        for field, literal in zip(_LINE_FIELDS, literals, strict=True)
    )
    return re.compile(pattern).fullmatch


# The C scanner json.loads drives, without the Python frames around it: a
# string or an object read from its first character, returned with its end.
_scan = json.decoder.JSONDecoder().scan_once

# Past this many backslashes a line goes straight to the full parse: the
# grammar pays one group repeat per escape, json.loads far less. Measured on
# a 1.3 KB line (timeit min, CPython 3.11, 2 shared vCPUs), recognize
# against full parse: 64 escapes 16.5-18.9 against 19.0-21.0 us, 96 escapes
# 19.6-19.7 against 17.2-18.0 us, 256 escapes 29-31 against 18-20 us.
_MAX_RECOGNIZED_ESCAPES = 64


def _recognize(data: bytes, start: int, end: int) -> Optional[ProvenanceRecord]:
    """The record whose canonical line is ``data[start:end]``, or None.

    The line is matched in place, without a slice. A line accepted here is,
    by the grammar and the checks below, the line ``record_line`` renders
    for the record returned, so the line is not parsed as a whole nor
    rendered back. None only means the recognizer does not vouch for the
    line (more than ``_MAX_RECOGNIZED_ESCAPES`` backslashes, an integer past
    the int-string limit, an id past 64 bits, params keys out of order or
    repeated, bad UTF-8, or any spelling the grammar lacks); the caller then
    parses it in full and names the fault.
    """
    if data.count(b"\\", start, end) > _MAX_RECOGNIZED_ESCAPES:
        return None
    match = _line_matcher()(data, start, end)
    if match is None:
        return None
    seq, id_, issuer, kind, params, phase, trust, decision, status, result, prev, this = (
        match.groups()
    )
    try:
        seq = int(seq)
        id_ = int(id_)
        issuer = issuer.decode("utf-8")
        issuer = _scan(issuer, 0)[0] if "\\" in issuer else issuer[1:-1]
        values = _scan(params.decode("utf-8"), 0)[0]
    except ValueError:
        return None
    if id_ > MAX_DIRECTIVE_ID:
        return None
    # A repeated key collapses in the dict, so count the line's own keys by
    # their '":'; a string that holds '":' takes the full parse.
    keys = list(values)
    if len(keys) != params.count(b'":') or keys != sorted(keys):
        return None
    return ProvenanceRecord(
        seq,
        Directive._from_canonical(
            id_, kind.decode("ascii"), values, issuer, _TRUSTS[trust], _PHASES[phase]
        ),
        _DECISIONS[decision],
        _STATUSES[status],
        unhexlify(result),
        unhexlify(prev),
        unhexlify(this),
    )


def import_chain(data: bytes) -> Chain:
    """Parse and verify an exported chain.

    Raises ChainFormatError (with line number) for lines that are not
    valid JSON, and ChainIntegrityError (with record index) for records
    that parse but are not canonical or do not verify. Every line is parsed
    before any link is checked.

    An exact ``bytes`` that ends in a newline becomes the chain's buffer
    without a copy. Anything else is copied once, since the caller could
    change a mutable buffer later; a ``str`` is encoded as UTF-8, a lone
    surrogate passed through to fail its line's strict decode, and data
    without a final newline gets one.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    elif type(data) is not bytes:
        data = bytes(memoryview(data))  # bytes() alone would take an int as a size
    if data and not data.endswith(b"\n"):
        data += b"\n"
    records = []
    ends = []
    find = data.find
    start = 0
    while start < len(data):
        end = find(b"\n", start)
        record = _recognize(data, start, end)
        if record is None:
            record = _parse_line(data[start:end], len(records))
        records.append(record)
        ends.append(end)
        start = end + 1
    return Chain._adopt(records, data, ends)
