"""Directive vocabulary: structured descriptions of intended effects.

A directive is inert data. Constructing one never touches any world state;
it only describes what an effect handler would be asked to do. Whether the
description becomes an effect is decided elsewhere, at the governance
boundary.

Canonical encoding, fixed here because provenance hashing and interchange
both depend on it: UTF-8 JSON, object keys sorted lexicographically, no
insignificant whitespace, integers base-10, booleans ``true``/``false``.
Directives with equal fields always produce identical bytes. These are the
bytes ``json.dumps(obj, sort_keys=True, separators=(",", ":"),
ensure_ascii=False)`` gives, rendered here as text into one template for
the directive's seven keys and encoded once. A str value of ``_LONG_STR``
characters or more is left out of the text and escaped on its UTF-8 bytes,
which are spliced into the encoded text (``_encode_spliced``).

A directive is built in one pass: ``Directive.__init__``, which the kernel
calls directly, checks the fields in a fixed order (id, kind, issuer,
trust, phase, params), renders the params and the canonical bytes, and
stores every field once. It holds the bytes only until a chain appends
them, and ``Directive.canonical`` renders them again on the rare later
read. The chain importer adopts fields it has proved canonical through
``Directive._from_canonical``, which stores no bytes. Directives compare
and hash by their six fields, never by the bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from types import MappingProxyType
from typing import Mapping, Union

Scalar = Union[str, int, bool]

MAX_DIRECTIVE_ID = 2**64 - 1

# Grammar for effect kinds: [a-z0-9_]+ segments joined by '.', read as one
# run with no '..' and no '.' at an end, as a group repeated per segment
# keeps matcher state for each (40 MB on a 600 KB kind). validate_kind
# accepts with it and, on rejection, searches for the first fault. \Z,
# because $ would also match before a trailing newline. It captures no group,
# so the chain-line recognizer that embeds it reads its own groups by position.
EFFECT_KIND_GRAMMAR = r"(?![a-z0-9_.]*\.\.)[a-z0-9_][a-z0-9_.]*(?<!\.)"
_kind_fullmatch = re.compile(EFFECT_KIND_GRAMMAR).fullmatch
_KIND_FAULT = r"[^a-z0-9_.]|(?<![a-z0-9_])\.|\.\Z"


class DirectiveError(ValueError):
    """A directive field failed validation."""


class TrustLevel(IntEnum):
    """Issuer rank. Policies demand a minimum; comparison is ordinal."""

    UNTRUSTED = 0
    AGENT = 1
    OPERATOR = 2
    SYSTEM = 3

    @property
    def wire_name(self) -> str:
        return self.name.lower()


class Phase(Enum):
    """Lifecycle stage a directive declares; policies constrain it."""

    PLAN = "plan"
    EXECUTE = "execute"
    FINALIZE = "finalize"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with ==; Enum's own hashes the name in Python, and decide()
    # hashes the phase on every submission.
    __hash__ = object.__hash__


def _wire_reader(members: dict, what: str):
    """Reader of an enum's wire name; raises DirectiveError for any other value."""

    def from_wire(name):
        try:
            return members[name]
        except (KeyError, TypeError):
            raise DirectiveError(f"unknown {what} {name!r}") from None

    return from_wire


trust_from_wire = _wire_reader({level.wire_name: level for level in TrustLevel}, "trust level")
phase_from_wire = _wire_reader({phase.value: phase for phase in Phase}, "phase")


def validate_kind(kind: str) -> str:
    """Check an effect-kind string against the dot-separated grammar.

    Returns the kind unchanged, or raises DirectiveError naming the first
    offending character and its index.
    """
    if not isinstance(kind, str):
        raise DirectiveError(f"effect kind must be a string, got {type(kind).__name__}")
    if _kind_fullmatch(kind):
        return kind
    if kind == "":
        raise DirectiveError("effect kind must not be empty")
    fault = re.search(_KIND_FAULT, kind)
    index, char = fault.start(), fault.group()
    if char == ".":
        raise DirectiveError(f"effect kind {kind!r}: misplaced '.' at index {index}")
    raise DirectiveError(f"effect kind {kind!r}: invalid character {char!r} at index {index}")


# Everything json.loads raises on hostile input: bad UTF-8, bad JSON and an
# integer past the int-string limit are ValueErrors; nesting deeper than
# the interpreter's recursion limit is a RecursionError.
JSON_ERRORS = (ValueError, RecursionError)


def load_json(document: bytes | str):
    """Parse one JSON document; bytes must be UTF-8, and a BOM is refused.

    Raises one of ``JSON_ERRORS``. Bytes go to json.loads only as decoded
    text, because on bytes it would also take UTF-16 and UTF-32.
    """
    if isinstance(document, (bytes, bytearray)):
        document = document.decode("utf-8")
    return json.loads(document)


def check_fields(obj, required, optional, where: str, error: type[Exception]) -> None:
    """Check that a parsed JSON value is an object with exactly the given fields.

    Every field in ``required`` must be present and no field outside
    ``required`` and ``optional`` may be. Raises ``error`` naming the first
    unknown field, else the first missing one (sorted), after ``where: `` if any.
    """
    if not isinstance(obj, dict):
        problem = f"must be a JSON object, got {type(obj).__name__}"
    elif obj.keys() == required:
        return
    elif not obj.keys() <= required | optional:
        problem = f"unknown field {min(obj.keys() - required - optional)!r}"
    elif not obj.keys() >= required:
        problem = f"missing field {min(required - obj.keys())!r}"
    else:
        return
    raise error(f"{where}: {problem}" if where else problem)


def check_count(value, name: str, minimum: int) -> int:
    """Check that value is an integer (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


_encode_str = json.encoder.encode_basestring

# From this many characters a str value is escaped on its UTF-8 bytes, which
# in a directive beats encode_basestring's two passes per character from
# 384-448 characters of perfbench's text (CPython 3.11, 2 shared vCPUs).
_LONG_STR = 448
_ABOVE_CONTROLS = bytes(range(0x20, 0x100))
# A long str's place in the text, until its bytes are spliced in: no other
# JSON text holds a NUL, which the encoder escapes.
_LONG_PLACE = '"\0"'


def _encode_spliced(text: str, spliced: list) -> bytes:
    """``text`` in UTF-8, with the JSON of the spliced strs in its ``_LONG_PLACE``s.

    A spliced str is escaped on its UTF-8 bytes: a non-ASCII character
    encodes to bytes of 0x80 and above, so each byte JSON escapes is ASCII.
    One that holds a control byte is left to the encoder.
    """
    try:
        pieces = text.encode("utf-8").split(b"\0")
        joined = [pieces[0]]
        for value, piece in zip(spliced, pieces[1:]):
            raw = str.encode(value, "utf-8")
            if raw.translate(None, _ABOVE_CONTROLS):
                raw = _encode_str(value)[1:-1].encode("utf-8")
            else:
                raw = raw.replace(b"\\", b"\\\\").replace(b'"', b'\\"')
            joined += raw, piece
        return b"".join(joined)
    except UnicodeEncodeError:
        # A lone surrogate: encode the whole text, so the error is the
        # reference encoder's own, at its position in that text.
        for value in spliced:
            text = text.replace(_LONG_PLACE, _encode_str(value), 1)
        text.encode("utf-8")
        raise


def _scalar_json(value) -> str | None:
    """JSON text of a scalar, spelled as json.dumps spells it; None if not one.

    Raises ValueError for an int past the interpreter's int-string limit.
    The text may hold a lone surrogate; encoding it to UTF-8 then fails.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def canonical_value_bytes(value: Scalar) -> bytes:
    """Canonical encoding of a single scalar (handler results use this).

    Raises DirectiveError, ``non-scalar <type>`` for any other value.
    """
    try:
        text = _scalar_json(value)
        if text is not None:
            return text.encode("utf-8")
    except ValueError as exc:
        raise DirectiveError(f"value has no canonical encoding: {exc}") from None
    raise DirectiveError(f"non-scalar {type(value).__name__}")


def _render_params(params, spliced: list) -> tuple[Mapping[str, Scalar], str]:
    """Check params and render them: a key-sorted read-only view and its JSON.

    Long str values go on ``spliced`` in key order, their places ``_LONG_PLACE``.
    Raises ValueError (not a DirectiveError) for an int past the int-string
    limit, which the caller reports as having no canonical encoding.
    """
    # A dict is by far the usual argument; isinstance against the Mapping
    # ABC costs more than the rest of the check.
    if type(params) is not dict and not isinstance(params, Mapping):
        raise DirectiveError(f"params must be a mapping, got {type(params).__name__}")
    items = []
    for key, value in params.items():
        if not isinstance(key, str):
            raise DirectiveError(f"param key must be a string, got {key!r}")
        if type(value) is str:
            text = _encode_str(value) if len(value) < _LONG_STR else None
        elif (text := _scalar_json(value)) is None:
            raise DirectiveError(
                f"param {key!r} must be a string, integer or boolean, got {type(value).__name__}"
            )
        items.append((key, value, text))
    items.sort()
    ordered = {}
    parts = []
    for key, value, text in items:
        ordered[key] = value
        if text is None:
            text = _LONG_PLACE
            spliced.append(value)
        parts.append(_encode_str(key) + ":" + text)
    return MappingProxyType(ordered), "{" + ",".join(parts) + "}"


# The canonical form's key order; kind, phase and trust go in unescaped
# because the kind grammar and the two enums admit no character JSON escapes.
# The kind fills both "kind" and "required_capability".
_CANONICAL_TEMPLATE = (
    '{"id":%d,"issuer":%s,"kind":"%s","params":%s,"phase":"%s",'
    '"required_capability":"%s","trust":"%s"}'
)
# Read without the Enum descriptors, which run Python on every access.
_TRUST_WIRE = {level: level.wire_name for level in TrustLevel}


def _render(id, kind, params, issuer, trust, phase) -> tuple[Mapping[str, Scalar], bytes]:
    """Check params and render a directive: its params' read-only view and its bytes.

    Raises ValueError (not a DirectiveError) for an int past the int-string
    limit or a lone surrogate, which the caller reports as having no
    canonical encoding.
    """
    spliced = []
    params, params_json = _render_params(params, spliced)
    text = _CANONICAL_TEMPLATE % (
        id, _encode_str(issuer), kind, params_json, phase._value_, kind, _TRUST_WIRE[trust]
    )
    return params, _encode_spliced(text, spliced) if spliced else text.encode("utf-8")


def _set_fields(directive, id, kind, params, issuer, trust, phase, canonical) -> None:
    """Fill a new directive's slots, then its bytes or None.

    Both construction paths, ``__init__`` and ``_from_canonical``, fill
    them this way: straight through each slot's descriptor, fetched once
    below, which the frozen class's ``__setattr__`` would refuse and
    ``object.__setattr__`` would look up by name on every call.
    """
    _set_id(directive, id)
    _set_kind(directive, kind)
    _set_params(directive, params)
    _set_issuer(directive, issuer)
    _set_trust(directive, trust)
    _set_phase(directive, phase)
    _set_canonical(directive, canonical)


@dataclass(frozen=True, init=False)
class Directive:
    """One intended effect, described as inert data.

    ``params`` is stored key-sorted behind a read-only view; a directive's
    identity is its content. The canonical encoding is rendered at
    construction and held until a chain appends it, which releases it;
    ``canonical`` then renders it again, to the same bytes. The capability
    it requires is its kind. ``copy``, ``deepcopy`` and ``pickle`` rebuild
    it through the constructor from its fields.
    """

    __slots__ = ("id", "kind", "params", "issuer", "trust", "phase", "_canonical")

    id: int
    kind: str
    params: Mapping[str, Scalar]
    issuer: str
    trust: TrustLevel
    phase: Phase

    def __init__(
        self,
        id: int,
        kind: str,
        params: Mapping[str, Scalar],
        issuer: str,
        trust: TrustLevel,
        phase: Phase,
    ):
        # The fields are checked in this order, and the first fault found is
        # the one raised: id, kind, issuer, trust, phase, then params.
        if not isinstance(id, int) or isinstance(id, bool):
            raise DirectiveError(f"directive id must be an integer, got {id!r}")
        if not 0 <= id <= MAX_DIRECTIVE_ID:
            raise DirectiveError(f"directive id {id} outside unsigned 64-bit range")
        if type(kind) is not str or not _kind_fullmatch(kind):
            validate_kind(kind)
        if not isinstance(issuer, str) or issuer == "":
            raise DirectiveError("issuer must be a non-empty string")
        if not isinstance(trust, TrustLevel):
            raise DirectiveError(f"trust must be a TrustLevel, got {trust!r}")
        if not isinstance(phase, Phase):
            raise DirectiveError(f"phase must be a Phase, got {phase!r}")
        try:
            params, canonical = _render(id, kind, params, issuer, trust, phase)
        except DirectiveError:
            raise
        except ValueError as exc:
            raise DirectiveError(f"directive has no canonical encoding: {exc}") from None
        _set_fields(self, id, kind, params, issuer, trust, phase, canonical)

    def __reduce__(self):
        fields = (self.id, self.kind, dict(self.params), self.issuer, self.trust, self.phase)
        return Directive, fields

    def __hash__(self):  # params are key-sorted, so equal directives list equal items
        items = tuple(self.params.items())
        return hash((self.id, self.kind, items, self.issuer, self.trust, self.phase))

    @property
    def required_capability(self) -> str:
        return self.kind

    @property
    def canonical(self) -> bytes:
        """The canonical encoding: the bytes held, or, once released, rendered again."""
        canonical = self._canonical
        if canonical is None:
            canonical = _render(
                self.id, self.kind, self.params, self.issuer, self.trust, self.phase
            )[1]
        return canonical

    @classmethod
    def _from_canonical(
        cls,
        id: int,
        kind: str,
        params: dict,
        issuer: str,
        trust: TrustLevel,
        phase: Phase,
    ) -> "Directive":
        """Adopt fields read from canonical bytes, holding no bytes; checks nothing.

        Precondition: these fields were read from a directive's canonical
        encoding, and ``params`` is a dict of scalars in key-sorted order.
        ``Directive(...)`` with the same fields would then pass every check
        and render those bytes, so the result is equal to that directive,
        and its ``canonical`` renders them. Only a caller that has proved
        this from the bytes, the chain-line recognizer in ``provenance``,
        may use it.
        """
        directive = object.__new__(cls)
        _set_fields(directive, id, kind, MappingProxyType(params), issuer, trust, phase, None)
        return directive


(_set_id, _set_kind, _set_params, _set_issuer, _set_trust, _set_phase, _set_canonical) = (
    Directive.__dict__[name].__set__ for name in Directive.__slots__
)


_DIRECTIVE_KEYS = frozenset(
    {"id", "issuer", "kind", "params", "phase", "required_capability", "trust"}
)


def directive_from_obj(obj) -> Directive:
    """Rebuild a directive from a parsed JSON object; strict about shape."""
    check_fields(obj, _DIRECTIVE_KEYS, set(), "directive", DirectiveError)
    kind, required = obj["kind"], obj["required_capability"]
    if required != kind:
        raise DirectiveError(f"required_capability {required!r} must equal kind {kind!r}")
    return Directive(
        id=obj["id"],
        kind=kind,
        params=obj["params"],
        issuer=obj["issuer"],
        trust=trust_from_wire(obj["trust"]),
        phase=phase_from_wire(obj["phase"]),
    )
