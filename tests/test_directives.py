"""Directive construction, validation and canonical serialization."""

import dataclasses
import enum
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from effectgov import (
    Chain,
    DirectiveError,
    ExecStatus,
    Phase,
    TrustLevel,
    import_chain,
    seeded_world,
)
from effectgov import provenance as provenance_module
from effectgov.decisions import ALLOW_GRANTED
from effectgov.directives import (
    JSON_ERRORS,
    Directive,
    canonical_value_bytes,
    directive_from_obj,
    load_json,
    validate_kind,
)
from effectgov.provenance import ZERO_DIGEST

from support import peak_bytes

# The kind grammar as first written, segment by segment; the one in use
# must accept exactly what it accepts.
KIND_RE = re.compile(r"[a-z0-9_]+(?:\.[a-z0-9_]+)*\Z")


def d(kind="email.send", params=None, issuer="step1", trust=TrustLevel.AGENT,
      phase=Phase.EXECUTE, id=1):
    return Directive(id, kind, params if params is not None else {"to": "a@b.c", "body": "hi"},
                     issuer, trust, phase)


def reference_bytes(obj) -> bytes:
    """The canonical encoding as the stdlib encoder spells it."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode()


class Text(str):
    pass


class Count(int):
    pass


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


def test_constructor_echo():
    directive = d()
    assert directive.kind == "email.send"
    assert directive.required_capability == "email.send"
    assert dict(directive.params) == {"body": "hi", "to": "a@b.c"}
    assert directive.issuer == "step1"
    assert directive.trust is TrustLevel.AGENT
    assert directive.phase is Phase.EXECUTE
    assert directive.id == 1


def test_empty_kind_rejected():
    with pytest.raises(DirectiveError, match="empty"):
        Directive(1, "", {}, "s", TrustLevel.AGENT, Phase.EXECUTE)


@pytest.mark.parametrize(
    "kind, offender",
    [
        ("Email.send", "'E'"),
        ("email send", "' '"),
        ("email..send", "'.' at index 6"),
        (".email", "'.' at index 0"),
        ("email.", "'.' at index 5"),
        ("email.s√end", "'√'"),
        # Whole messages: the first fault, its character and its index.
        ("a.\n", "effect kind 'a.\\n': invalid character '\\n' at index 2"),
        ("a-.b", "effect kind 'a-.b': invalid character '-' at index 1"),
        ("a.b.", "effect kind 'a.b.': misplaced '.' at index 3"),
        ("a..b", "effect kind 'a..b': misplaced '.' at index 2"),
        ("Email", "effect kind 'Email': invalid character 'E' at index 0"),
        ("aé", "effect kind 'aé': invalid character 'é' at index 1"),
    ],
)
def test_malformed_kind_names_offending_character(kind, offender):
    with pytest.raises(DirectiveError) as excinfo:
        validate_kind(kind)
    assert offender in str(excinfo.value)


@given(st.text(max_size=12))
@settings(max_examples=300)
def test_kind_validation_agrees_with_reference_grammar(kind):
    accepted = True
    try:
        validate_kind(kind)
    except DirectiveError:
        accepted = False
    assert accepted == bool(KIND_RE.fullmatch(kind))


def test_validating_a_long_kind_keeps_no_state_per_segment():
    # 300,000 segments in 600 KB: a grammar that repeats a group per
    # segment peaks near 40 MB here.
    kind = ".".join(["a"] * 300_000)
    assert peak_bytes(lambda: validate_kind(kind)) < 64 * 1024


def test_construction_never_judges_content():
    directive = Directive(
        7, "web.browse", {"url": "http://x/?q=SECRET"}, "step3",
        TrustLevel.AGENT, Phase.EXECUTE,
    )
    assert directive.params["url"] == "http://x/?q=SECRET"


def test_construction_touches_no_world():
    world = seeded_world()
    before = world.snapshot_bytes()
    for i in range(500):
        Directive(i, "db.query", {"table": "sensitive", "select": "*"},
                  "probe", TrustLevel.SYSTEM, Phase.PLAN)
    assert world.snapshot_bytes() == before
    assert world.mutation_count == 0


def test_canonical_bytes_deterministic():
    a = d(params={"to": "a@b.c", "body": "hi"})
    b = d(params={"body": "hi", "to": "a@b.c"})  # same content, other insertion order
    assert a == b
    assert a.canonical == b.canonical


def test_canonical_bytes_differ_on_one_param():
    a = d(params={"to": "a@b.c", "body": "hi"})
    b = d(params={"to": "a@b.c", "body": "hi!"})
    assert a.canonical != b.canonical


def test_canonical_form_is_sorted_compact_json():
    blob = d(params={"zz": 1, "aa": True, "mm": "x"}).canonical
    obj = json.loads(blob)
    assert blob == json.dumps(obj, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False).encode()
    assert list(obj["params"]) == ["aa", "mm", "zz"]


params_strategy = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.text(max_size=20), st.integers(), st.booleans()),
    max_size=5,
)

directive_strategy = st.builds(
    Directive,
    kind=st.from_regex(r"[a-z0-9_]{1,8}(\.[a-z0-9_]{1,8}){0,2}", fullmatch=True),
    params=params_strategy,
    issuer=st.text(min_size=1, max_size=10),
    trust=st.sampled_from(list(TrustLevel)),
    phase=st.sampled_from(list(Phase)),
    id=st.integers(min_value=0, max_value=2**64 - 1),
)


@given(directive_strategy)
@settings(max_examples=300)
def test_roundtrip_parse_of_canonical_bytes(directive):
    assert directive_from_obj(load_json(directive.canonical)) == directive


def test_injectivity_over_generated_corpus():
    rng = random.Random(20260809)
    seen_fields = set()
    seen_bytes = set()
    kinds = ["email.send", "db.query", "web.browse", "a.b.c", "x_1"]
    while len(seen_fields) < 10_000:
        directive = Directive(
            kind=rng.choice(kinds),
            params={"k": rng.randint(0, 5000), "s": rng.choice(["a", "b", "c"]),
                    "f": rng.random() < 0.5},
            issuer=f"step{rng.randint(0, 50)}",
            trust=rng.choice(list(TrustLevel)),
            phase=rng.choice(list(Phase)),
            id=rng.randint(0, 10_000),
        )
        key = (directive.id, directive.kind, tuple(directive.params.items()),
               directive.issuer, directive.trust, directive.phase)
        seen_fields.add(key)
        seen_bytes.add(directive.canonical)
    assert len(seen_bytes) == len(seen_fields)


def test_params_are_read_only_and_sorted():
    directive = d(params={"b": 1, "a": 2})
    assert list(directive.params) == ["a", "b"]
    with pytest.raises(TypeError):
        directive.params["a"] = 3


@pytest.mark.parametrize("bad", [{"x": 1.5}, {"x": None}, {"x": [1]}, {1: "x"}])
def test_non_scalar_params_rejected(bad):
    with pytest.raises(DirectiveError):
        d(params=bad)


@pytest.mark.parametrize("bad_id", [-1, 2**64, True, "1"])
def test_bad_ids_rejected(bad_id):
    with pytest.raises(DirectiveError):
        Directive(bad_id, "a.b", {}, "s", TrustLevel.AGENT, Phase.EXECUTE)


# One fault per field, in the order the constructor checks the fields.
FIELD_FAULTS = [
    ("id", -1, "directive id -1 outside unsigned 64-bit range"),
    ("kind", "Email", "effect kind 'Email': invalid character 'E' at index 0"),
    ("issuer", "", "issuer must be a non-empty string"),
    ("trust", 1, "trust must be a TrustLevel, got 1"),
    ("phase", "plan", "phase must be a Phase, got 'plan'"),
    ("params", {"b": 1.5, 1: "x"}, "param 'b' must be a string, integer or boolean, got float"),
]


def replaced(**fields):
    """A valid directive with every field replaced; ``replace`` runs the same checks."""
    return dataclasses.replace(d(), **fields)


@pytest.mark.parametrize("build", [replaced, Directive])
@pytest.mark.parametrize("first", range(len(FIELD_FAULTS)), ids=[f[0] for f in FIELD_FAULTS])
def test_first_fault_in_field_order_is_reported(build, first):
    fields = dict(id=1, kind="a.b", params={}, issuer="s", trust=TrustLevel.AGENT, phase=Phase.PLAN)
    for name, bad, _ in FIELD_FAULTS[first:]:
        fields[name] = bad
    with pytest.raises(DirectiveError) as excinfo:
        build(**fields)
    assert str(excinfo.value) == FIELD_FAULTS[first][2]


def test_repr_eq_and_hash_leave_out_the_canonical_bytes():
    directive = d(kind="a.b", params={"z": 1, "a": "x"}, issuer="s")
    # The twin's bytes are released by its append; the directive keeps its own.
    twin = d(kind="a.b", params={"a": "x", "z": 1}, issuer="s")
    Chain().append(twin, ALLOW_GRANTED, ExecStatus.EXECUTED, ZERO_DIGEST)
    assert twin._canonical is None and directive._canonical is not None
    for made in (directive, twin):
        assert repr(made) == (
            "Directive(id=1, kind='a.b', params=mappingproxy({'a': 'x', 'z': 1}), issuer='s', "
            "trust=<TrustLevel.AGENT: 1>, phase=<Phase.EXECUTE: 'execute'>)"
        )
    assert twin == directive and twin.canonical == directive.canonical
    assert hash(twin) == hash(directive) and len({twin, directive}) == 1
    assert directive != d(kind="a.b", params={"z": 2, "a": "x"}, issuer="s")
    assert dataclasses.replace(directive, id=2) == d(kind="a.b", params={"a": "x", "z": 1},
                                                     issuer="s", id=2)
    assert dataclasses.replace(twin, id=2) == dataclasses.replace(directive, id=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        directive.kind = "c.d"


def test_required_capability_must_match_kind():
    directive = d(kind="a.b")
    assert directive.required_capability == "a.b"
    obj = json.loads(directive.canonical)
    obj["required_capability"] = "a.c"
    with pytest.raises(DirectiveError, match="required_capability"):
        directive_from_obj(load_json(json.dumps(obj)))


@pytest.mark.parametrize("params, shape", [([], "list"), ("x", "str"), (None, "NoneType")])
def test_parse_rejects_params_that_are_not_an_object(params, shape):
    obj = json.loads(d().canonical)
    obj["params"] = params
    with pytest.raises(DirectiveError, match=f"^params must be a mapping, got {shape}$"):
        directive_from_obj(load_json(json.dumps(obj)))


def test_parse_rejects_extra_and_missing_fields():
    blob = d().canonical
    obj = json.loads(blob)
    obj["extra"] = 1
    with pytest.raises(DirectiveError, match="unknown field 'extra'"):
        directive_from_obj(load_json(json.dumps(obj)))
    del obj["extra"]
    del obj["issuer"]
    with pytest.raises(DirectiveError, match="missing"):
        directive_from_obj(load_json(json.dumps(obj)))


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_parse_reads_bytes_as_utf8_only(encoding):
    blob = d().canonical.decode("utf-8").encode(encoding)
    with pytest.raises(JSON_ERRORS):
        load_json(blob)


def test_unencodable_values_raise_directive_error():
    # An integer past the interpreter's int-string limit and a lone
    # surrogate have no canonical encoding; both are DirectiveErrors that
    # carry the reference encoder's own message.
    for value in (10**5000, -(10**5000), "\ud800", Text("x\udfff")):
        with pytest.raises(DirectiveError, match="no canonical encoding"):
            d(params={"n": value})
        with pytest.raises(ValueError) as reference:
            reference_bytes(value)
        with pytest.raises(DirectiveError) as excinfo:
            canonical_value_bytes(value)
        assert str(excinfo.value) == f"value has no canonical encoding: {reference.value}"


# Full Unicode text, with the characters JSON escapes or that tempt a
# hand-written encoder drawn often: controls, quote, backslash, DEL, the
# JavaScript line separators, a BOM and non-BMP code points.
oracle_text = st.lists(
    st.one_of(
        st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ufeff",
                         "\U0001f600", "\U0010ffff"]),
    ),
    max_size=4,
).map("".join)
oracle_key = st.one_of(oracle_text, oracle_text.map(Text))
oracle_scalar = st.one_of(
    oracle_text,
    oracle_text.map(Text),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=-(2**200), max_value=2**200).map(Count),
    st.booleans(),
    st.sampled_from(list(Level) + list(TrustLevel)),
)


@seed(20261018)
@settings(max_examples=1000, deadline=None)
@given(
    kind=st.lists(st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=6),
                  min_size=1, max_size=3).map(".".join),
    params=st.dictionaries(oracle_key, oracle_scalar, max_size=6),
    issuer=oracle_text.filter(bool),
    trust=st.sampled_from(list(TrustLevel)),
    phase=st.sampled_from(list(Phase)),
    id=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_canonical_bytes_match_the_reference_encoder(kind, params, issuer, trust, phase, id):
    directive = Directive(id, kind, params, issuer, trust, phase)
    assert directive.canonical == reference_bytes(
        {
            "id": id,
            "issuer": issuer,
            "kind": kind,
            "params": params,
            "phase": phase.value,
            "required_capability": kind,
            "trust": trust.wire_name,
        }
    )
    for value in params.values():
        assert canonical_value_bytes(value) == reference_bytes(value)


@pytest.mark.parametrize(
    "params, issuer",
    [
        ({"n": 10**5000}, "s"),
        ({"n": "\ud800"}, "s"),
        ({"\udfff": 1}, "s"),
        ({"a": "ok"}, "step \udc80"),
    ],
    ids=["huge_int_param", "surrogate_param", "surrogate_key", "surrogate_issuer"],
)
def test_unencodable_directives_fail_like_the_reference(params, issuer):
    fields = dict(id=1, issuer=issuer, kind="a.b", params=params, phase="plan",
                  required_capability="a.b", trust="agent")
    with pytest.raises(ValueError) as reference:
        reference_bytes(fields)
    with pytest.raises(DirectiveError) as excinfo:
        Directive(1, "a.b", params, issuer, TrustLevel.AGENT, Phase.PLAN)
    assert str(excinfo.value) == f"directive has no canonical encoding: {reference.value}"


# Strings of 200-3,000 characters, on both sides of the length from which
# strings are escaped on their UTF-8 bytes. Each repeats a drawn motif to a
# drawn length, so a long string costs hypothesis no more draws than its
# motif. A motif mixes any non-control text with the characters an escaper
# can get wrong, from one of three sets: no control at all, only the five
# controls with a two-character escape, or other controls as well, which
# are spelled \u00XX. A string that holds a control is left to the encoder.
_LONG_SPECIALS = ['"', "\\", "\x7f", "\x85", "é", "\u2028", "\u2029", "\U0001f600", "\U0010ffff"]
long_oracle_text = st.builds(
    lambda motif, size: (motif * (size // len(motif) + 1))[:size],
    st.sampled_from([
        _LONG_SPECIALS,
        _LONG_SPECIALS + ["\n", "\t", "\b", "\f", "\r"],
        _LONG_SPECIALS + ["\n", "\t", "\x00", "\x1f"],
    ]).flatmap(
        lambda specials: st.lists(
            st.one_of(
                st.sampled_from(specials),
                st.text(st.characters(exclude_categories=("Cs", "Cc")), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=24,
        ).map("".join)
    ),
    st.integers(min_value=200, max_value=3000),
)


def directive_fields(id, kind, params, issuer, trust, phase) -> dict:
    """A directive's fields as the reference encoder is given them."""
    return {"id": id, "issuer": issuer, "kind": kind, "params": params, "phase": phase.value,
            "required_capability": kind, "trust": trust.wire_name}


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(
    value=long_oracle_text,
    key=st.one_of(oracle_text, long_oracle_text),
    issuer=st.one_of(oracle_text.filter(bool), long_oracle_text),
    text_type=st.sampled_from([str, Text]),
)
def test_long_strings_match_the_reference_encoder(value, key, issuer, text_type):
    value = text_type(value)
    params = {key: value, "y": value[::-1], "z": 1}  # two long values, spliced in key order
    fields = (1, "a.b", params, issuer, TrustLevel.AGENT, Phase.PLAN)
    assert Directive(*fields).canonical == reference_bytes(directive_fields(*fields))
    assert canonical_value_bytes(value) == reference_bytes(value)


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(text=long_oracle_text, data=st.data())
def test_a_lone_surrogate_in_a_long_string_fails_like_the_reference(text, data):
    at = data.draw(st.integers(min_value=0, max_value=len(text)))
    bad = text[:at] + data.draw(st.sampled_from(["\ud800", "\udfff"])) + text[at:]
    # The last case's surrogate is in the text after a long value's place.
    for params, issuer in [({"a": "ok", "b": bad}, "s"), ({"a": "ok"}, bad), ({"a": text, "b": bad[at:]}, "s")]:
        fields = (1, "a.b", params, issuer, TrustLevel.AGENT, Phase.PLAN)
        with pytest.raises(ValueError) as reference:
            reference_bytes(directive_fields(*fields))
        with pytest.raises(DirectiveError) as excinfo:
            Directive(*fields)
        assert str(excinfo.value) == f"directive has no canonical encoding: {reference.value}"
    with pytest.raises(ValueError) as reference:
        reference_bytes(bad)
    with pytest.raises(DirectiveError) as excinfo:
        canonical_value_bytes(bad)
    assert str(excinfo.value) == f"value has no canonical encoding: {reference.value}"


def with_few_escapes(text: str, limit: int) -> str:
    """text without '"' and with only its first ``limit`` other escaped characters."""
    kept = []
    for char in text:
        if char == '"':
            continue
        if char == "\\" or char < " ":
            if limit == 0:
                continue
            limit -= 1
        kept.append(char)
    return "".join(kept)


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(text=long_oracle_text)
def test_long_strings_round_trip_through_import(text):
    # A line of at most _MAX_RECOGNIZED_ESCAPES backslashes, and no '":' in a
    # string, is read by the recognizer; one of more is parsed in full.
    limit = provenance_module._MAX_RECOGNIZED_ESCAPES
    few = with_few_escapes(text, limit // 2)
    many = text + "\\" * limit
    chain = Chain()
    for id, (value, issuer) in enumerate([(text, text), (few, "s"), (many, many)], 1):
        directive = Directive(id, "a.b", {"body": value}, issuer, TrustLevel.AGENT, Phase.PLAN)
        chain.append(directive, ALLOW_GRANTED, ExecStatus.EXECUTED, ZERO_DIGEST)
    blob = chain.export()
    parse_line = provenance_module._parse_line
    with mock.patch.object(provenance_module, "_parse_line", wraps=parse_line) as parsed:
        imported = import_chain(blob)
    parsed_in_full = [call.args[1] for call in parsed.call_args_list]
    assert 1 not in parsed_in_full and 2 in parsed_in_full
    assert imported == chain and imported.records == chain.records
    assert [record.directive.canonical for record in imported.records] == [
        record.directive.canonical for record in chain.records
    ]


@pytest.mark.parametrize("params", [{1: "a", "b": 2}, {"b": 2, 1: "a"}])
def test_non_string_key_is_a_directive_error_not_a_sort_failure(params):
    with pytest.raises(DirectiveError, match="param key must be a string, got 1"):
        d(params=params)


def test_canonical_value_bytes_distinguishes_scalar_types():
    assert canonical_value_bytes(1) == b"1"
    assert canonical_value_bytes(True) == b"true"
    assert canonical_value_bytes("1") == b'"1"'
    with pytest.raises(DirectiveError):
        canonical_value_bytes(1.5)
