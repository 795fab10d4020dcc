"""Directive construction, validation and canonical serialization."""

import enum
import json
import random
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from effectgov import DirectiveError, Phase, TrustLevel, seeded_world
from effectgov.directives import (
    EFFECT_KIND_GRAMMAR,
    Directive,
    canonical_value_bytes,
    make_directive,
    parse_directive,
    validate_kind,
)

KIND_RE = re.compile(EFFECT_KIND_GRAMMAR + r"\Z")


def d(kind="email.send", params=None, issuer="step1", trust=TrustLevel.AGENT,
      phase=Phase.EXECUTE, id=1):
    return make_directive(kind, params if params is not None else {"to": "a@b.c", "body": "hi"},
                          issuer, trust, phase, id)


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
        make_directive("", {}, "s", TrustLevel.AGENT, Phase.EXECUTE, 1)


@pytest.mark.parametrize(
    "kind, offender",
    [
        ("Email.send", "'E'"),
        ("email send", "' '"),
        ("email..send", "'.' at index 6"),
        (".email", "'.' at index 0"),
        ("email.", "'.' at index 5"),
        ("email.s√end", "'√'"),
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


def test_construction_never_judges_content():
    directive = make_directive(
        "web.browse", {"url": "http://x/?q=SECRET"}, "step3",
        TrustLevel.AGENT, Phase.EXECUTE, 7,
    )
    assert directive.params["url"] == "http://x/?q=SECRET"


def test_construction_touches_no_world():
    world = seeded_world()
    before = world.snapshot_bytes()
    for i in range(500):
        make_directive("db.query", {"table": "sensitive", "select": "*"},
                       "probe", TrustLevel.SYSTEM, Phase.PLAN, i)
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
    make_directive,
    st.from_regex(r"[a-z0-9_]{1,8}(\.[a-z0-9_]{1,8}){0,2}", fullmatch=True),
    params_strategy,
    st.text(min_size=1, max_size=10),
    st.sampled_from(list(TrustLevel)),
    st.sampled_from(list(Phase)),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@given(directive_strategy)
@settings(max_examples=300)
def test_roundtrip_parse_of_canonical_bytes(directive):
    assert parse_directive(directive.canonical) == directive


def test_injectivity_over_generated_corpus():
    rng = random.Random(20260809)
    seen_fields = set()
    seen_bytes = set()
    kinds = ["email.send", "db.query", "web.browse", "a.b.c", "x_1"]
    while len(seen_fields) < 10_000:
        directive = make_directive(
            rng.choice(kinds),
            {"k": rng.randint(0, 5000), "s": rng.choice(["a", "b", "c"]),
             "f": rng.random() < 0.5},
            f"step{rng.randint(0, 50)}",
            rng.choice(list(TrustLevel)),
            rng.choice(list(Phase)),
            rng.randint(0, 10_000),
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
        make_directive("a.b", {}, "s", TrustLevel.AGENT, Phase.EXECUTE, bad_id)


def test_required_capability_must_match_kind():
    with pytest.raises(DirectiveError, match="required_capability"):
        Directive(id=1, kind="a.b", params={}, issuer="s", trust=TrustLevel.AGENT,
                  required_capability="a.c", phase=Phase.EXECUTE)


def test_parse_rejects_extra_and_missing_fields():
    blob = d().canonical
    obj = json.loads(blob)
    obj["extra"] = 1
    with pytest.raises(DirectiveError, match="unknown field 'extra'"):
        parse_directive(json.dumps(obj))
    del obj["extra"]
    del obj["issuer"]
    with pytest.raises(DirectiveError, match="missing"):
        parse_directive(json.dumps(obj))


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_parse_reads_bytes_as_utf8_only(encoding):
    blob = d().canonical.decode("utf-8").encode(encoding)
    with pytest.raises(DirectiveError, match="not valid JSON"):
        parse_directive(blob)


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
    directive = make_directive(kind, params, issuer, trust, phase, id)
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
        make_directive("a.b", params, issuer, TrustLevel.AGENT, Phase.PLAN, 1)
    assert str(excinfo.value) == f"directive has no canonical encoding: {reference.value}"


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
