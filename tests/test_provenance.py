"""Chain linking, verification, tamper evidence and the JSONL format."""

import copy
import functools
import hashlib
import itertools
import json
import pickle
import random
import re
import threading
import tracemalloc

import pytest
from hypothesis import given, seed, settings, strategies as st

from effectgov import (
    Chain,
    ChainFormatError,
    ChainIntegrityError,
    ExecStatus,
    GovernanceKernel,
    HandlerRegistry,
    Phase,
    Policy,
    PolicyRule,
    TrustLevel,
    bundled_path,
    import_chain,
)
from effectgov.decisions import ALLOW_GRANTED, DENY_NO_CAPABILITY
from effectgov.directives import Directive, directive_from_obj, make_directive
from effectgov.provenance import ZERO_DIGEST, record_line
from effectgov.cli import main
from effectgov import provenance as provenance_module

from support import (
    disagreeing_status_lines,
    fresh_kernel,
    golden_workflow_runs,
    random_policy,
    relink,
    valid_params_for,
)


def directive(i, kind="email.send", params=None):
    return make_directive(kind, params if params is not None else {"to": "a@b.c", "body": str(i)},
                          "step", TrustLevel.AGENT, Phase.EXECUTE, i)


def build_chain(n, seed=0):
    """Kernel-produced chain with a random mix of allows and denies."""
    rng = random.Random(seed)
    kernel = fresh_kernel(random_policy(rng))
    for index in range(n):
        kind = rng.choice(["email.send", "db.query", "web.browse"])
        kernel.issue(kind, valid_params_for(kind, rng), f"s{index}",
                     rng.choice(list(TrustLevel)), rng.choice(list(Phase)))
    return kernel.chain


def recompute_hash_independently(record):
    """Second call path for the digest: rebuilds the preimage from scratch."""
    directive_obj = json.loads(record.directive.canonical)
    body = json.dumps(
        {
            "seq": record.seq,
            "directive": directive_obj,
            "decision": {
                "verdict": record.decision.verdict.value,
                "reason": record.decision.reason.value,
            },
            "exec_status": record.exec_status.value,
            "result_digest": record.result_digest.hex(),
            "prev_hash": record.prev_hash.hex(),
        },
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")
    digest = hashlib.new("sha256")
    digest.update(record.prev_hash)
    digest.update(body)
    return digest.digest()


def recognize(line: bytes):
    """The recognizer over the whole of ``line``."""
    return provenance_module._recognize(line, 0, len(line))


DIRECTIVE_FIELDS = ("id", "kind", "params", "issuer", "trust", "phase", "canonical")
RECORD_FIELDS = ("seq", "directive", "decision", "exec_status", "result_digest", "prev_hash",
                 "this_hash")


def bytes_per_object(build, fields):
    """Traced bytes freed per object when the objects ``build()`` returns are
    dropped while their field values stay referenced: the objects' own cost."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        objects = list(build())
        kept = [[getattr(obj, name) for name in fields] for obj in objects]  # noqa: F841
        count = len(objects)
        before = tracemalloc.get_traced_memory()[0]
        del objects
        return (before - tracemalloc.get_traced_memory()[0]) / count
    finally:
        if started:
            tracemalloc.stop()


def appended_chain(directives):
    chain = Chain()
    for made in directives:
        chain.append(made, ALLOW_GRANTED, ExecStatus.EXECUTED, ZERO_DIGEST)
    return chain


def test_every_construction_path_costs_the_same_memory():
    # Every path fills the same slots; one that left an instance a
    # __dict__ of its own would cost about twice the memory of its fields.
    count = 1_000
    made = [directive(i + 1) for i in range(count)]
    blob = appended_chain(made).export()
    objs = [json.loads(made_one.canonical) for made_one in made]
    directives = {
        "make_directive": lambda: [directive(i + 1) for i in range(count)],
        "directive_from_obj": lambda: [directive_from_obj(obj) for obj in objs],
        "import_chain": lambda: [record.directive for record in import_chain(blob).records],
    }
    records = {
        "Chain.append": lambda: appended_chain(directive(i + 1) for i in range(count)).records,
        "import_chain": lambda: import_chain(blob).records,
    }
    for paths, fields in ((directives, DIRECTIVE_FIELDS), (records, RECORD_FIELDS)):
        costs = {path: bytes_per_object(build, fields) for path, build in paths.items()}
        assert max(costs.values()) <= 1.03 * min(costs.values()), costs


def pickled(value):
    return pickle.loads(pickle.dumps(value))


COPIES = (copy.copy, copy.deepcopy, pickled)


def test_a_copy_of_a_record_equals_it():
    # Records, outcomes and reports are rebuilt from their fields as tuples,
    # directives by their constructor. The second line takes the full parse
    # on import, the first the recognizer.
    made = [directive(1), directive(2, params={"q": 'k":v'})]
    chain = appended_chain(made)
    for records in (chain.records, import_chain(chain.export()).records):
        for record, copy_of in itertools.product(records, COPIES):
            copied = copy_of(record)
            assert copied == record and copied is not record and type(copied) is type(record)
            assert record_line(copied) == record_line(record)
            copied = copy_of(record.directive)
            assert copied == record.directive and copied is not record.directive
            assert copied.canonical == record.directive.canonical
    fresh = directive(9)
    policy = Policy([PolicyRule("note.write", TrustLevel.AGENT, frozenset({Phase.EXECUTE}))])
    kernel = GovernanceKernel(policy, HandlerRegistry({"note.write": lambda world, d: "done"}), None)
    outcome = kernel.issue("note.write", {"n": 1}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert outcome.result == "done"
    for copy_of in COPIES:
        assert copy_of(fresh) == fresh and copy_of(fresh).canonical == fresh.canonical
        copied = copy_of(outcome)
        assert copied == outcome and record_line(copied.record) == record_line(outcome.record)
        report = copy_of(chain.verify())
        assert report == chain.verify() and type(report) is type(chain.verify())


@pytest.mark.parametrize("copy_of", COPIES, ids=("copy", "deepcopy", "pickle"))
def test_a_copied_chain_is_its_own(copy_of):
    # A twin is imported from the export: an issue on it cannot reach the
    # original's records, offsets or buffer.
    original = import_chain(build_chain(3, seed=21).export())
    exported = original.export()
    twin = copy_of(original)
    assert twin == original and twin.records == original.records
    assert twin._records is not original._records and twin._ends is not original._ends
    kernel = GovernanceKernel(Policy([]), HandlerRegistry({}), None, twin)
    kernel.issue("note.write", {"n": 1}, "step", TrustLevel.AGENT, Phase.EXECUTE)
    assert len(twin) == 4 and twin.verify().valid
    assert len(original) == 3 and original.verify().valid and original.export() == exported


def retained_bytes(build) -> int:
    """Traced bytes still held by what ``build()`` returns."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()  # noqa: F841
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def test_import_keeps_no_second_copy_of_the_lines():
    # The imported chain's buffer is the caller's bytes, so beside its
    # records it holds a list slot and a line offset per record, and no
    # copy of any line.
    blob = varied_chain(2_000, seed=20261018).export()
    lines = blob.split(b"\n")[:-1]
    alone = retained_bytes(lambda: [recognize(line) for line in lines])
    imported = retained_bytes(lambda: import_chain(blob))
    assert (imported - alone) / len(lines) <= 64, (imported, alone)


def chain_of_bodies(count: int, size: int, seed: int):
    """Kernel chain of ``count`` allowed effects, each with its own ``size``-char body."""
    rng = random.Random(seed)
    policy = Policy([PolicyRule(capability="note.write", min_trust=TrustLevel.AGENT,
                                allowed_phases=frozenset({Phase.EXECUTE}))])
    kernel = GovernanceKernel(policy, HandlerRegistry({"note.write": lambda world, d: 1}), None)
    for index in range(count):
        body = rng.randbytes(size // 2).hex()
        kernel.issue("note.write", {"body": body, "n": index}, "step", TrustLevel.AGENT,
                     Phase.EXECUTE)
    return kernel.chain


def test_an_imported_record_keeps_no_copy_of_its_line():
    # The chain's buffer is the caller's bytes; beside it each record keeps
    # its fields, the largest of them the decoded body, and no directive
    # bytes, about 1.12 lines per record. Holding them, as each record once
    # did, costs about 2.05.
    blob = chain_of_bodies(2_000, 4_096, seed=7).export()
    per_line = len(blob) / 2_000
    retained = retained_bytes(lambda: import_chain(blob)) / 2_000
    assert retained < 1.25 * per_line, (retained, per_line)


def test_an_appended_record_keeps_no_copy_of_its_line():
    # The kernel's own chain, buffer left out: each record keeps its fields
    # and the caller's body, and no directive bytes, about 1.07 lines per
    # record. Holding them, as each record once did, costs about 2.00.
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chain = chain_of_bodies(2_000, 4_096, seed=7)
        blob = chain.export()  # the buffer, as exact bytes, left out below
        retained = (tracemalloc.get_traced_memory()[0] - before - len(blob)) / len(chain)
    finally:
        if started:
            tracemalloc.stop()
    per_line = len(blob) / len(chain)
    assert retained < 1.2 * per_line, (retained, per_line)


def directive_span(line: bytes) -> bytes:
    """The directive's canonical bytes within a chain line.

    The first ',"decision":{"verdict":' is the one after the directive:
    a quote inside a string is escaped, and no params value is an object.
    """
    start = line.index(b',"directive":') + len(b',"directive":')
    return line[start : line.index(b',"decision":{"verdict":')]


def assert_records_render_the_chain_bytes(chain: Chain) -> None:
    """Each record's directive renders its span of the export, and each
    record its line: both with the bytes released and while a twin of the
    directive still holds them, and after an append releases the twin's."""
    blob = chain.export()
    lines = blob.split(b"\n")[:-1]
    again = Chain()
    for record, line in zip(chain.records, lines):
        directive = record.directive
        span = directive_span(line)
        assert directive._canonical is None
        assert directive.canonical == span and record_line(record) == line
        twin = Directive(directive.id, directive.kind, directive.params, directive.issuer,
                         directive.trust, directive.phase)
        assert twin == directive and twin._canonical == span
        assert record_line(record._replace(directive=twin)) == line
        appended = again.append(twin, record.decision, record.exec_status, record.result_digest)
        assert twin._canonical is None
        assert twin.canonical == span and record_line(appended) == line
    assert len(lines) == len(chain) and again.export() == blob


def test_every_golden_record_renders_its_span_of_the_chain_bytes():
    for kernel, _ in golden_workflow_runs():
        assert_records_render_the_chain_bytes(kernel.chain)
        assert_records_render_the_chain_bytes(import_chain(kernel.chain.export()))


def test_a_record_read_by_the_full_parse_renders_its_span_too():
    # A params string holding '":' is canonical, but the recognizer leaves
    # it to the full parse; that path keeps no directive bytes either.
    directives = [directive(i + 1, params={"q": 'k":v\u00e9', "\u2028": i}) for i in range(3)]
    chain = appended_chain(directives)
    blob = chain.export()
    assert all(recognize(line) is None for line in blob.split(b"\n")[:-1])
    assert_records_render_the_chain_bytes(chain)
    assert_records_render_the_chain_bytes(import_chain(blob))


def test_genesis_record():
    chain = Chain()
    record = chain.append(directive(1), ALLOW_GRANTED, ExecStatus.EXECUTED, b"\x11" * 32)
    assert record.seq == 0
    assert record.prev_hash == ZERO_DIGEST


def test_second_record_links_to_first():
    chain = Chain()
    first = chain.append(directive(1), ALLOW_GRANTED, ExecStatus.EXECUTED, b"\x11" * 32)
    second = chain.append(directive(2), DENY_NO_CAPABILITY, ExecStatus.SKIPPED, ZERO_DIGEST)
    assert second.prev_hash == first.this_hash
    assert second.seq == 1


def test_thousand_appends_verify_against_independent_recompute():
    chain = build_chain(1000, seed=5)
    assert len(chain) == 1000
    assert chain.verify().valid
    prev = ZERO_DIGEST
    for record in chain.records:
        assert record.prev_hash == prev
        assert recompute_hash_independently(record) == record.this_hash
        prev = record.this_hash


def test_empty_chain_is_valid():
    assert Chain().verify().valid
    assert import_chain(b"") == Chain()


def test_kernel_chains_verify():
    for seed in range(5):
        assert build_chain(20, seed=seed).verify().valid


def test_last_id_is_the_last_records_directive_id():
    chain = Chain()
    assert chain.last_id == 0
    chain.append(directive(7), ALLOW_GRANTED, ExecStatus.EXECUTED, b"\x11" * 32)
    assert chain.last_id == 7
    assert import_chain(chain.export()).last_id == 7
    with pytest.raises(ValueError, match="directive id 0 is not above the last id 0"):
        Chain().append(directive(0), ALLOW_GRANTED, ExecStatus.EXECUTED, ZERO_DIGEST)


def test_exec_status_must_agree_with_the_decision():
    # Skipped if and only if denied, and only an executed record carries a
    # result digest: append refuses the other pairings before it changes
    # anything.
    skip_rule = "skipped if and only if it is denied"
    digest_rule = "only an executed record carries a result digest"
    for decision, status, digest, message in [
        (DENY_NO_CAPABILITY, ExecStatus.EXECUTED, ZERO_DIGEST, skip_rule),
        (ALLOW_GRANTED, ExecStatus.SKIPPED, ZERO_DIGEST, skip_rule),
        (ALLOW_GRANTED, ExecStatus.HANDLER_MISSING, b"\x11" * 32, digest_rule),
        (ALLOW_GRANTED, ExecStatus.FAILED, b"\x11" * 32, digest_rule),
    ]:
        chain = Chain()
        with pytest.raises(ValueError, match=message):
            chain.append(directive(1), decision, status, digest)
        assert len(chain) == 0 and chain.export() == b""
    # Import refuses a re-linked chain of them at its first record: denied
    # but executed, then, with that one gone, allowed but skipped, then
    # allowed, handler_missing and with a result digest.
    lines = disagreeing_status_lines()
    for start in (0, 1, 2):
        with pytest.raises(ChainIntegrityError) as excinfo:
            import_chain(relink(lines[start:]))
        assert excinfo.value.index == 0


def test_import_renders_each_record_once_and_verify_renders_none(monkeypatch):
    chain = build_chain(12, seed=6)
    blob = chain.export()
    rendered = []
    render = provenance_module._record_body

    def counting_render(*args):
        rendered.append(args[0])
        return render(*args)

    monkeypatch.setattr(provenance_module, "_record_body", counting_render)
    imported = import_chain(blob)
    assert rendered == []  # canonical lines are recognized, not re-rendered
    assert imported.verify().valid
    assert chain.verify().valid
    assert rendered == []


def flip_bit(data: bytearray, bit_index: int) -> None:
    data[bit_index // 8] ^= 1 << (bit_index % 8)


def test_single_bit_flip_always_detected():
    rng = random.Random(99)
    chains = [build_chain(10, seed=seed) for seed in range(5)]
    for _ in range(500):
        chain = rng.choice(chains)
        lines = chain.export().split(b"\n")[:-1]
        target = rng.randrange(len(lines))
        mutated = bytearray(lines[target])
        flip_bit(mutated, rng.randrange(len(mutated) * 8))
        lines[target] = bytes(mutated)
        blob = b"".join(line + b"\n" for line in lines)
        try:
            import_chain(blob)
        except ChainFormatError as exc:
            assert exc.line_number - 1 <= target
        except ChainIntegrityError as exc:
            assert exc.index <= target
        else:
            raise AssertionError(f"flip in record {target} went undetected")


def test_export_import_roundtrip():
    for seed in range(5):
        chain = build_chain(15, seed=seed)
        blob = chain.export()
        again = import_chain(blob)
        assert again == chain
        assert again.export() == blob


def test_chains_are_equal_exactly_when_their_bytes_are():
    chain = build_chain(15, seed=7)
    assert import_chain(chain.export()) == chain
    assert import_chain(chain.export()) != build_chain(15, seed=8)
    # Equal params dicts, other bytes: the chains differ.
    flag, one = (appended_chain([directive(1, params={"urgent": value})]) for value in (True, 1))
    assert flag.records[0].directive.params == one.records[0].directive.params
    assert flag != one
    assert import_chain(flag.export()) == flag and import_chain(one.export()) == one


def test_import_adopts_exact_bytes_and_copies_anything_else():
    blob = build_chain(8, seed=9).export()
    assert import_chain(blob).export() is blob
    assert import_chain(blob[:-1]).export() == blob  # no final newline
    assert import_chain(blob.decode("utf-8")).export() == blob

    for data in (bytearray(blob), memoryview(bytearray(blob))):
        chain = import_chain(data)
        data[:] = bytes(len(blob))  # the caller reuses its buffer
        assert chain.verify().valid
        assert chain.export() == blob

    class Blob(bytes):
        pass

    assert type(import_chain(Blob(blob)).export()) is bytes
    with pytest.raises(TypeError):
        import_chain(len(blob))


def test_appending_to_an_imported_chain_leaves_the_caller_bytes_alone():
    blob = build_chain(8, seed=10).export()
    copy = bytes(bytearray(blob))
    kernel = GovernanceKernel(Policy([]), HandlerRegistry(), None,
                              chain=import_chain(blob))
    kernel.issue("email.send", {"to": "a@b.c", "body": "x"}, "step",
                 TrustLevel.AGENT, Phase.EXECUTE)
    assert blob == copy
    extended = kernel.chain.export()
    assert extended.startswith(blob) and extended.count(b"\n") == 9
    assert kernel.chain.verify().valid
    assert import_chain(extended) == kernel.chain


def test_export_racing_an_append_drops_no_line(monkeypatch):
    # export swaps the growing buffer for its bytes. Here another thread
    # exports while an append is between reading the buffer and extending
    # it; the append must not extend a buffer the chain has let go of.
    chain = appended_chain([directive(1)])
    render = provenance_module._with_this_hash
    exporters = []

    def render_during_an_export(body, this_hash):
        exporter = threading.Thread(target=chain.export)
        exporter.start()
        exporter.join(timeout=0.2)  # waits out the chain's lock, if it holds one
        exporters.append(exporter)
        return render(body, this_hash)

    monkeypatch.setattr(provenance_module, "_with_this_hash", render_during_an_export)
    chain.append(directive(2), ALLOW_GRANTED, ExecStatus.EXECUTED, ZERO_DIGEST)
    monkeypatch.undo()
    exporters[0].join(timeout=10)
    assert not exporters[0].is_alive()
    assert chain.verify().valid
    assert chain == appended_chain([directive(1), directive(2)])


def test_import_reports_index_of_edited_record():
    chain = build_chain(6, seed=3)
    original = chain.export().split(b"\n")[:-1]
    record = chain.records[3]
    # A changed seq, and each digest one byte short.
    edits = [(b'"seq":3', b'"seq":4')] + [
        (b'"%s":"%s"' % (name, digest.hex().encode()),
         b'"%s":"%s"' % (name, digest[:-1].hex().encode()))
        for name, digest in [(b"result_digest", record.result_digest),
                             (b"this_hash", record.this_hash)]
    ]
    for old, new in edits:
        lines = list(original)
        assert old in lines[3]
        lines[3] = lines[3].replace(old, new)
        with pytest.raises(ChainIntegrityError) as excinfo:
            import_chain(b"".join(line + b"\n" for line in lines))
        assert excinfo.value.index == 3


def test_import_truncated_line_reports_line_number():
    chain = build_chain(4, seed=2)
    blob = chain.export()[:-40]  # cut mid-record
    with pytest.raises(ChainFormatError) as excinfo:
        import_chain(blob)
    assert excinfo.value.line_number == 4


def test_import_reports_a_lone_surrogate_in_a_str_by_line():
    text = build_chain(2, seed=4).export().decode("utf-8")
    first, second = text.splitlines(keepends=True)
    second = second.replace('"issuer":"s', '"issuer":"\ud800', 1)
    with pytest.raises(ChainFormatError, match="^line 2: not valid JSON: ") as excinfo:
        import_chain(first + second)
    assert excinfo.value.line_number == 2


def test_line_format_fixed_order_and_lowercase_hex():
    chain = build_chain(3, seed=8)
    pattern = re.compile(
        br'\{"seq":\d+,"directive":\{.*\},"decision":\{"verdict":"[a-z_]+","reason":"[a-z_]+"\},'
        br'"exec_status":"[a-z_]+","result_digest":"[0-9a-f]{64}",'
        br'"prev_hash":"[0-9a-f]{64}","this_hash":"[0-9a-f]{64}"\}'
    )
    for line in chain.export().split(b"\n")[:-1]:
        assert pattern.fullmatch(line), line


def test_chain_surface_is_append_only():
    mutators = {"remove", "pop", "insert", "sort", "reverse", "clear", "__setitem__",
                "__delitem__", "truncate"}
    assert not mutators & set(dir(Chain))
    chain = build_chain(2, seed=0)
    assert isinstance(chain.records, tuple)


def test_append_requires_digest_size():
    with pytest.raises(ValueError, match="32"):
        Chain().append(directive(1), ALLOW_GRANTED, ExecStatus.EXECUTED, b"\x00" * 8)


def test_non_canonical_line_rejected():
    chain = build_chain(2, seed=4)
    lines = chain.export().split(b"\n")[:-1]
    # Same JSON content, different spelling: extra whitespace.
    obj = json.loads(lines[1])
    lines[1] = json.dumps(obj, separators=(", ", ": ")).encode()
    with pytest.raises(ChainIntegrityError) as excinfo:
        import_chain(b"".join(line + b"\n" for line in lines))
    assert excinfo.value.index == 1


# Chain-format compatibility contract: these digests were computed from the
# bytes 0.1.0 writes for the same inputs. A change to the canonical
# directive encoding, the record line or the result digest moves them.
BUNDLED_SCENARIO_CHAIN_SHA256 = (
    "1627287d29eeb66549a8e38cea6e16c824e0950ee2ddb496979708b741af4478"
)
KERNEL_CHAIN_SHA256 = "31fddd047152f25ccab54c990d639aff25866ca84978d9eb32d70176fb8403c4"
VARIED_CHAIN_SHA256 = "264f224ad6888cdc26aec71560f068b3ea09642fd902cee20e412cc057d416ba"

# Characters the canonical encoding escapes or passes through verbatim.
_VARIED_CHARS = ['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\x80", "\u00e9", "\u2028",
                 "\u2029", "\ufeff", "\uffff", "\U0001f600", "\U0010ffff", "a", "Z", " "]


def _varied_scalar(rng: random.Random):
    pick = rng.random()
    if pick < 0.5:
        return "".join(rng.choice(_VARIED_CHARS) for _ in range(rng.randint(0, 6)))
    if pick < 0.85:
        return rng.randint(-(2**200), 2**200) >> rng.randint(0, 200)
    return rng.random() < 0.5


def varied_chain(n: int, seed: int) -> Chain:
    """Kernel chain whose params, issuers and results span the scalar types."""
    rng = random.Random(seed)
    policy = Policy([
        PolicyRule(capability="echo.value", min_trust=TrustLevel.AGENT,
                   allowed_phases=frozenset({Phase.EXECUTE})),
        PolicyRule(capability="no.handler", min_trust=TrustLevel.UNTRUSTED,
                   allowed_phases=frozenset(Phase)),
    ])
    registry = HandlerRegistry({"echo.value": lambda world, directive: directive.params["v"]})
    kernel = GovernanceKernel(policy, registry, world=None)
    for index in range(n):
        params = {"v": _varied_scalar(rng)}
        for _ in range(rng.randint(0, 3)):
            key = "".join(rng.choice(_VARIED_CHARS) for _ in range(rng.randint(0, 3)))
            params[key] = _varied_scalar(rng)
        kernel.issue(
            rng.choice(["echo.value", "echo.value", "no.handler", "shell.exec"]),
            params,
            f"step{index}" + rng.choice(_VARIED_CHARS),
            rng.choice(list(TrustLevel)),
            rng.choice(list(Phase)),
        )
    return kernel.chain


def test_bundled_scenario_chain_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    scenario = str(bundled_path("exfiltration_scenario.json"))
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == BUNDLED_SCENARIO_CHAIN_SHA256
    assert import_chain(blob).export() == blob


@pytest.mark.parametrize(
    "make_chain, digest",
    [(build_chain, KERNEL_CHAIN_SHA256), (varied_chain, VARIED_CHAIN_SHA256)],
    ids=["kernel", "varied"],
)
def test_seeded_kernel_chain_bytes_are_pinned(make_chain, digest):
    blob = make_chain(300, seed=20261018).export()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert import_chain(blob).export() == blob


def edit_lines(lines, rng):
    """One seeded edit of a chain's lines: the edited lines, the edit's kind, and
    the index it must be refused at or before (the deleted, inserted or cut
    line, or the later of two swapped lines)."""
    kind = rng.choice(["delete", "duplicate", "swap", "truncate"])
    edited = list(lines)
    if kind == "delete":
        index = rng.randrange(len(lines))
        del edited[index]
    elif kind == "duplicate":
        index = rng.randrange(len(lines)) + 1
        edited.insert(index, lines[index - 1])
    elif kind == "swap":
        first, index = sorted(rng.sample(range(len(lines)), 2))
        edited[first], edited[index] = lines[index], lines[first]
    else:  # keep whole lines only, or cut the next one short
        index = rng.randrange(len(lines))
        cut = rng.randrange(len(lines[index]))
        edited = lines[:index] + ([lines[index][:cut]] if cut else [])
    return edited, kind, index


def test_line_edits_fail_at_or_before_the_edit_or_move_the_tip():
    # Deleted, duplicated, swapped and cut lines, as they stand and re-linked
    # by someone who can recompute every hash: each edit is refused at or
    # before the edited line, or verifies with another tip.
    # Re-linked, only a deletion verifies: a duplicate or a swap puts an id
    # at or below the one before it.
    rng = random.Random(96_000_000)
    pool = [make(12, seed=seed) for seed in range(4) for make in (build_chain, varied_chain)]
    tallies = {"refused": 0, "new tip": 0}
    for trial in range(1_000):
        chain = rng.choice(pool)
        edited, kind, index = edit_lines(chain.export().split(b"\n")[:-1], rng)
        blobs = [b"".join(line + b"\n" for line in edited)]
        if kind != "truncate":
            blobs.append(relink(edited))
        for relinked, blob in enumerate(blobs):
            try:
                imported = import_chain(blob)
            except ChainFormatError as exc:
                assert exc.line_number - 1 <= index, (trial, kind)
                tallies["refused"] += 1
            except ChainIntegrityError as exc:
                assert exc.index <= index, (trial, kind)
                tallies["refused"] += 1
            else:
                assert kind in ("delete", "truncate"), (trial, kind, relinked)
                assert imported.tip != chain.tip and len(imported) < len(chain), (trial, kind)
                tallies["new tip"] += 1
    assert sum(tallies.values()) > 1_000 and min(tallies.values()) > 0, tallies


def test_recognizer_takes_every_golden_line():
    # Every canonical line takes the recognizer's path, none the full parse.
    for make_chain in (build_chain, varied_chain):
        for line in make_chain(300, seed=20261018).export().split(b"\n")[:-1]:
            assert recognize(line) is not None, line


def test_recognizer_matches_each_line_in_place():
    blob = varied_chain(3, seed=5).export()
    lines = blob.split(b"\n")[:-1]
    matcher = provenance_module._line_matcher()
    start = 0
    for line in lines:
        end = start + len(line)
        assert_same_records(provenance_module._recognize(blob, start, end), recognize(line))
        in_place, fresh = matcher(blob, start, end), matcher(line)
        assert in_place.groups() == fresh.groups()
        assert [span[0] - start for span in in_place.regs] == [span[0] for span in fresh.regs]
        assert provenance_module._recognize(blob, start + 1, end) is None
        assert provenance_module._recognize(blob, start, end - 1) is None
        start = end + 1


def test_escape_dense_lines_skip_the_recognizer(monkeypatch):
    # One group repeat per escape makes the grammar slower than the full
    # parse past a few dozen escapes, so such a line never reaches it.
    limit = provenance_module._MAX_RECOGNIZED_ESCAPES
    chain = appended_chain([
        directive(1, params={"body": '"' * limit}),
        directive(2, params={"body": '"' * 10_000}),
        directive(3),
    ])
    blob = chain.export()
    matcher = provenance_module._line_matcher()
    matched = []

    def spy():
        def match(data, start, end):
            matched.append(data[start:end].count(b"\\"))
            return matcher(data, start, end)

        return match

    monkeypatch.setattr(provenance_module, "_line_matcher", spy)
    imported = import_chain(blob)
    assert matched == [limit, 0]
    assert imported == chain and imported.records == chain.records


def import_by_full_parse(blob: bytes) -> Chain:
    """import_chain with every line parsed in full: the recognizer's oracle."""
    lines = blob.split(b"\n")[:-1]
    records = [provenance_module._parse_line(raw, index) for index, raw in enumerate(lines)]
    ends = [match.start() for match in re.finditer(b"\n", blob)]
    return Chain._adopt(records, blob, ends)


def assert_same_records(got, expected):
    assert got == expected
    assert got.directive.canonical == expected.directive.canonical
    # Equal dicts may still differ in key order or in True against 1.
    assert [(k, type(v), v) for k, v in got.directive.params.items()] == [
        (k, type(v), v) for k, v in expected.directive.params.items()
    ]


@functools.cache
def oracle_lines() -> tuple:
    return tuple(
        tuple(chain.export().split(b"\n")[:-1])
        for chain in (build_chain(12, seed=31), varied_chain(24, seed=32))
    )


def _json(value) -> bytes:
    return json.dumps(value, ensure_ascii=False).encode("utf-8")


# Mutations of one valid line. Each takes the line and pick(options), which
# draws one of the options; most mutants leave the grammar, some stay in it.
def _replace_one(line: bytes, old: bytes, new: bytes, pick) -> bytes:
    starts = [match.start() for match in re.finditer(re.escape(old), line)]
    if not starts:
        return line
    at = pick(starts)
    return line[:at] + new + line[at + len(old):]


def _flip(line, pick):
    mutated = bytearray(line)
    flip_bit(mutated, pick(range(len(line) * 8)))
    return bytes(mutated)


_RE_ESCAPES = [
    (b"/", b"\\/"),
    (b"\\n", b"\\u000a"),
    (b"\\u001f", b"\\u001F"),
    (b'\\"', b"\\u0022"),
    (b"\\\\", b"\\u005c"),
    (b"\xc3\xa9", b"\\u00e9"),
    (b"\x7f", b"\\u007f"),
]


def _re_escape(line, pick):
    if pick([True, False]):
        at = pick([i for i, byte in enumerate(line) if chr(byte).isalpha() and byte < 128])
        return line[:at] + b"\\u%04x" % line[at] + line[at + 1:]
    old, new = pick(_RE_ESCAPES)
    return _replace_one(line, old, new, pick)


def _params(line, pick):
    params = json.loads(line)["directive"]["params"]
    pairs = [_json(key) + b":" + _json(value) for key, value in params.items()]
    old = b'"params":{%s}' % b",".join(pairs)
    assert old in line
    if not pairs:
        return line
    i = pick(range(len(pairs)))
    how = pick(["duplicate", "same key, other value", "swap"])
    if how == "duplicate":
        pairs.insert(pick(range(len(pairs) + 1)), pairs[i])
    elif how == "same key, other value":
        pairs.insert(pick([i, i + 1]), _json(list(params)[i]) + b':"x"')
    elif len(pairs) > 1:
        j = pick([k for k in range(len(pairs)) if k != i])
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return line.replace(old, b'"params":{%s}' % b",".join(pairs))


def _empty_string(line, pick):
    strings = list(re.finditer(rb'(?<=":)"(?:[^"\\]|\\.)*"', line))
    string = pick(strings)
    return line[: string.start()] + b'""' + line[string.end():]


_INT_SPELLINGS = [b"-0", b"00", b"01", b"%d" % 2**64, b"%d" % (2**64 - 1), b"9" * 5_000]


def _integer(line, pick):
    tokens = list(re.finditer(rb'(?<=":)-?[0-9]+(?=[,}])', line))
    if not tokens:
        return line
    token = pick(tokens)
    spelling = pick(_INT_SPELLINGS + [b"0" + token.group(), b"-" + token.group()])
    return line[: token.start()] + spelling + line[token.end():]


def _hex_case(line, pick):
    run = pick([m.start() for m in re.finditer(rb'"[0-9a-f]{64}"', line)]) + 1
    at = pick([i for i in range(run, run + 64) if line[i:i + 1] in b"abcdef"] or [run])
    return line[:at] + line[at:at + 1].upper() + line[at + 1:]


def _decision(line, pick):
    old = re.search(rb'"decision":\{[^}]*\}', line).group()
    verdict = pick([b"allow", b"deny"])
    reason = pick([b"granted", b"no_capability", b"insufficient_trust", b"phase_violation"])
    return line.replace(old, b'"decision":{"verdict":"%s","reason":"%s"}' % (verdict, reason))


MUTATIONS = [_flip, _re_escape, _params, _empty_string, _integer, _hex_case, _decision]


def outcome(importer, blob: bytes):
    try:
        return importer(blob)
    except (ChainFormatError, ChainIntegrityError) as exc:
        return type(exc), str(exc)


@seed(20261018)
@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_recognizer_agrees_with_the_full_parse(data):
    pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
    lines = list(pick(oracle_lines()))
    index = pick(range(len(lines)))
    mutant = pick(MUTATIONS)(lines[index], pick)
    recognized = recognize(mutant)
    if recognized is not None:
        assert_same_records(recognized, provenance_module._parse_line(mutant, index))
    lines[index] = mutant
    blob = b"".join(line + b"\n" for line in lines)
    fast, full = outcome(import_chain, blob), outcome(import_by_full_parse, blob)
    assert fast == full
    if isinstance(fast, Chain):
        for got, expected in zip(fast.records, full.records):
            assert_same_records(got, expected)
        assert_records_render_the_chain_bytes(fast)
        assert_records_render_the_chain_bytes(full)
