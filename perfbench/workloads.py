"""Seeded inputs, closed-loop operations and output checks for the benchmark.

Four workloads, each one client that waits for every result before it sends
the next request:

* ``agent_tasks``: one 100-action scenario task, loaded with
  ``load_scenario`` and run on a fresh kernel, then exported;
* ``long_session``: one ``GovernanceKernel.issue`` on a kernel whose chain
  grows to ``SESSION_LENGTH`` records and is exported at the end;
* ``chain_audit``: ``import_chain``, ``Chain.verify`` and a ``decide``
  replay of one exported 100-record chain; one chain in ten has a single
  flipped bit and must be rejected at or before the edited record;
* ``monitor_sweep``: one ``simulate_monitor`` call on a cell of the
  coverage x actions grid.

Inputs come only from the seed. Operations reach the package through an
``Api`` object, so the traced run (``tracer.py``) substitutes wrapped entry
points without changing the operation code. Every output is checked; an
operation that raises or fails a check counts as failed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from urllib.parse import quote

import effectgov
from effectgov import (
    ChainFormatError,
    ChainIntegrityError,
    DecisionReason,
    ExecStatus,
    GovernanceKernel,
    Phase,
    TrustLevel,
    Verdict,
    gap_probability,
    seeded_world,
    standard_registry,
)

SESSION_LENGTH = 20_000
WARMUP_SESSION_LENGTH = 1_000
AUDIT_CHAINS = 90
AUDIT_TAMPERED = 10
MONITOR_GRID = tuple((c, a) for c in (0.9, 0.99, 0.999) for a in (10, 100, 1000))
# Trials x actions per simulate_monitor call, equal in every cell: the
# analyst call the package README documents, `simulate-monitor --actions 100
# --trials 100000`, which is also the draw budget of one simulation chunk.
MONITOR_WORK_PER_CALL = 10_000_000
MONITOR_SIGMAS = 4.0
WARMUP_OPS = 10

ISSUER = "session-agent"
SEARCH_BASE = "http://search.example/find"
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789     .,-\"é"
_TEXT_POOL_CHARS = 1 << 18

_EXECUTED = (ExecStatus.EXECUTED, DecisionReason.GRANTED)


@dataclass(frozen=True)
class Action:
    """One kind of agent action and the outcome the benchmark policy gives it."""

    name: str
    tool: str  # the plan item's "tool" field in agent_tasks scenarios
    kind: str
    phase: Phase
    expected: tuple[ExecStatus, DecisionReason]
    per_hundred: int


# Under perfbench/policy.json with agent trust these give 70% executed, 20%
# denied (three reasons), 5% handler failures and 5% theater, so every kernel
# branch runs in every block of 100 actions.
ACTIONS = (
    Action("email", "email", "email.send", Phase.EXECUTE, _EXECUTED, 30),
    Action("search", "search", "web.browse", Phase.EXECUTE, _EXECUTED, 22),
    Action("query", "query", "db.query", Phase.EXECUTE, _EXECUTED, 18),
    Action("ledger", "query", "db.query", Phase.EXECUTE,
           (ExecStatus.FAILED, DecisionReason.GRANTED), 5),  # no such table
    Action("crm", "crm", "crm.update", Phase.EXECUTE,
           (ExecStatus.HANDLER_MISSING, DecisionReason.GRANTED), 5),
    Action("shell", "shell", "shell.exec", Phase.EXECUTE,
           (ExecStatus.SKIPPED, DecisionReason.NO_CAPABILITY), 7),
    Action("drop", "drop", "db.drop", Phase.EXECUTE,
           (ExecStatus.SKIPPED, DecisionReason.INSUFFICIENT_TRUST), 7),
    Action("draft", "draft", "email.send", Phase.PLAN,
           (ExecStatus.SKIPPED, DecisionReason.PHASE_VIOLATION), 6),
)
BLOCK = tuple(action for action in ACTIONS for _ in range(action.per_hundred))


def search_url(text: str) -> str:
    """The URL the scenario's encode-url step builds from a search query."""
    return f"{SEARCH_BASE}?q={quote(text, safe='')}"


def text_pool(rng: random.Random) -> str:
    """Random text that action payloads are sliced from."""
    return "".join(rng.choices(_ALPHABET, k=_TEXT_POOL_CHARS))


class Inputs:
    """Seeded source of action parameters."""

    def __init__(self, rng: random.Random, pool: str, min_text: int, max_text: int):
        self.rng = rng
        self._pool = pool
        self._log_span = math.log(max_text / min_text)
        self._min_text = min_text

    def text(self) -> str:
        # Log-uniform length, so small and large payloads are both common.
        size = int(self._min_text * math.exp(self.rng.random() * self._log_span))
        start = self.rng.randrange(_TEXT_POOL_CHARS - size)
        return self._pool[start : start + size]

    def block(self) -> list[Action]:
        block = list(BLOCK)
        self.rng.shuffle(block)
        return block

    def fields(self, action: Action) -> dict:
        """The action's plan-item fields; search carries the query, not the URL."""
        rng = self.rng
        name = action.name
        if name in ("email", "draft"):
            return {"to": f"user{rng.randrange(100)}@example.test", "body": self.text()}
        if name == "search":
            return {"q": self.text()}
        if name == "query":
            return {"table": rng.choice(("sensitive", "users")), "select": rng.choice(("*", "id"))}
        if name == "ledger":
            return {"table": "ledger", "select": "*"}
        if name == "crm":
            return {"record": f"acct-{rng.randrange(10_000)}", "note": self.text()}
        if name == "shell":
            return {"cmd": self.text()}
        if name == "drop":
            return {"table": rng.choice(("sensitive", "users"))}
        raise ValueError(f"no parameters for action {name!r}")

    def params(self, action: Action) -> dict:
        """Directive parameters for issuing the action directly."""
        fields = self.fields(action)
        if action.name == "search":
            return {"url": search_url(fields["q"])}
        return fields


def _field(name: str) -> dict:
    return {"op": "select-field", "field": name}


def _emit(name: str, kind: str, params: dict, phase: str = "execute") -> dict:
    return {"emit": {"name": name, "kind": kind, "phase": phase, "params": params}}


def _from_item(*names: str) -> dict:
    return {name: _field(name) for name in names}


def _task_workflow() -> dict:
    """Agent loop: iterate over the plan, branch on each item's tool."""
    arms = [
        ("email", _emit("send_mail", "email.send", _from_item("to", "body"))),
        ("search", {"seq": [
            {"step": {"name": "pick_query", "fn": _field("q")}},
            {"step": {"name": "encode_query",
                      "fn": {"op": "encode-url", "base": SEARCH_BASE, "param": "q"}}},
            _emit("browse", "web.browse", {"url": {"op": "input"}}),
        ]}),
        ("query", _emit("run_query", "db.query", _from_item("table", "select"))),
        ("shell", _emit("run_shell", "shell.exec", _from_item("cmd"))),
        ("drop", _emit("drop_table", "db.drop", _from_item("table"))),
        ("crm", _emit("update_crm", "crm.update", _from_item("record", "note"))),
    ]
    body = _emit("draft_mail", "email.send", _from_item("to", "body"), phase="plan")
    for tool, arm in reversed(arms):
        when = {"op": "eq", "left": _field("tool"), "right": {"op": "const", "value": tool}}
        body = {"branch": {"when": when, "then": arm, "else": body}}
    return {"iterate": {"over": _field("plan"), "body": body}}


TASK_WORKFLOW = _task_workflow()


class Api:
    """The package entry points the operations call.

    The untraced run uses the package's own functions. The traced run uses a
    subclass with wrapped ones, so operation code is identical in both.
    """

    def __init__(self, policy):
        self.policy = policy
        self.load_scenario = effectgov.load_scenario
        self.run = effectgov.run
        self.import_chain = effectgov.import_chain
        self.verify = effectgov.Chain.verify
        self.decide = effectgov.decide
        self.simulate_monitor = effectgov.simulate_monitor

    def kernel(self) -> GovernanceKernel:
        return GovernanceKernel(self.policy, standard_registry(), seeded_world())

    def start_measuring(self) -> None:
        """Warm-up is over; only the traced run records anything."""

    def begin_op(self) -> None:
        """Start of one operation; only the traced run records anything."""

    def end_op(self) -> None:
        """End of one operation; only the traced run records anything."""


@dataclass
class Tally:
    """What one measured phase did: latencies, work, failures, realised mix."""

    latencies_ns: list[int] = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    outcomes: Counter = field(default_factory=Counter)
    records: int = 0
    param_bytes_total: int = 0
    param_bytes_max: int = 0
    chain_length: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)

    def absorb_failures(self, other: "Tally") -> None:
        """Count another phase's operations and failures, not its timings."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: 5 - len(self.problems)])

    def add_records(self, records) -> None:
        self.chain_length = max(self.chain_length, len(records))
        for record in records:
            self.records += 1
            self.outcomes[record.exec_status.value] += 1
            if record.decision.verdict is Verdict.DENY:
                self.outcomes[record.decision.reason.value] += 1
            size = sum(
                len(value.encode("utf-8")) if isinstance(value, str) else len(str(value))
                for value in record.directive.params.values()
            )
            self.param_bytes_total += size
            self.param_bytes_max = max(self.param_bytes_max, size)

    def mix(self) -> dict:
        """Realised shares per exec status and deny reason, and param sizes."""
        total = self.records
        return {
            "records": total,
            "shares": {key: count / total for key, count in sorted(self.outcomes.items())}
            if total else {},
            "param_bytes_mean": self.param_bytes_total / total if total else 0.0,
            "param_bytes_max": self.param_bytes_max,
            "chain_length": self.chain_length,
        }


def check_chain(kernel, data: bytes, policy, expected) -> str | None:
    """Every check a kernel's chain must pass; returns the first problem."""
    chain = kernel.chain
    records = chain.records
    outcomes = [(record.exec_status, record.decision.reason) for record in records]
    if outcomes != list(expected):
        return "recorded outcomes differ from the generated actions"
    if not chain.verify().valid:
        return "chain does not verify"
    imported = effectgov.import_chain(data)
    if imported != chain or imported.export() != data:
        return "import_chain(export) differs from the chain"
    journal = kernel.world.journal
    executed = sorted(
        (record.directive.kind, record.directive.id)
        for record in records
        if record.exec_status is ExecStatus.EXECUTED
    )
    if len(set(journal)) != len(journal) or sorted(journal) != executed:
        return "world journal does not match the executed records"
    for record in records:
        if effectgov.decide(policy, record.directive) != record.decision:
            return f"replayed decision differs at record {record.seq}"
    return None


def closed_loop(api, tally, inputs, operate, check, work, seconds=None, count=None):
    """Run operations back to back, for `seconds` or `count` of them.

    Only `operate` is timed. `check` sees the input and the output and
    returns a problem or None; an operation that raises counts as failed.
    """
    deadline = perf_counter() + seconds if seconds is not None else None
    for index in itertools.count():
        if count is not None and index >= count:
            break
        if deadline is not None and index and perf_counter() >= deadline:
            break
        item = inputs(index)
        tally.attempted += 1
        api.begin_op()
        start = perf_counter_ns()
        try:
            output = operate(api, item)
        except Exception:
            api.end_op()
            tally.fail(1, traceback.format_exc())
            continue
        elapsed = perf_counter_ns() - start
        api.end_op()
        tally.latencies_ns.append(elapsed)
        tally.work += work(item)
        try:
            problem = check(item, output, tally)
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            tally.fail(1, problem)


def measure(api, tally, seconds, inputs, warmup_inputs, operate, check, work,
            warmup_ops=WARMUP_OPS):
    """Warm up on `warmup_inputs`, then run `inputs` for `seconds`.

    Warm-up timings are dropped; its operations and failures still count.
    """
    warm = Tally()
    closed_loop(api, warm, warmup_inputs, operate, check, work, count=warmup_ops)
    tally.absorb_failures(warm)
    api.start_measuring()
    closed_loop(api, tally, inputs, operate, check, work, seconds=seconds)


class Workload:
    """A seeded workload: `run_phase` warms up, then measures for `seconds`."""

    name = ""
    work_unit = ""
    trace_block = 1  # operations per cycle of inputs; the traced run alternates these

    def __init__(self, seed: int, policy):
        self.seed = seed
        self.policy = policy
        self.pool = text_pool(self.rng("text"))

    def rng(self, *parts) -> random.Random:
        # String seeds hash with SHA-512, so streams repeat across processes.
        return random.Random(":".join(str(part) for part in (self.name, self.seed, *parts)))

    def run_phase(self, api: Api, tally: Tally, seconds: float) -> None:
        raise NotImplementedError


class AgentTasks(Workload):
    name = "agent_tasks"
    work_unit = "actions"

    def task(self, stream: str, index: int) -> tuple[bytes, list]:
        """One scenario document and the outcome expected for each action."""
        inputs = Inputs(self.rng(stream, index), self.pool, 8, 64)
        items, expected = [], []
        for action in inputs.block():
            items.append({"tool": action.tool, **inputs.fields(action)})
            expected.append(action.expected)
        document = {"input": {"plan": items}, "trust": "agent", "workflow": TASK_WORKFLOW}
        return _json_bytes(document), expected

    @staticmethod
    def operate(api: Api, task):
        document, _ = task
        scenario = api.load_scenario(document)
        kernel = api.kernel()
        result = api.run(scenario.workflow, scenario.input, kernel, trust=scenario.trust)
        return kernel, result, kernel.chain.export()

    def check(self, task, output, tally: Tally):
        kernel, result, data = output
        _, expected = task
        if result.directives_issued != len(expected):
            return f"task issued {result.directives_issued} directives, planned {len(expected)}"
        tally.add_records(kernel.chain.records)
        return check_chain(kernel, data, self.policy, expected)

    def run_phase(self, api, tally, seconds):
        measure(api, tally, seconds, lambda i: self.task("measure", i),
                lambda i: self.task("warmup", i), self.operate, self.check, _task_work)


def _task_work(task) -> int:
    return len(task[1])


class LongSession(Workload):
    name = "long_session"
    work_unit = "issues"
    trace_block = len(BLOCK)

    def session(self, stream: str, index: int, length: int = SESSION_LENGTH) -> list:
        """(kind, params, phase, expected) per issue, in blocks of 100."""
        inputs = Inputs(self.rng(stream, index), self.pool, 16, 4096)
        actions = []
        for _ in range(length // len(BLOCK)):
            for action in inputs.block():
                actions.append((action.kind, inputs.params(action), action.phase, action.expected))
        return actions

    def run_session(self, api: Api, tally: Tally, actions: list) -> None:
        kernel = api.kernel()
        issue = kernel.issue
        latencies = tally.latencies_ns
        begin_op, end_op = api.begin_op, api.end_op
        agent = TrustLevel.AGENT
        raised = 0
        for kind, params, phase, _ in actions:
            begin_op()
            start = perf_counter_ns()
            try:
                issue(kind, params, ISSUER, agent, phase)
            except Exception:
                raised += 1
            elapsed = perf_counter_ns() - start
            end_op()
            latencies.append(elapsed)
        tally.attempted += len(actions)
        tally.work += len(actions)
        if raised:
            tally.fail(len(actions), f"{raised} issue calls raised")
            return
        data = kernel.chain.export()
        tally.add_records(kernel.chain.records)
        try:
            problem = check_chain(kernel, data, self.policy, [a[3] for a in actions])
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            tally.fail(len(actions), problem)

    def run_phase(self, api, tally, seconds):
        warm = Tally()
        self.run_session(api, warm, self.session("warmup", 0, WARMUP_SESSION_LENGTH))
        tally.absorb_failures(warm)
        api.start_measuring()
        # Sessions always finish, so every run times the same chain-length profile.
        deadline = perf_counter() + seconds
        for index in itertools.count():
            if index and perf_counter() >= deadline:
                break
            self.run_session(api, tally, self.session("measure", index))


@dataclass(frozen=True)
class AuditCase:
    data: bytes
    chain: effectgov.Chain | None  # the exported chain; None when tampered
    flipped_record: int | None  # index of the record with the flipped bit


class ChainAudit(Workload):
    name = "chain_audit"
    work_unit = "records"
    trace_block = AUDIT_CHAINS + AUDIT_TAMPERED

    def __init__(self, seed, policy):
        super().__init__(seed, policy)
        self.cases = self.make_cases()

    def make_cases(self) -> list[AuditCase]:
        """Exported 100-record chains; AUDIT_TAMPERED copies get one flipped bit."""
        inputs = Inputs(self.rng("chains"), self.pool, 8, 64)
        cases = []
        for _ in range(AUDIT_CHAINS):
            kernel = GovernanceKernel(self.policy, standard_registry(), seeded_world())
            for action in inputs.block():
                kernel.issue(action.kind, inputs.params(action), ISSUER, TrustLevel.AGENT,
                             action.phase)
            cases.append(AuditCase(kernel.chain.export(), kernel.chain, None))
        rng = inputs.rng
        for _ in range(AUDIT_TAMPERED):
            lines = rng.choice(cases[:AUDIT_CHAINS]).data.split(b"\n")[:-1]  # clean ones
            target = rng.randrange(len(lines))
            line = bytearray(lines[target])
            bit = rng.randrange(len(line) * 8)
            line[bit // 8] ^= 1 << (bit % 8)
            lines[target] = bytes(line)
            cases.append(AuditCase(b"".join(l + b"\n" for l in lines), None, target))
        rng.shuffle(cases)
        return cases

    def case(self, index: int) -> AuditCase:
        return self.cases[index % len(self.cases)]

    @staticmethod
    def operate(api: Api, case: AuditCase):
        try:
            chain = api.import_chain(case.data)
        except (ChainFormatError, ChainIntegrityError) as rejection:
            return rejection
        report = api.verify(chain)
        policy, decide = api.policy, api.decide
        return chain, report, [decide(policy, record.directive) for record in chain.records]

    @staticmethod
    def check(case: AuditCase, output, tally: Tally):
        if case.flipped_record is not None:
            if isinstance(output, ChainFormatError):
                index = output.line_number - 1
            elif isinstance(output, ChainIntegrityError):
                index = output.index
            elif not output[1].valid:
                index = output[1].first_bad_index
            else:
                return f"tampered chain accepted (bit flipped in record {case.flipped_record})"
            if index > case.flipped_record:
                return f"flip in record {case.flipped_record} detected late, at {index}"
            return None
        if isinstance(output, Exception):
            return f"clean chain rejected: {output}"
        chain, report, replayed = output
        if not report.valid:
            return "clean chain fails Chain.verify"
        if chain != case.chain or chain.export() != case.data:
            return "imported chain differs from the exported one"
        if replayed != [record.decision for record in chain.records]:
            return "replayed decisions differ from the recorded ones"
        tally.add_records(chain.records)
        return None

    def run_phase(self, api, tally, seconds):
        measure(api, tally, seconds, self.case, self.case, self.operate, self.check,
                _audit_work)


def _audit_work(case: AuditCase) -> int:
    return case.data.count(b"\n")


class MonitorSweep(Workload):
    name = "monitor_sweep"
    work_unit = "trial-actions"
    trace_block = len(MONITOR_GRID)

    def call(self, stream: str, index: int) -> tuple[float, int, int, int]:
        """(coverage, actions, trials, seed) of one simulate_monitor call."""
        coverage, actions = MONITOR_GRID[index % len(MONITOR_GRID)]
        seed = self.rng(stream, index).getrandbits(63)
        return coverage, actions, MONITOR_WORK_PER_CALL // actions, seed

    @staticmethod
    def operate(api: Api, call):
        return api.simulate_monitor(*call)

    def run_phase(self, api, tally, seconds):
        pooled = {cell: [0, 0, 0] for cell in MONITOR_GRID}  # breached, trials, calls

        def check(call, frequency, tally):
            coverage, actions, trials, _ = call
            if not isinstance(frequency, float):
                return f"frequency {frequency!r} is not a float"
            breached = round(frequency * trials)
            if breached / trials != frequency:
                return f"frequency {frequency!r} is not a count over {trials} trials"
            cell = pooled[(coverage, actions)]
            cell[0] += breached
            cell[1] += trials
            cell[2] += 1
            return None

        measure(api, tally, seconds, lambda i: self.call("measure", i),
                lambda i: self.call("warmup", i), self.operate, check, _monitor_work,
                warmup_ops=len(MONITOR_GRID))
        for problem, calls in check_monitor_cells(pooled):
            tally.fail(calls, problem)


def check_monitor_cells(pooled: dict) -> list[tuple[str, int]]:
    """Each cell's pooled frequency must lie within MONITOR_SIGMAS of gap_probability.

    Pooling the calls of a run makes one test per cell, so the run's chance
    of a false alarm stays near 1e-3 however many calls it makes.
    """
    problems = []
    for (coverage, actions), (breached, trials, calls) in pooled.items():
        if not trials:
            continue
        expected = gap_probability(coverage, actions)
        sigma = math.sqrt(expected * (1.0 - expected) / trials)
        if abs(breached / trials - expected) > MONITOR_SIGMAS * sigma:
            problems.append((
                f"cell ({coverage}, {actions}): {breached}/{trials} breached, "
                f"gap_probability {expected:.6g}", calls))
    return problems


def _monitor_work(call) -> int:
    return call[1] * call[2]


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


WORKLOADS = {cls.name: cls for cls in (AgentTasks, LongSession, ChainAudit, MonitorSweep)}
