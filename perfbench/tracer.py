"""Per-layer spans for the traced run, recorded from outside the program.

The traced run replaces the package functions that the kernel and the
provenance module look up at call time, gives each kernel a ``Chain``
subclass and a registry of wrapped handlers, and wraps each kernel's
``issue``. No source of the package changes. Spans are recorded only inside
an operation, so the checks between operations add nothing to the table.

The tracer records alternate blocks of operations. A block is one cycle of
the workload's inputs, so the recorded and the skipped operations see the
same mix of inputs. Skipped operations run through the same wrappers, which
then only pass the call on, so the difference between the median latencies
of the two groups is the cost of recording (``trace.overhead_ms``), measured
over the same stretch of time rather than in two halves that drift apart.

A span's self time is its duration minus the durations of the spans it
encloses. The operation is the root span; its self time is what no layer
accounts for (benchmark glue and the wrappers' own bookkeeping), reported
as ``trace.unattributed_us_per_op``.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns

from effectgov import Chain, GovernanceKernel, HandlerRegistry, seeded_world, standard_registry
from effectgov import kernel as kernel_module
from effectgov import provenance as provenance_module

from workloads import MONITOR_GRID, Api

# Module-level names the kernel and provenance call, and the span each gets.
PATCHED = (
    (kernel_module, "make_directive", "directives.make_directive"),
    (kernel_module, "decide", "kernel.decide"),
    (kernel_module, "canonical_value_bytes", "kernel.result_digest"),
    (provenance_module, "directive_from_obj", "directives.directive_from_obj"),
    (provenance_module, "record_line", "provenance.record_line"),
    (provenance_module, "compute_record_hash", "provenance.compute_record_hash"),
    (provenance_module, "verify_records", "provenance.verify_records"),
)
RENDER_SPANS = ("provenance.record_line", "provenance.compute_record_hash")
# Outcome and per-issue call counts cover the first traced submissions, a
# fixed number of them, so they repeat exactly for a seed however fast the
# run goes.
OUTCOME_WINDOW = 1_000
WINDOW_CALLS = ("directives.make_directive", "kernel.result_digest")


def _cell_span(coverage: float, actions: int) -> str:
    return f"analysis.simulate_monitor.cov{coverage}.act{actions}"


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: int = 0  # records, actions or trial-actions the calls handled


class Tracer:
    """Aggregates spans by name; the operation is the root of each tree."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.active = False
        self.ops = 0
        self.op_ns = 0
        self.unattributed_ns = 0
        self._stack = [0]  # enclosed-span time per open span; root first
        self._op_start = 0

    def reset(self) -> None:
        for name in self.spans:
            self.spans[name] = SpanStats()
        self.ops = self.op_ns = self.unattributed_ns = 0

    def wrap(self, name: str, fn, units=None):
        """`fn` recording a `name` span when called inside an operation.

        `units(*args, **kwargs)`, evaluated after the call, counts the
        records, actions or trial-actions the call handled.
        """
        self.spans.setdefault(name, SpanStats())
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stats = spans[name]
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - inner
                if units is not None:
                    stats.units += units(*args, **kwargs)

        return traced

    def begin_op(self) -> None:
        self._stack[:] = [0]
        self.active = True
        self._op_start = perf_counter_ns()

    def end_op(self) -> None:
        elapsed = perf_counter_ns() - self._op_start
        self.active = False
        self.ops += 1
        self.op_ns += elapsed
        self.unattributed_ns += elapsed - self._stack[0]

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.calls if stats else 0


class TracedApi(Api):
    """Api whose entry points, kernels, chains and handlers record spans."""

    def __init__(self, policy, tracer: Tracer, block: int):
        super().__init__(policy)
        wrap = tracer.wrap
        self.tracer = tracer
        self._block = block
        self.decide = kernel_module.decide
        self.load_scenario = wrap("scenario.load_scenario", self.load_scenario)
        self.run = wrap("workflow.run", self.run,
                        units=lambda workflow, value, kernel, **_: len(kernel.chain))
        self.verify = wrap("provenance.verify", self.verify, units=len)
        self._import_chain = wrap("provenance.import_chain", self.import_chain)
        self.import_chain = self._counted_import
        self._monitor_cells = {
            cell: wrap(_cell_span(*cell), self.simulate_monitor,
                       units=lambda coverage, actions, trials, seed: actions * trials)
            for cell in MONITOR_GRID
        }
        self.simulate_monitor = self._cell_monitor
        self.handler_spans = {
            kind: "simworld." + kind.replace(".", "_")
            for kind in sorted(standard_registry().capabilities())
        }

        class TracedChain(Chain):
            __slots__ = ()
            append = wrap("provenance.append", Chain.append)
            export = wrap("provenance.export", Chain.export, units=len)

        self._chain_class = TracedChain
        self.start_measuring()

    def start_measuring(self) -> None:
        self.tracer.reset()
        self.outcomes = Counter()
        self.window_calls = None  # WINDOW_CALLS counts once the window is full
        self.imported_records = 0
        self.import_parse_ns = 0
        self.import_renders = 0
        self.op_ns = {True: [], False: []}  # latencies of traced / untraced operations
        self._ops = 0
        self._traced = False
        self._op_start = 0

    def begin_op(self) -> None:
        self._traced = (self._ops // self._block) % 2 == 0
        self._ops += 1
        if self._traced:
            self.tracer.begin_op()
        self._op_start = perf_counter_ns()

    def end_op(self) -> None:
        self.op_ns[self._traced].append(perf_counter_ns() - self._op_start)
        if self._traced:
            self.tracer.end_op()

    def overhead_ms(self) -> float:
        """Median traced minus median untraced operation latency."""
        traced, untraced = self.op_ns[True], self.op_ns[False]
        if not (traced and untraced):
            return 0.0
        return (statistics.median(traced) - statistics.median(untraced)) / 1e6

    def window_counts(self) -> tuple[int, dict[str, int]]:
        """Submissions in the outcome window and WINDOW_CALLS calls made by them."""
        calls = self.window_calls or {name: self.tracer.calls(name) for name in WINDOW_CALLS}
        return sum(self.outcomes.values()), calls

    def kernel(self) -> GovernanceKernel:
        wrap = self.tracer.wrap
        plain = standard_registry()
        registry = HandlerRegistry(
            {kind: wrap(span, plain.get(kind)) for kind, span in self.handler_spans.items()}
        )
        kernel = GovernanceKernel(self.policy, registry, seeded_world(), chain=self._chain_class())
        traced_issue = wrap("kernel.issue", kernel.issue)
        tracer = self.tracer

        def issue(*args, **kwargs):
            outcome = traced_issue(*args, **kwargs)
            if tracer.active and self.window_calls is None:
                self.outcomes[outcome.exec_status.value] += 1
                if sum(self.outcomes.values()) == OUTCOME_WINDOW:
                    self.window_calls = {name: tracer.calls(name) for name in WINDOW_CALLS}
            return outcome

        kernel.issue = issue
        return kernel

    def _render_calls(self) -> int:
        return sum(self.tracer.calls(name) for name in RENDER_SPANS)

    def _counted_import(self, data):
        # Renders and parse time count only for traced chains that import, so
        # a rejected tampered chain does not dilute the per-record figures.
        if not self.tracer.active:
            return self._import_chain(data)
        spans = self.tracer.spans["provenance.import_chain"]
        renders, parse_ns = self._render_calls(), spans.self_ns
        chain = self._import_chain(data)
        self.import_renders += self._render_calls() - renders
        self.import_parse_ns += spans.self_ns - parse_ns
        self.imported_records += len(chain)
        return chain

    def _cell_monitor(self, coverage, actions, trials, seed):
        return self._monitor_cells[(coverage, actions)](coverage, actions, trials, seed)


@contextlib.contextmanager
def traced_api(policy, tracer: Tracer, block: int):
    """A TracedApi tracing alternate `block`s of operations, with the
    module-level names patched while it is in use."""
    saved = []
    try:
        for module, attr, span in PATCHED:
            original = getattr(module, attr, None)
            if original is None:  # a later version of the package may drop a helper
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield TracedApi(policy, tracer, block)
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, api: TracedApi) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced phase, as name -> (value, unit)."""
    spans = tracer.spans

    def stats(name: str) -> SpanStats:
        return spans.get(name) or SpanStats()

    def self_us(name: str) -> float:
        return _per(stats(name).self_ns, stats(name).calls) / 1e3

    issues, window_calls = api.window_counts()
    metrics = {
        "directives.make_directive.calls_per_issue": (
            _per(window_calls["directives.make_directive"], issues), "calls/issue"),
        "directives.make_directive.us_per_call": (self_us("directives.make_directive"), "us"),
        "directives.directive_from_obj.us_per_call": (
            self_us("directives.directive_from_obj"), "us"),
        "kernel.decide.us_per_call": (self_us("kernel.decide"), "us"),
        "kernel.result_digest.calls_per_issue": (
            _per(window_calls["kernel.result_digest"], issues), "calls/issue"),
        "kernel.result_digest.us_per_call": (self_us("kernel.result_digest"), "us"),
        "kernel.issue.self_us": (self_us("kernel.issue"), "us"),
    }
    for status in ("executed", "skipped", "failed", "handler_missing"):
        metrics[f"kernel.outcome.{status}"] = (api.outcomes[status], "count")
    for span in api.handler_spans.values():
        metrics[f"{span}.us_per_call"] = (self_us(span), "us")
    export = stats("provenance.export")
    verify = stats("provenance.verify")
    run = stats("workflow.run")
    metrics.update({
        "provenance.append.us_per_call": (self_us("provenance.append"), "us"),
        "provenance.export.us_per_record": (_per(export.total_ns, export.units) / 1e3, "us"),
        "provenance.import_parse.us_per_record": (
            _per(api.import_parse_ns, api.imported_records) / 1e3, "us"),
        "provenance.renders_per_record": (
            _per(api.import_renders, api.imported_records), "renders/record"),
        "provenance.verify.us_per_record": (_per(verify.total_ns, verify.units) / 1e3, "us"),
        "scenario.load_scenario.ms_per_task": (
            _per(stats("scenario.load_scenario").total_ns,
                 stats("scenario.load_scenario").calls) / 1e6, "ms"),
        "workflow.run.self_us_per_action": (_per(run.self_ns, run.units) / 1e3, "us"),
    })
    cells = [stats(_cell_span(*cell)) for cell in MONITOR_GRID]
    metrics["analysis.simulate_monitor.ns_per_trial_action"] = (
        _per(sum(c.total_ns for c in cells), sum(c.units for c in cells)), "ns")
    for cell, cell_stats in zip(MONITOR_GRID, cells):
        metrics[f"{_cell_span(*cell)}.ns_per_trial_action"] = (
            _per(cell_stats.total_ns, cell_stats.units), "ns")
    metrics["trace.unattributed_us_per_op"] = (
        _per(tracer.unattributed_ns, tracer.ops) / 1e3, "us")
    metrics["trace.overhead_ms"] = (api.overhead_ms(), "ms")
    return metrics


def layer_table(tracer: Tracer) -> dict:
    """Calls, self time per traced operation and units of every span."""
    table = {
        name: {"calls": s.calls, "self_us_per_op": _per(s.self_ns, tracer.ops) / 1e3,
               "units": s.units}
        for name, s in sorted(tracer.spans.items()) if s.calls
    }
    return {
        "ops": tracer.ops,
        "op_us_mean": _per(tracer.op_ns, tracer.ops) / 1e3,
        "unattributed_us_per_op": _per(tracer.unattributed_ns, tracer.ops) / 1e3,
        "spans": table,
    }
