"""Layer spans for the traced benchmark run.

The program itself carries no tracing.  This module wraps the public entry
points of each ``repro`` layer *from the outside*: :func:`instrument`
replaces a function (or method) with a wrapper that records a span — name,
start, end and the span that was open when it started — and returns a
callable that restores every original.  Spans stay in memory in a
:class:`Recorder` and are written out once, when the benchmark ends.

Spans are recorded only while the recorder is enabled (the benchmark
enables it inside its timed stages), so untimed correctness checks never
show up as layer time.  A layer's *self time* is its spans' durations minus
the part covered by their child spans; :meth:`Recorder.layer_seconds` sums
self time per span name.

The experiment service runs jobs in a forked worker process.  The wrapper
around :func:`repro.service.scheduler.run_job` starts a fresh span list in
the worker and spools it to a JSON file when the job returns; the wrapper
around :meth:`Scheduler.drain` adopts those spans as children of the drain
span, so the worker's layers count in the same tree as the parent's.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
import statistics
import time
from typing import Callable, Dict, List

#: Short layer keys for the problem specs the workloads run.
PROBLEM_KEYS = {
    "maximal-independent-set": "mis",
    "maximal-matching": "matching",
    "(2,2)-ruling-set": "ruling_set",
}


def problem_key(problem: object) -> str:
    return PROBLEM_KEYS.get(getattr(problem, "name", ""), "other")


class Recorder:
    """In-memory span list plus exact counters recorded at the same boundaries."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.enabled = False
        # Each span is [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + int(amount)

    # -- the service worker's share ----------------------------------------

    def restart_in_child(self) -> None:
        """Drop the spans inherited through ``fork``; the worker starts afresh."""
        self.spans = []
        self.counts = {}
        self._stack = []

    def spool(self, tag: str) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def adopt_spooled(self, parent: int) -> None:
        """Attach every spooled worker span list under span ``parent``."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.unlink(path)
            offset = len(self.spans)
            for name, start, end, up in payload["spans"]:
                self.spans.append([name, start, end, parent if up < 0 else up + offset])
            for name, amount in payload["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + amount

    # -- analysis ----------------------------------------------------------

    def layer_seconds(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "format": "perfbench-spans/v1",
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )


def _wrap(recorder: Recorder, fn: Callable, name, after=None):
    """``fn`` inside a span; ``name`` is a string or built from the call's arguments.

    ``after(result, arguments)`` records counters from the call's result.
    """
    signature = inspect.signature(fn) if callable(name) or after is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        arguments = None
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
        label = name(arguments) if callable(name) else name
        result = recorder.call(label, fn, args, kwargs)
        if after is not None:
            after(result, arguments)
        return result

    return wrapper


def span_cost(calls: int = 20_000, bursts: int = 5) -> float:
    """Seconds one recorded span adds to a call, measured on this host now.

    Times an empty function through the costliest wrapper :func:`instrument`
    makes (arguments bound, the span's name built from them, an ``after``
    hook) against the bare function; the median over ``bursts``.
    """
    recorder = Recorder(spool_dir="unused")
    recorder.enabled = True

    def empty(network, problem=None, seeds=()):
        return None

    wrapped = _wrap(recorder, empty, lambda arguments: "span", after=lambda result, arguments: None)
    costs = []
    for _ in range(bursts):
        recorder.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            empty(1, 2)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        costs.append((time.perf_counter() - start - bare) / calls)
    return max(0.0, statistics.median(costs))


def _faults_on(faults: object) -> bool:
    return faults is not None and (
        bool(getattr(faults, "crashes", None)) or getattr(faults, "has_message_faults", False)
    )


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps them."""
    from repro.core import experiment, metrics
    from repro.core.trace import ExecutionTrace
    from repro.graphs import generators
    from repro.local.engine import ArrayEngine
    from repro.local.faults import FaultSchedule
    from repro.local.network import Network
    from repro.local.runner import Runner
    from repro.service import queue, scheduler, store

    # `repro.analysis` re-exports the sweep function under the module's name.
    sweepmod = importlib.import_module("repro.analysis.sweep")
    undo: List[Callable[[], None]] = []

    def patch(owner: object, attr: str, name, after=None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(_wrap(recorder, original.__func__, name, after))
        else:
            replacement = _wrap(recorder, original, name, after)
        setattr(owner, attr, replacement)
        undo.append(lambda: setattr(owner, attr, original))

    def engine_span(mode: str):
        def name(arguments) -> str:
            faulted = _faults_on(arguments.get("faults"))
            return f"engine.{problem_key(arguments['problem'])}.{'faulted' if faulted else mode}"

        return name

    def engine_rounds(traces, arguments) -> None:
        for trace in traces if isinstance(traces, list) else [traces]:
            recorder.count(f"engine.{problem_key(trace.problem)}.rounds", trace.rounds)

    def batch_counts(traces, arguments) -> None:
        engine_rounds(traces, arguments)
        recorder.count("engine.trial_rounds", sum(t.rounds for t in traces))

    def count_calls(owner: object, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span of their own."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            recorder.count(counter)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        undo.append(lambda: setattr(owner, attr, original))

    patch(generators, "fast_gnp_edges", "graphs.generate")
    patch(Network, "from_edge_arrays", "network.build",
          after=lambda network, arguments: recorder.count("network.builds"))
    patch(ArrayEngine, "run", engine_span("run"), after=engine_rounds)
    patch(ArrayEngine, "run_batch", engine_span("batch"), after=batch_counts)
    # The chunks `run_batch` actually stepped, as it steps them.
    count_calls(ArrayEngine, "_run_batch_chunk", "engine.batch_chunks")
    patch(Runner, "run", "runner.run",
          after=lambda trace, arguments: recorder.count("runner.messages", trace.total_messages))
    patch(FaultSchedule, "round_faults", "faults.round_view",
          after=lambda view, arguments: recorder.count("faults.round_views"))
    patch(ExecutionTrace, "validate",
          lambda arguments: f"problems.{problem_key(arguments['self'].problem)}.validate")
    # `measure` is imported by name into the facade and the sweep module.
    for module in (metrics, experiment, sweepmod):
        patch(module, "measure", "metrics.measure")
    patch(sweepmod, "sweep", "sweep.checkpointed")
    patch(sweepmod, "read_checkpoint", "sweep.read_checkpoint")
    patch(store.ResultStore, "record_results", "store.record_results")
    patch(store.ResultStore, "points", "store.read")
    patch(store.ResultStore, "cells", "store.read")
    patch(store.ResultStore, "network_for", "store.graph_cache")
    patch(queue.JobQueue, "submit", "queue.submit")

    original_run_job = scheduler.run_job

    @functools.wraps(original_run_job)
    def run_job(db_path, job_id):
        # Runs in the forked worker: record its spans, then hand them over.
        recorder.restart_in_child()
        try:
            return recorder.call("service.run_job", original_run_job, (db_path, job_id), {})
        finally:
            recorder.spool(str(job_id))

    scheduler.run_job = run_job
    undo.append(lambda: setattr(scheduler, "run_job", original_run_job))

    original_drain = scheduler.Scheduler.drain

    @functools.wraps(original_drain)
    def drain(self, *args, **kwargs):
        index = len(recorder.spans)
        try:
            return recorder.call("service.drain", original_drain, (self, *args), kwargs)
        finally:
            if recorder.enabled:
                recorder.adopt_spooled(index)

    scheduler.Scheduler.drain = drain
    undo.append(lambda: setattr(scheduler.Scheduler, "drain", original_drain))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
