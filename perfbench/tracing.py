"""Span tracing installed from outside the program under test.

The traced run wraps the public entry points of each layer of ``repro``
(compiler, PIF generator, Paradyn session, simulator kernel, CMRTS
dispatch, instrumentation, SAS, trace writer and reader, retro planner,
multi-question engine, analyzer and mapping-DSL checker) with timing
wrappers.  Nothing under ``src/`` is edited: wrappers replace class
attributes and every module-level binding of a wrapped function, so a
``from x import f`` elsewhere sees the wrapper too.

Every wrapped call is a span with a name, start, end, parent and op id.
A layer's self time is its span's duration minus the time covered by its
child spans; spans nest strictly because every wrapped call is
synchronous (the one generator, ``ColumnarTraceReader.scan_transitions``,
is timed per ``next()``).  Aggregates cover every span; the full span
records of the first ``KEEP_OPS`` ops stay in memory and are written out
by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "install"]

#: ops whose full span records are kept (every span feeds the aggregates)
KEEP_OPS = 3


class Tracer:
    """In-memory span store plus per-name aggregates and counters."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.stack: list[list] = []  # open spans: [name, start, child_time, span_id]
        # name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.watchers: list = []  # QuestionWatchers attached during this op
        self.sases: list = []  # ActiveSentenceSets created during this op

    def begin_op(self) -> None:
        self.op += 1
        self.watchers = []
        self.sases = []

    def end_op(self) -> None:
        """Fold the op's SAS and watcher state into the counters."""
        self.counts["sas.watcher_flips"] += sum(w.transitions for w in self.watchers)
        self.counts["sas.notifications"] += sum(s.notifications for s in self.sases)
        self.counts["sas.ignored"] += sum(s.ignored_notifications for s in self.sases)
        self.watchers = []
        self.sases = []

    def total(self, *names: str) -> float:
        return sum(self.agg[n][1] for n in names if n in self.agg)

    def self_time(self, *names: str) -> float:
        return sum(self.agg[n][2] for n in names if n in self.agg)

    def calls(self, *names: str) -> int:
        return sum(self.agg[n][0] for n in names if n in self.agg)

    def state(self) -> dict:
        """Aggregates and counters as plain JSON-able data."""
        return {"agg": {k: list(v) for k, v in self.agg.items()}, "counts": dict(self.counts)}

    def merge(self, state: dict) -> None:
        """Add another process's :meth:`state` (the serve launcher's)."""
        for name, (calls, total, own) in state["agg"].items():
            agg = self.agg[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for name, value in state["counts"].items():
            self.counts[name] += value

    def dump(self, path: str, extra: dict | None = None) -> None:
        payload = {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": op}
                for i, n, s, e, p, op in self.spans
            ],
            **self.state(),
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    # -- wrappers ----------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [name, 0.0, 0.0, -1]
        if self.op < KEEP_OPS:
            frame[3] = len(self.spans)
            self.spans.append(None)  # placeholder, filled on exit
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        agg = self.agg[frame[0]]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] >= 0:
            parent = self.stack[-1][3] if self.stack else -1
            self.spans[frame[3]] = (frame[3], frame[0], frame[1], end, parent, self.op)

    def wrap(self, fn, name: str, after=None):
        """Time ``fn`` as span ``name``; ``after(result, args)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, before=None):
        """Time each ``next()`` of the generator ``fn`` returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.enabled:
                yield from gen
                return
            if before is not None:
                before(args)
            while True:
                frame = self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                self.counts[name + ".items"] += 1
                yield item

        return wrapper


def _rebind(original, replacement) -> None:
    """Point every module-level binding of ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are built from.

    Imports the layers first, so the wrappers are in place before any
    workload object exists.  Tracing stays off until ``tracer.enabled``.
    """
    from repro import cmfortran, pif
    from repro.analyze import driver
    from repro.cmrts.dispatch import NodeWorker
    from repro.cmrts.runtime import CMRTSRuntime
    from repro.core.multiq import MultiQuestionEngine
    from repro.core.sas import ActiveSentenceSet
    from repro.dbsim import study as dbstudy
    from repro.instrument.manager import InstrumentationManager
    from repro.instrument.notify import SentenceNotifier
    from repro.machine.sim import Simulator
    from repro.mapdsl import checker
    from repro.paradyn.tool import Paradyn
    from repro.trace import columnar, retro
    from repro.trace.columnar import ColumnarTraceReader, ColumnarTraceWriter
    from repro.unixsim import study as unixstudy

    t = tracer
    counts = t.counts

    def on_sas(result, _args):
        if result:
            counts["sas.transitions"] += 1

    def on_affected(result, _args):
        counts["sas.watcher_updates"] += len(result)

    def on_attach(result, _args):
        t.watchers.append(result)

    def on_cmrts_run(result, _args):
        counts["cmrts.dispatches"] += result.dispatches

    def on_writer_close(_result, args):
        counts["trace.writer_transitions"] += args[0].transitions

    def on_scan(args):
        counts["trace.scans"] += 1
        counts["trace.segments_total"] += len(args[0].segments)

    def on_answers(_result, args):
        engine = args[0]
        counts["multiq.engines"] += 1
        counts["multiq.transitions_seen"] += engine.transitions_seen
        counts["multiq.node_updates"] += engine.node_updates
        counts["multiq.evaluations"] += engine.evaluations
        counts["multiq.nodes"] += len(engine.nodes)
        counts["multiq.subscriptions"] += len(engine.subscriptions)

    sas_init = ActiveSentenceSet.__init__

    @functools.wraps(sas_init)
    def tracked_sas_init(self, *args, **kwargs):
        sas_init(self, *args, **kwargs)
        if t.enabled:
            t.sases.append(self)

    functions = [
        (cmfortran, "compile_source", "cmfortran.compile", None),
        (pif, "generate_pif", "pif.generate", None),
        (columnar, "open_trace", "trace.open", None),
        (retro, "batch_event_plan", "retro.plan", None),
        (driver, "lint_paths", "analyze.lint", None),
        (checker, "check_map", "mapdsl.check", None),
        (dbstudy, "run_db_study", "dbsim.study", None),
        (unixstudy, "run_figure7_study", "unixsim.study", None),
    ]
    for module, attr, name, after in functions:
        original = getattr(module, attr)
        _rebind(original, t.wrap(original, name, after))

    methods = [
        (Paradyn, "__init__", "paradyn.setup", None),
        (Paradyn, "request_metric", "paradyn.setup", None),
        (Paradyn, "measure_block_times", "paradyn.setup", None),
        (Paradyn, "run", "paradyn.run", None),
        (Paradyn, "attribute", "paradyn.attribute", None),
        (Simulator, "run", "machine.run", None),
        (CMRTSRuntime, "run", "cmrts.run", on_cmrts_run),
        # the node workers' callouts into instrumentation and the SAS
        (NodeWorker, "_probe", "cmrts.fire", None),
        (NodeWorker, "_notify", "cmrts.fire", None),
        (InstrumentationManager, "fire", "instrument.fire", None),
        (SentenceNotifier, "activate", "instrument.notify", None),
        (SentenceNotifier, "deactivate", "instrument.notify", None),
        (ActiveSentenceSet, "activate", "sas.activate", on_sas),
        (ActiveSentenceSet, "deactivate", "sas.deactivate", on_sas),
        (ActiveSentenceSet, "affected_watchers", "sas.affected", on_affected),
        (ActiveSentenceSet, "attach_question", "sas.attach", on_attach),
        (ColumnarTraceWriter, "transition", "trace.write", None),
        (ColumnarTraceWriter, "close", "trace.write", on_writer_close),
        (ColumnarTraceReader, "segment_transitions", "trace.decode", None),
        (ColumnarTraceReader, "prune_segments", "trace.prune", None),
        (MultiQuestionEngine, "transition", "multiq.transition", None),
        (MultiQuestionEngine, "answers", "multiq.answers", on_answers),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, t.wrap(getattr(cls, attr), name, after))
    ActiveSentenceSet.__init__ = tracked_sas_init
    ColumnarTraceReader.scan_transitions = t.wrap_generator(
        ColumnarTraceReader.scan_transitions, "trace.scan", on_scan
    )
