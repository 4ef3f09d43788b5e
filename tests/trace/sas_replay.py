"""Reference post-mortem evaluator: a full replay through the full-rescan SAS.

Every recorded transition (optionally only one node's) is fed, in recorded
order and at its recorded time, into the reference
:class:`~tests.core.naive_sas.NaiveActiveSentenceSet` with one watcher per
question -- no sentence-id pushdown, no question engine, every question
re-evaluated over the whole active set.  Open satisfied intervals close at
``end_time`` (default: the last replayed event's time).  The shipped
batch evaluator must reproduce these answers byte for byte.
"""

from __future__ import annotations

from repro.core import EventKind
from repro.core.multiq import question_name
from repro.trace.retro import RetroAnswer
from tests.core.naive_sas import NaiveActiveSentenceSet


def sas_replay(source, questions, end_time=None, node=None) -> dict[str, RetroAnswer]:
    now = 0.0
    sas = NaiveActiveSentenceSet(clock=lambda: now)
    watchers = [(question_name(q), sas.attach_question(q)) for q in questions]
    events = source.events() if callable(getattr(source, "events", None)) else source
    for event in events:
        if node is not None and event.node_id != node:
            continue
        now = event.time
        if event.kind is EventKind.ACTIVATE:
            sas.activate(event.sentence)
        else:
            sas.deactivate(event.sentence)
    end = now if end_time is None else end_time
    return {
        name: RetroAnswer(
            name=name,
            satisfied_time=w.total_satisfied_time(end),
            transitions=w.transitions,
            satisfied_at_end=w.satisfied,
            end_time=end,
        )
        for name, w in watchers
    }
