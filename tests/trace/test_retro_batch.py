"""evaluate_question_batch vs a full SAS replay: byte-identical answers.

The batched engine (one shared MultiQuestionEngine pass over a pushed-down
replay plan) must reproduce dedicated SAS watchers fed every recorded
transition (``tests/trace/sas_replay.py``) exactly -- same satisfied_time
floats, same transition counts, same end-time defaulting -- across random
traces, in-memory and columnar sources, node filters, explicit end times
and duplicate subscriptions.
"""

import pytest

from repro.core import (
    OrderedQuestion,
    PerformanceQuestion,
    QAtom,
    QNot,
    QOr,
    SentencePattern,
)
from repro.trace.columnar import ColumnarTraceWriter, open_trace
from repro.trace.retro import evaluate_question_batch
from repro.trace.scan import matching_sids, question_sids
from repro.workloads.fuzz import random_trace
from tests.trace.sas_replay import sas_replay

SEEDS = range(12)


def questions_for(trace):
    sents = sorted({e.sentence for e in trace.events()}, key=str)[:4]
    pats = [
        SentencePattern(s.verb.name, tuple(n.name for n in s.nouns)) for s in sents
    ]
    return [
        PerformanceQuestion("conj", pats[:2]),
        PerformanceQuestion("conj_dup", tuple(reversed(pats[:2]))),
        OrderedQuestion("ord", pats[2:4]),
        QOr((QAtom(pats[0]), QNot(QAtom(pats[1])))),
        PerformanceQuestion("broad", (SentencePattern(pats[0].verb, ()),)),
    ]


def assert_identical(a, b):
    assert a.keys() == b.keys()
    for name in a:
        ra, rb = a[name], b[name]
        assert (
            ra.satisfied_time,
            ra.transitions,
            ra.satisfied_at_end,
            ra.end_time,
        ) == (rb.satisfied_time, rb.transitions, rb.satisfied_at_end, rb.end_time), name


@pytest.mark.parametrize("seed", SEEDS)
def test_in_memory_trace_batch_identical(seed):
    trace = random_trace(seed, events=300, nodes=2, sentences=14)
    qs = questions_for(trace)
    assert_identical(sas_replay(trace, qs), evaluate_question_batch(trace, qs))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("copies", [1, 4])
def test_columnar_pushdown_batch_identical(tmp_path, seed, copies):
    # ``copies`` subscribes the whole batch that many times over, as
    # several clients of one `repro serve` batch do: duplicates share one
    # watcher and must not perturb any answer
    trace = random_trace(seed, events=300, nodes=2, sentences=14)
    qs = questions_for(trace)
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path), segment_records=64)
    writer.record_trace(trace.events())
    writer.close()
    with open_trace(str(path)) as reader:
        for kwargs in ({}, {"end_time": 9.0}, {"node": 0}, {"node": 1, "end_time": 4.0}):
            assert_identical(
                sas_replay(reader, qs, **kwargs),
                evaluate_question_batch(reader, qs * copies, **kwargs),
            )


def test_wildcard_question_disables_pushdown_identically(tmp_path):
    # a wildcard-only pattern makes the batch path replay every sentence;
    # the end-time default (last replayed event) must still agree
    trace = random_trace(5, events=200, nodes=2, sentences=10)
    qs = questions_for(trace) + [QAtom(SentencePattern("?", ()))]
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path))
    writer.record_trace(trace.events())
    writer.close()
    with open_trace(str(path)) as reader:
        assert_identical(sas_replay(reader, qs), evaluate_question_batch(reader, qs))


def test_batch_answers_share_one_end_time():
    # every answer of one batch closes its open interval at the same end
    # time (each call builds a fresh engine, so nothing carries over)
    trace = random_trace(1, events=50, nodes=1, sentences=6)
    qs = questions_for(trace)
    answers = evaluate_question_batch(trace, qs)
    assert answers["conj"].end_time == answers["ord"].end_time


# ----------------------------------------------------------------------
# static reachability pruning: dead questions shrink the scan, not answers
# ----------------------------------------------------------------------
def dead_questions():
    ghost = SentencePattern("NoSuchVerb", ("no_such_noun",))
    return [
        PerformanceQuestion("dead_conj", (ghost,)),
        OrderedQuestion("dead_ord", (ghost, SentencePattern("?", ()))),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_dead_questions_prune_scan_but_answers_are_identical(tmp_path, seed):
    trace = random_trace(seed, events=300, nodes=2, sentences=14)
    qs = questions_for(trace) + dead_questions()
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path), segment_records=64)
    writer.record_trace(trace.events())
    writer.close()
    with open_trace(str(path)) as reader:
        batched = evaluate_question_batch(reader, qs)
        reference = sas_replay(reader, qs)
    assert_identical(reference, batched)
    for name in ("dead_conj", "dead_ord"):
        assert batched[name].satisfied_time == 0.0
        assert batched[name].transitions == 0
        assert not batched[name].satisfied_at_end


def all_pattern_sids(table, questions):
    """The unpruned reference: every pattern of every question."""
    return matching_sids(table, [p for q in questions for p in q.patterns()])


def test_dead_question_sids_are_dropped_from_the_union(tmp_path):
    trace = random_trace(3, events=200, nodes=2, sentences=10)
    live = questions_for(trace)
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path))
    writer.record_trace(trace.events())
    writer.close()
    with open_trace(str(path)) as reader:
        table = list(reader.sentences)
        base = question_sids(table, live)
        # a dead conjunction sharing a live pattern contributes nothing:
        # its live component's sids are covered only if a live question
        # also wants them
        ghost = SentencePattern("NoSuchVerb", ("no_such_noun",))
        dead = PerformanceQuestion("dead", (ghost, live[0].components[0]))
        pruned = question_sids(table, live + [dead])
        unpruned = all_pattern_sids(table, live + [dead])
    assert pruned == base  # the dead question added no sids
    assert pruned <= unpruned


def test_boolean_questions_are_never_pruned(tmp_path):
    trace = random_trace(4, events=100, nodes=1, sentences=8)
    ghost = SentencePattern("NoSuchVerb", ("no_such_noun",))
    expr = QNot(QAtom(ghost))  # trivially satisfied: must not be pruned
    some = questions_for(trace)[0]
    with_expr = [some, expr]
    table = sorted({e.sentence for e in trace.events()}, key=str)
    assert question_sids(table, with_expr) == all_pattern_sids(table, with_expr)
