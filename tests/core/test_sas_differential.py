"""Differential oracle: the SAS's question engine vs the full-rescan reference.

Replays seeded random event traces (``repro.workloads.generators``) through
:class:`ActiveSentenceSet` (questions on the incremental
:class:`~repro.core.multiq.MultiQuestionEngine`) and
:class:`NaiveActiveSentenceSet` (a standalone SAS rescanning every question
per notification) and asserts the two are *observably identical*:

* every watcher's satisfied intervals (the on/off times), transition count,
  final satisfied flag, and accumulated satisfied time;
* notification and ignored-notification counters;
* the active membership (sentences, order, depths, outermost times);
* dynamic-mapping pairs discovered from co-activity.

The acceptance bar is >= 1000 generated traces; the suite sweeps trace
shapes (sparse/dense pools, re-entrancy bias, interest filtering, interned
vocabularies) so the count is spent on diverse schedules, not repetition.
"""

import random

import pytest

from repro.core import (
    WILDCARD,
    AbstractionLevel,
    ActiveSentenceSet,
    DynamicMappingRecorder,
    EventKind,
    PerformanceQuestion,
    SentencePattern,
    Trace,
    Vocabulary,
    interest_from_questions,
)
from repro.workloads import sas_event_trace, sas_questions, sas_sentence_pool
from tests.core.naive_sas import NaiveActiveSentenceSet


def _replay_observed(sas_factory, pool_seed, trace_seed, *, events, question_count,
                     use_interest=False, use_vocab=False, mappings=False):
    """Replay one generated trace; return the full observable state."""
    vocab, pool = sas_sentence_pool(pool_seed)
    questions = sas_questions(pool_seed + 1, pool, count=question_count)
    trace = sas_event_trace(trace_seed, pool, events=events)

    kwargs = {}
    if use_interest:
        kwargs["interest"] = interest_from_questions(questions)
    if use_vocab:
        kwargs["vocabulary"] = vocab
    sas = sas_factory(**kwargs)

    watchers = [sas.attach_question(q) for q in questions]

    recorder = None
    if mappings:
        recorder = DynamicMappingRecorder(vocab)
        recorder.attach(sas)

    for kind, sent in trace:
        if kind is EventKind.ACTIVATE:
            sas.activate(sent)
        else:
            sas.deactivate(sent)

    end = float(len(trace) + 1)
    return {
        "intervals": [w.closed_intervals(end) for w in watchers],
        "watcher_state": [
            (w.satisfied, w.transitions, round(w.satisfied_time, 9)) for w in watchers
        ],
        "notifications": sas.notifications,
        "ignored": sas.ignored_notifications,
        "active": sas.active_sentences(),
        "active_times": sas.active_with_times(),
        "depths": {s: sas.activation_depth(s) for s in sas.active_sentences()},
        "pairs_seen": recorder.pairs_seen if recorder else None,
        "mappings": (
            sorted((str(m.source), str(m.destination)) for m in recorder.graph)
            if recorder
            else None
        ),
    }


def _assert_engines_agree(pool_seed, trace_seed, **config):
    indexed = _replay_observed(ActiveSentenceSet, pool_seed, trace_seed, **config)
    naive = _replay_observed(NaiveActiveSentenceSet, pool_seed, trace_seed, **config)
    assert indexed == naive, (
        f"engines diverged for pool_seed={pool_seed} trace_seed={trace_seed} "
        f"config={config}"
    )


# One thousand-plus seeds split across four trace shapes.  Each case is a
# distinct (pool, schedule) pair; the plain shape carries the bulk.
@pytest.mark.parametrize("trace_seed", range(550))
def test_oracle_plain(trace_seed):
    _assert_engines_agree(trace_seed % 37, 1000 + trace_seed,
                          events=60, question_count=5)


@pytest.mark.parametrize("trace_seed", range(200))
def test_oracle_with_interest_filter(trace_seed):
    _assert_engines_agree(trace_seed % 23, 2000 + trace_seed,
                          events=60, question_count=5, use_interest=True)


@pytest.mark.parametrize("trace_seed", range(150))
def test_oracle_with_interning_and_mappings(trace_seed):
    _assert_engines_agree(trace_seed % 17, 3000 + trace_seed,
                          events=50, question_count=4,
                          use_vocab=True, mappings=True)


@pytest.mark.parametrize("trace_seed", range(150))
def test_oracle_dense_reentrant(trace_seed):
    _assert_engines_agree(trace_seed % 13, 4000 + trace_seed,
                          events=120, question_count=8)


def test_oracle_trace_count_meets_acceptance_bar():
    """The sweep above replays >= 1000 distinct generated traces."""
    assert 550 + 200 + 150 + 150 >= 1000


def test_trace_replay_into_drives_both_engines():
    """Trace.replay_into reproduces a live run on a fresh engine."""
    _, pool = sas_sentence_pool(7)
    questions = sas_questions(8, pool, count=4)
    events = sas_event_trace(9, pool, events=60)

    recorded = Trace()
    live = ActiveSentenceSet(trace=recorded)
    live_watchers = [live.attach_question(q) for q in questions]
    for kind, sent in events:
        if kind is EventKind.ACTIVATE:
            live.activate(sent)
        else:
            live.deactivate(sent)

    for engine in (ActiveSentenceSet, NaiveActiveSentenceSet):
        replayed = engine()
        replayed_watchers = [replayed.attach_question(q) for q in questions]
        recorded.replay_into(replayed)
        assert replayed.active_sentences() == live.active_sentences()
        for lw, rw in zip(live_watchers, replayed_watchers, strict=True):
            assert rw.satisfied == lw.satisfied
            assert rw.transitions == lw.transitions
            assert rw.satisfied_time == pytest.approx(lw.satisfied_time)


def test_detach_question_unregisters_from_index():
    sas = ActiveSentenceSet()
    _, pool = sas_sentence_pool(3)
    questions = sas_questions(4, pool, count=6)
    watchers = [sas.attach_question(q) for q in questions]
    for sent in pool[1:6]:
        sas.activate(sent)
    engine = sas._engine
    nodes = list(engine.nodes)
    assert any(node.holding for node in nodes) and any(node.parked for node in nodes)
    for w in watchers:
        sas.detach_question(w)
    assert engine.subscriptions == ()
    # the pattern table and every parked/holding/expr/ordered list are empty
    assert engine.nodes == ()
    assert all(
        not (node.parked or node.holding or node.exprs or node.ordered or node.entries)
        for node in nodes
    )
    # transitions after detach touch nobody
    before = [w.transitions for w in watchers]
    sas.activate(pool[0])
    assert [w.transitions for w in watchers] == before


# -- mid-run attach/detach over conjunctions that share pattern slots ------
WILDCARD_ONLY = (SentencePattern(WILDCARD), SentencePattern(WILDCARD, (WILDCARD,)))


def _pattern_of(rng, sent):
    verb = sent.verb.name if rng.random() < 0.7 else WILDCARD
    nouns = tuple(n.name for n in sent.nouns if rng.random() < 0.5)
    return SentencePattern(sent.verb.name if verb == WILDCARD and not nouns else verb, nouns)


def _shared_conjunctions(rng, pool, count):
    """Conjunctions that all share one component and, in rotation, repeat a
    component, add a wildcard-only component, or add two components one
    pool sentence matches at once (its verb alone and its first noun)."""
    shared = _pattern_of(rng, rng.choice(pool))
    questions = []
    for i in range(count):
        parts = [shared, _pattern_of(rng, rng.choice(pool))]
        shape = i % 4
        if shape == 0:
            parts.append(parts[-1])
        elif shape == 1:
            parts.append(rng.choice(WILDCARD_ONLY))
        elif shape == 2:
            model = rng.choice(pool)
            parts.append(SentencePattern(model.verb.name))
            parts.append(SentencePattern(WILDCARD, tuple(n.name for n in model.nouns[:1])))
        rng.shuffle(parts)
        questions.append(PerformanceQuestion(f"c{i}", tuple(parts)))
    return questions


def _attach_detach_schedule(seed):
    """Seeded events interleaved with watcher attaches and detaches.

    Each question is attached at a random point, about half are detached
    later, and every third gets a second, overlapping watcher.
    """
    rng = random.Random(seed)
    _, pool = sas_sentence_pool(seed % 29)
    questions = _shared_conjunctions(rng, pool, 8) + sas_questions(seed, pool, count=3)
    ops = [("event", kind, sent) for kind, sent in sas_event_trace(seed + 1, pool, events=80)]
    instance = 0
    for qi in range(len(questions)):
        for _ in range(2 if qi % 3 == 0 else 1):
            at = rng.randrange(len(ops) + 1)
            ops.insert(at, ("attach", instance, questions[qi]))
            if rng.random() < 0.5:
                ops.insert(rng.randrange(at + 1, len(ops) + 1), ("detach", instance, None))
            instance += 1
    return ops


def _replay_schedule(engine, ops):
    sas = engine()
    live = {}
    observed = {}
    end = float(len(ops) + 1)

    def state(w, attached):
        return (attached, w.closed_intervals(end), w.transitions, round(w.satisfied_time, 9))

    for op, arg, payload in ops:
        if op == "event":
            if arg is EventKind.ACTIVATE:
                sas.activate(payload)
            else:
                sas.deactivate(payload)
        elif op == "attach":
            w = sas.attach_question(payload)
            live[arg] = (w, w.satisfied)
        else:
            w, attached = live.pop(arg)
            sas.detach_question(w)
            observed[arg] = state(w, attached)
    for key, (w, attached) in live.items():
        observed[key] = state(w, attached)
    return observed, sas.active_with_times()


@pytest.mark.parametrize("seed", range(150))
def test_oracle_mid_run_attach_detach(seed):
    ops = _attach_detach_schedule(5000 + seed)
    indexed = _replay_schedule(ActiveSentenceSet, ops)
    naive = _replay_schedule(NaiveActiveSentenceSet, ops)
    assert indexed == naive, f"engines diverged for schedule seed {5000 + seed}"


def test_interning_keeps_engines_aligned_across_equal_copies():
    """Structurally-equal duplicate sentences behave like the originals."""
    vocab = Vocabulary.with_levels([AbstractionLevel(0, "L0")])
    _, pool = sas_sentence_pool(11)
    questions = sas_questions(12, pool, count=4)
    events = sas_event_trace(13, pool, events=60)

    def copies(sent):
        return type(sent)(sent.verb, tuple(sent.nouns))

    results = []
    for engine in (ActiveSentenceSet, NaiveActiveSentenceSet):
        sas = engine(vocabulary=Vocabulary())
        watchers = [sas.attach_question(q) for q in questions]
        for kind, sent in events:
            dup = copies(sent)  # fresh object every notification
            if kind is EventKind.ACTIVATE:
                sas.activate(dup)
            else:
                sas.deactivate(dup)
        results.append(
            [(w.satisfied, w.transitions, round(w.satisfied_time, 9)) for w in watchers]
        )
    assert results[0] == results[1]
