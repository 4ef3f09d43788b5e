"""Unit tests for the shared multi-question engine (core/multiq.py)."""

import pytest

from repro.core import (
    ActiveSentenceSet,
    MultiQuestionEngine,
    Noun,
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QNot,
    QOr,
    SentencePattern,
    Verb,
    sentence,
)
from tests.core.naive_sas import NaiveActiveSentenceSet

SUM = Verb("Sum", "HPF")
EXEC = Verb("Executes", "HPF")
SEND = Verb("Send", "Base")

A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
AB_SUM = sentence(SUM, Noun("A", "HPF"), Noun("B", "HPF"))
LINE = sentence(EXEC, Noun("line1", "HPF"))
P_SEND = sentence(SEND, Noun("Processor_0", "Base"))


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_pair():
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    eng = MultiQuestionEngine()
    eng.attach_sas(sas)
    return clock, sas, eng


class Mirrored:
    """A live SAS and the full-rescan oracle, notified in lockstep."""

    def __init__(self, sas, clock):
        self.sas = sas
        self.clock = clock
        self.oracle = NaiveActiveSentenceSet(clock=clock)

    def notify(self, t, sent, up):
        self.clock.t = t
        (self.sas.activate if up else self.sas.deactivate)(sent)
        (self.oracle.activate if up else self.oracle.deactivate)(sent)


def answers(watcher, end):
    return (
        watcher.satisfied,
        watcher.transitions,
        watcher.satisfied_time,
        watcher.closed_intervals(end),
    )


# ----------------------------------------------------------------------
# pattern interning and the node table
# ----------------------------------------------------------------------
def test_equal_patterns_share_one_node():
    eng = MultiQuestionEngine()
    q1 = PerformanceQuestion("q1", (SentencePattern("Sum", ("A",)),))
    q2 = QAtom(SentencePattern("Sum", ("A",)))
    # noun order / duplicates canonicalize away
    q3 = PerformanceQuestion("q3", (SentencePattern("Sum", ("A", "A")),))
    eng.subscribe(q1)
    eng.subscribe(q2)
    eng.subscribe(q3)
    assert len(eng.nodes) == 1


def test_duplicate_questions_share_one_subscription():
    eng = MultiQuestionEngine()
    pats = (SentencePattern("Sum", ("A",)), SentencePattern("Executes", ("line1",)))
    s1 = eng.subscribe(PerformanceQuestion("first", pats))
    s2 = eng.subscribe(PerformanceQuestion("second", tuple(reversed(pats))))
    assert s1 is s2
    assert len(eng.subscriptions) == 1
    # both names resolve to the shared subscription
    assert eng.subscription("first") is eng.subscription("second")


def test_duplicate_at_later_time_gets_own_watcher():
    # same engine history (no membership change in between), but later wall
    # clock: sharing would inherit an open interval that started before the
    # duplicate's own subscription time
    eng = MultiQuestionEngine()
    eng.transition(A_SUM, True, 5.0)
    q = PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),))
    s1 = eng.subscribe(q, now=5.0)
    s2 = eng.subscribe(q, now=8.0)
    assert s2 is not s1
    assert s2.satisfied and s2.satisfied_since == 8.0
    assert s1.total_satisfied_time(13.0) == 8.0
    assert s2.total_satisfied_time(13.0) == 5.0  # dedicated-watcher value
    # a duplicate at the same instant still shares
    s3 = eng.subscribe(q, now=8.0)
    assert s3 is s2


def test_duplicate_after_history_gets_own_watcher():
    clock, sas, eng = make_pair()
    q = PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),))
    s1 = eng.subscribe(q)
    clock.t = 1.0
    sas.activate(A_SUM)
    s2 = eng.subscribe(q, now=sas.clock())
    assert s2 is not s1  # sharing would inherit s1's earlier history
    assert s2.satisfied


def test_index_buckets_prune_matching(monkeypatch):
    eng = MultiQuestionEngine()
    eng.subscribe(QAtom(SentencePattern("Sum", ())))
    eng.subscribe(QAtom(SentencePattern("Sum", ("A",))))
    eng.subscribe(QAtom(SentencePattern("Sum", ("A", "B"))))
    calls = []
    orig = SentencePattern.matches

    def counting(self, sent):
        calls.append(self)
        return orig(self, sent)

    monkeypatch.setattr(SentencePattern, "matches", counting)
    # noun A keys the bucket of {A Sum} and {A B Sum}: only those two are
    # tested; {Sum} (keyed by its verb) is never tested against Executes
    a_exec = sentence(EXEC, Noun("A", "HPF"))
    eng.transition(a_exec, True, 1.0)
    assert sorted(str(p) for p in calls) == ["{A B Sum}", "{A Sum}"]
    calls.clear()
    eng.transition(a_exec, False, 2.0)  # cached: no pattern tests at all
    assert len(calls) == 0
    # a sentence carrying none of the buckets' keys is rejected without a
    # single pattern test
    eng.transition(P_SEND, True, 3.0)
    assert len(calls) == 0


def test_detach_releases_unshared_nodes():
    eng = MultiQuestionEngine()
    shared = SentencePattern("Sum", ("A",))
    w1 = eng.attach(PerformanceQuestion("q1", (shared, SentencePattern("Executes", ()))))
    w2 = eng.attach(QOr((QAtom(shared), QAtom(SentencePattern("Send", ())))))
    assert w1 is not w2 and len(eng.nodes) == 3
    eng.detach(w1)
    assert sorted(str(n.pattern) for n in eng.nodes) == ["{A Sum}", "{Send}"]
    eng.transition(A_SUM, True, 1.0)
    assert w2.satisfied and not w1.satisfied
    eng.detach(w2)
    assert eng.nodes == () and eng.subscriptions == ()


# ----------------------------------------------------------------------
# differential: dedicated SAS watchers, shared subscriptions and the
# full-rescan oracle
# ----------------------------------------------------------------------
def test_matches_live_watchers_exactly():
    clock, sas, eng = make_pair()
    live = Mirrored(sas, clock)
    questions = [
        PerformanceQuestion("conj", (SentencePattern("Sum", ("A",)),
                                     SentencePattern("Executes", ()))),
        QOr((QAtom(SentencePattern("Sum", ("A",))),
             QNot(QAtom(SentencePattern("Send", ()))))),
        QAnd((QAtom(SentencePattern("?", ("?",))),
              QAtom(SentencePattern("Sum", ("A", "B"))))),
        OrderedQuestion("ord", (SentencePattern("Executes", ()),
                                SentencePattern("Send", ()))),
    ]
    watchers = [sas.attach_question(q) for q in questions]
    subs = [eng.subscribe(q, name=f"q{i}") for i, q in enumerate(questions)]
    oracle = [live.oracle.attach_question(q) for q in questions]
    script = [
        (1.0, A_SUM, True), (2.0, LINE, True), (3.0, P_SEND, True),
        (4.0, A_SUM, False), (5.0, AB_SUM, True), (6.0, LINE, False),
        (7.0, P_SEND, False), (8.0, AB_SUM, False), (9.0, LINE, True),
        (10.0, P_SEND, True),
    ]
    for t, sent, up in script:
        live.notify(t, sent, up)
    for w, sub, ref in zip(watchers, subs, oracle, strict=True):
        assert answers(w, 11.0) == answers(sub, 11.0) == answers(ref, 11.0)
        assert w.total_satisfied_time(11.0) == ref.total_satisfied_time(11.0)


def test_nested_reactivation_is_ignored():
    clock, sas, eng = make_pair()
    live = Mirrored(sas, clock)
    q = QAtom(SentencePattern("Sum", ("A",)))
    w = sas.attach_question(q)
    sub = eng.subscribe(q, name="q")
    ref = live.oracle.attach_question(q)
    live.notify(1.0, A_SUM, True)
    live.notify(2.0, A_SUM, True)  # nested: no membership change
    live.notify(3.0, A_SUM, False)  # still active (depth 1)
    assert sub.satisfied and w.satisfied and ref.satisfied
    assert sub.transitions == w.transitions == ref.transitions == 1
    live.notify(4.0, A_SUM, False)
    assert not sub.satisfied
    assert sub.satisfied_time == w.satisfied_time == ref.satisfied_time == 3.0


def test_attach_midrun_seeds_membership():
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    clock.t = 1.0
    sas.activate(A_SUM)
    sas.activate(A_SUM)  # depth 2
    clock.t = 2.0
    sas.activate(LINE)
    eng = MultiQuestionEngine()
    eng.attach_sas(sas)
    sub = eng.subscribe(QAtom(SentencePattern("Sum", ("A",))), now=sas.clock())
    assert sub.satisfied and sub.satisfied_since == 2.0
    clock.t = 3.0
    sas.deactivate(A_SUM)  # depth 2 -> 1: still satisfied
    assert sub.satisfied
    clock.t = 4.0
    sas.deactivate(A_SUM)
    assert not sub.satisfied
    assert sub.satisfied_time == 2.0


def test_attach_reevaluates_earlier_subscriptions():
    # a subscription made before attach_sas was evaluated on no membership;
    # the attach re-evaluates it at the SAS's time, so it (and a duplicate
    # subscribed right after, which shares it) reflects the SAS's state
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    clock.t = 2.0
    sas.activate(A_SUM)
    eng = MultiQuestionEngine()
    q = QAtom(SentencePattern("Sum", ("A",)))
    early = eng.subscribe(q, now=2.0)
    assert not early.satisfied
    eng.attach_sas(sas)
    assert early.satisfied and early.satisfied_since == 2.0
    assert eng.subscribe(q, now=2.0) is early
    clock.t = 5.0
    sas.deactivate(A_SUM)
    assert early.closed_intervals(6.0) == [(2.0, 5.0)]


def test_ordered_midrun_reuses_boolean_nodes_correctly():
    # nodes first referenced only by boolean questions do not maintain
    # activation entries; an OrderedQuestion subscribed mid-run that reuses
    # them must still see the true activation history (rebuilt from live
    # membership), matching a dedicated watcher and the oracle attached at
    # the same moment
    clock, sas, eng = make_pair()
    live = Mirrored(sas, clock)
    pat_a = SentencePattern("Sum", ("A",))
    pat_exec = SentencePattern("Executes", ())
    eng.subscribe(QAtom(pat_a), name="bool_a")
    eng.subscribe(QAtom(pat_exec), name="bool_exec")
    live.notify(1.0, A_SUM, True)
    live.notify(2.0, LINE, True)
    q = OrderedQuestion("ord", (pat_a, pat_exec))
    dedicated = sas.attach_question(q)
    sub = eng.subscribe(q, now=sas.clock())
    ref = live.oracle.attach_question(q)
    assert dedicated.satisfied  # A (1.0) precedes Executes (2.0)
    assert sub.satisfied and ref.satisfied
    script = [
        (3.0, A_SUM, False), (4.0, A_SUM, True),   # order now violated
        (5.0, LINE, False), (6.0, LINE, True),     # order restored
    ]
    for t, sent, up in script:
        live.notify(t, sent, up)
        assert sub.satisfied == dedicated.satisfied == ref.satisfied
    assert answers(dedicated, 7.0) == answers(sub, 7.0) == answers(ref, 7.0)


def test_deactivate_unknown_raises():
    eng = MultiQuestionEngine()
    with pytest.raises(ValueError):
        eng.transition(A_SUM, False, 1.0)


def test_one_membership_source():
    # an engine following a SAS reads the SAS's membership: feeding it a
    # transition directly, or making it follow a second source, raises
    _, sas, eng = make_pair()
    with pytest.raises(RuntimeError):
        eng.transition(A_SUM, True, 1.0)
    with pytest.raises(RuntimeError):
        eng.attach_sas(ActiveSentenceSet())
    replayed = MultiQuestionEngine()
    replayed.transition(A_SUM, True, 1.0)
    with pytest.raises(RuntimeError):
        replayed.attach_sas(sas)


# ----------------------------------------------------------------------
# intervals and answers
# ----------------------------------------------------------------------
def test_intervals_and_answers_close_open_interval():
    eng = MultiQuestionEngine()
    eng.subscribe(QAtom(SentencePattern("Sum", ())), name="q")
    eng.transition(A_SUM, True, 1.0)
    eng.transition(A_SUM, False, 3.0)
    eng.transition(B_SUM, True, 5.0)
    assert eng.intervals(8.0) == {"q": [(1.0, 3.0), (5.0, 8.0)]}
    sat_time, transitions, at_end = eng.answers(8.0)["q"]
    assert sat_time == 5.0 and transitions == 3 and at_end
    # answers() must not mutate watcher state
    assert eng.answers(9.0)["q"][0] == 6.0


def test_interval_callbacks_fire_on_close():
    eng = MultiQuestionEngine()
    sub = eng.subscribe(QAtom(SentencePattern("Sum", ())), name="q")
    seen = []
    sub.on_interval.append(lambda s, e: seen.append((s, e)))
    eng.transition(A_SUM, True, 1.0)
    eng.transition(A_SUM, False, 4.0)
    assert seen == [(1.0, 4.0)]
