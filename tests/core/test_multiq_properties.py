"""Hypothesis property suite: the question engine vs the full-rescan oracle.

For random question batches (QExpr trees with QNot, conjunctions, ordered
questions, plus duplicates and broadened copies sharing their patterns) and
random valid transition streams, every question's satisfied intervals,
transition count, and accumulated satisfied-time from the
:class:`~repro.core.multiq.MultiQuestionEngine` must equal those of
``tests/core/naive_sas.py``'s :class:`NaiveActiveSentenceSet`, which
re-evaluates ``QExpr.evaluate`` / ``satisfied`` over the full active set
after every notification -- the engine's watched components, index buckets,
cached matching, and subscription dedup must all be pure optimizations.
The engine is driven both ways it can be fed: by :meth:`transition`
(trace replay) and by following a live :class:`ActiveSentenceSet`
(``attach_sas`` and the SAS's own ``attach_question`` watchers), with
questions attached at the start and mid-run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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

VERBS = ["V0", "V1", "V2"]
NOUNS = ["N0", "N1", "N2", "N3"]
LEVELS = {"V0": "L0", "V1": "L0", "V2": "L1"}

SENTENCES = [
    sentence(Verb(v, LEVELS[v]), *(Noun(n, LEVELS[v]) for n in nouns))
    for v in VERBS
    for nouns in ([], ["N0"], ["N1"], ["N0", "N1"], ["N2", "N3"])
]

patterns = st.builds(
    SentencePattern,
    st.sampled_from(VERBS + ["?"]),
    st.lists(st.sampled_from(NOUNS + ["?"]), max_size=2).map(tuple),
    st.sampled_from([None, "L0", "L1"]),
)


def exprs(depth: int = 2):
    leaf = st.builds(QAtom, patterns)
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(QNot, sub),
        st.builds(QAnd, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(QOr, st.lists(sub, min_size=2, max_size=3).map(tuple)),
    )


def _pq(components):
    return PerformanceQuestion("pq", tuple(components))


def _oq(components):
    return OrderedQuestion("oq", tuple(components))


questions = st.one_of(
    exprs(),
    st.builds(_pq, st.lists(patterns, min_size=1, max_size=3)),
    st.builds(_oq, st.lists(patterns, min_size=1, max_size=3)),
)

#: a transition script: sentence indices; the driver resolves each index to
#: activate (if inactive) or deactivate (if active), so scripts are always
#: valid, and odd indices occasionally re-activate for nesting coverage
scripts = st.lists(
    st.tuples(st.integers(0, len(SENTENCES) - 1), st.booleans()),
    max_size=40,
)


def with_duplicates(batch):
    """The engine-facing batch: every question twice (dedup must collapse
    them), plus a broadened copy of each conjunction (shared nodes)."""
    out = list(batch)
    out.extend(batch)
    for q in batch:
        if isinstance(q, PerformanceQuestion):
            broad = tuple(
                SentencePattern(p.verb, (), p.level) for p in q.components
            )
            out.append(PerformanceQuestion("broad", broad))
    return out


class Stepper:
    """Resolves script steps to valid notifications at times 1, 2, 3, ...

    The oracle SAS decides each step: a sentence active at any depth is
    deactivated unless the step prefers nesting, otherwise it is activated
    (nested when already active).  ``feed(sent, up, t)`` passes the same
    notification to the system under test.
    """

    def __init__(self, feed):
        self.t = 0.0
        self.oracle = NaiveActiveSentenceSet(clock=lambda: self.t)
        self.feed = feed

    def step(self, idx, prefer_nested):
        sent = SENTENCES[idx]
        up = not (self.oracle.activation_depth(sent) and not prefer_nested)
        self.t += 1.0
        self.feed(sent, up, self.t)
        (self.oracle.activate if up else self.oracle.deactivate)(sent)


def assert_same_answers(pairs, end):
    for watcher, reference in pairs:
        assert watcher.satisfied == reference.satisfied
        assert watcher.transitions == reference.transitions
        assert watcher.satisfied_time == reference.satisfied_time  # exact
        assert watcher.closed_intervals(end) == reference.closed_intervals(end)


@given(st.lists(questions, min_size=1, max_size=5), scripts)
@settings(max_examples=150, deadline=None)
def test_engine_equals_naive_oracle(batch, script):
    engine = MultiQuestionEngine()
    run = Stepper(engine.transition)
    qs = with_duplicates(batch)
    pairs = [
        (engine.subscribe(q, name=f"q{i}"), run.oracle.attach_question(q))
        for i, q in enumerate(qs)
    ]
    for idx, prefer_nested in script:
        run.step(idx, prefer_nested)
    assert_same_answers(pairs, run.t + 1.0)


@given(
    st.lists(questions, min_size=1, max_size=3),
    st.lists(questions, min_size=1, max_size=3),
    scripts,
    st.integers(0, 40),
)
@settings(max_examples=100, deadline=None)
def test_midrun_subscription_equals_naive_oracle(warmup, late, script, split):
    """Questions subscribed mid-run -- reusing nodes the warmup batch
    created (including boolean-only nodes an ordered question attaches to)
    -- must match an oracle that starts accumulating at subscription time."""
    split = min(split, len(script))
    engine = MultiQuestionEngine()
    for i, q in enumerate(with_duplicates(warmup)):
        engine.subscribe(q, name=f"w{i}")
    run = Stepper(engine.transition)
    for idx, prefer_nested in script[:split]:
        run.step(idx, prefer_nested)

    late_qs = with_duplicates(late)
    # deliberately reuse warmup-interned patterns as ordered questions: the
    # engine must not trust entry lists of nodes that had no ordered
    # subscribers while the prefix ran
    for q in warmup:
        if isinstance(q, PerformanceQuestion):
            late_qs.append(OrderedQuestion("reuse", q.components))
        elif isinstance(q, QAtom):
            late_qs.append(OrderedQuestion("reuse", (q.pattern,)))
    pairs = []
    for i, q in enumerate(late_qs):
        reference = run.oracle.attach_question(q)
        pairs.append((engine.subscribe(q, name=f"l{i}", now=run.oracle._now()), reference))
    for idx, prefer_nested in script[split:]:
        run.step(idx, prefer_nested)
    assert_same_answers(pairs, run.t + 1.0)


@given(
    st.lists(questions, min_size=1, max_size=3),
    st.lists(questions, min_size=1, max_size=3),
    scripts,
    st.integers(0, 40),
    st.integers(0, 40),
)
@settings(max_examples=100, deadline=None)
def test_live_sas_engines_equal_naive_oracle(early, late, script, attach_at, late_at):
    """A live SAS feeds two engines: its own (``attach_question``, dedicated
    watchers) and one following it (``attach_sas`` at step ``attach_at``,
    shared subscriptions).  Questions attached at the start, at the
    ``attach_sas`` step and at step ``late_at`` all match the oracle.  The
    second engine subscribes ``late`` before ``attach_sas`` too, so the
    late subscriptions reuse nodes the attach had to recount."""

    def feed(sent, up, t):
        clock["t"] = t
        (sas.activate if up else sas.deactivate)(sent)

    clock = {"t": 0.0}
    sas = ActiveSentenceSet(clock=lambda: clock["t"])
    run = Stepper(feed)
    pairs = [(sas.attach_question(q), run.oracle.attach_question(q)) for q in early]
    engine = None

    def subscribe_all(qs):
        for q in with_duplicates(qs):
            reference = run.oracle.attach_question(q)
            pairs.append((engine.subscribe(q, now=sas._now()), reference))

    for i, step in enumerate(script + [None]):
        if i == attach_at:
            engine = MultiQuestionEngine()
            for q in with_duplicates(late):
                engine.subscribe(q, now=sas._now())
            engine.attach_sas(sas)
            subscribe_all(early)
        if i == late_at:
            pairs.extend((sas.attach_question(q), run.oracle.attach_question(q)) for q in late)
            if engine is not None:
                subscribe_all(late)
        if step is not None:
            run.step(*step)
    assert_same_answers(pairs, run.t + 1.0)
