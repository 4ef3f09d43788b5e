"""The Set of Active Sentences (SAS).

Section 4.2: "The Set of Active Sentences (SAS) is a data structure that
records the current execution state of each level of abstraction similar to
the way a procedure call stack keeps track of active functions.  Whenever a
sentence at any level of abstraction becomes active, it adds itself to the
SAS, and when any sentence becomes inactive, it deletes itself from the SAS.
Any two sentences contained in the SAS concurrently are considered to
dynamically map to one another."

Key behaviours reproduced here:

* multiset semantics -- re-entrant activations are counted, a sentence stays
  active until its matching deactivation;
* **interest filtering** (Section 4.2 size reduction + limitation #2): a SAS
  may ignore notifications for sentences no attached question cares about.
  Ignored notifications are *counted* (their run-time cost was still paid by
  the application -- ablation abl3 measures this) but not stored;
* **question watching**: attached questions get satisfied/unsatisfied
  transitions with accumulated satisfied-time, which is what SAS-gated
  instrumentation predicates read;
* **dynamic mapping discovery**: optional recording of co-active sentence
  pairs as dynamic mappings;
* per-node replication (Section 4.2.3) is achieved by creating one SAS per
  node; cross-node forwarding lives in :mod:`repro.dbsim.bus` (the
  fault-tolerant batching bus; :mod:`repro.dbsim.forwarding` keeps the
  naive fire-and-forget baseline).

The SAS owns membership only.  Questions are evaluated by the one Figure-6
evaluator, :class:`~repro.core.multiq.MultiQuestionEngine`: the first
:meth:`ActiveSentenceSet.attach_question` creates the SAS's engine (a SAS
with no questions pays nothing), and every outermost membership change is
handed to it with the watchers it can flip
(:meth:`ActiveSentenceSet.affected_watchers`), so a transition visits only
those watchers however many questions share a component.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .events import EventKind, Trace
from .mapping import Mapping, MappingGraph, MappingOrigin
from .multiq import MultiQuestionEngine, QuestionWatcher
from .nouns import Sentence, Vocabulary
from .questions import OrderedQuestion, PerformanceQuestion, QExpr, SentencePattern

__all__ = [
    "ActiveSentenceSet",
    "DynamicMappingRecorder",
    "interest_from_questions",
]


class ActiveSentenceSet:
    """One node's Set of Active Sentences.

    Attached questions live on a :class:`~repro.core.multiq.MultiQuestionEngine`
    created on the first :meth:`attach_question`; re-entrant (nested)
    notifications change no membership and visit no watcher.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (virtual) time; defaults
        to an internal step counter so the SAS is usable standalone.
    node_id:
        Identity of the owning node, recorded into traces.
    interest:
        Optional predicate; sentences it rejects are counted as ignored
        notifications and not stored.
    trace:
        Optional :class:`~repro.core.events.Trace` receiving every *handled*
        transition.
    vocabulary:
        Optional :class:`~repro.core.nouns.Vocabulary`; when given, every
        notified sentence is interned through it, so membership lookups hit
        canonical instances (identity equality, cached hash) on the hot path.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        node_id: int | None = None,
        interest: Callable[[Sentence], bool] | None = None,
        trace: Trace | None = None,
        vocabulary: Vocabulary | None = None,
    ):
        self._ticks = 0
        self.clock = clock if clock is not None else self._tick
        self.node_id = node_id
        self.interest = interest
        self.trace = trace
        self.vocabulary = vocabulary
        # active multiset: sentence -> stack of activation times; the keys
        # keep first-activation order (a sentence that leaves and rejoins
        # moves to the end)
        self._active: dict[Sentence, list[float]] = {}
        # the question evaluator, created by the first attach_question()
        self._engine: MultiQuestionEngine | None = None
        self.ignored_notifications = 0
        # deactivations of non-active sentences (rejected with ValueError)
        self._rejected = 0
        # monotonically increasing sequence number of *handled* transitions;
        # incremented before on_transition fires, so forwarding layers can
        # stamp each captured transition with its position in this SAS's
        # history (the bus asserts per-link epoch monotonicity on delivery)
        self.transition_epoch = 0
        self.co_active_listeners: list[Callable[[Sentence, Sentence, float], None]] = []
        # generic transition hooks: (sentence, became_active, time); fired for
        # every *handled* notification (cross-node forwarding subscribes here)
        self.on_transition: list[Callable[[Sentence, bool, float], None]] = []
        # membership hooks: (sentence, joined, time); fired for every
        # outermost activation and last deactivation, after this SAS's own
        # watchers (an attached MultiQuestionEngine subscribes here)
        self.on_membership_change: list[Callable[[Sentence, bool, float], None]] = []

    @property
    def notifications(self) -> int:
        """Every notification received: handled, ignored or rejected."""
        return self.transition_epoch + self.ignored_notifications + self._rejected

    def _tick(self) -> float:
        self._ticks += 1
        return float(self._ticks)

    def _now(self) -> float:
        """The current time, without advancing the default step clock."""
        if not self._active:
            return 0.0
        return float(self._ticks) if self.clock == self._tick else self.clock()

    # ------------------------------------------------------------------
    # notifications from the application / runtime / system layers
    # ------------------------------------------------------------------
    def activate(self, sent: Sentence) -> bool:
        """A sentence became active.  Returns False if filtered out.

        Any part of an application (user code, programming libraries, or
        system level code) may call this and "need not know about the
        existence of other layers to do so".
        """
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        now = self.clock()
        if self.trace is not None:
            self.trace.record(now, EventKind.ACTIVATE, sent, self.node_id)
        stack = self._active.get(sent)
        if stack:
            stack.append(now)  # re-entrant: membership unchanged
        else:
            engine = self._engine
            # taken while ``sent`` is not a member yet
            visit = self.affected_watchers(sent) if engine is not None else None
            if self.co_active_listeners:
                for other in self._active:
                    for cb in self.co_active_listeners:
                        cb(other, sent, now)
            self._active[sent] = [now]
            if visit is not None:
                engine.update(sent, True, now, visit)
            for cb in self.on_membership_change:
                cb(sent, True, now)
        self.transition_epoch += 1
        if self.on_transition:
            for cb in self.on_transition:
                cb(sent, True, now)
        return True

    def deactivate(self, sent: Sentence) -> bool:
        """A sentence became inactive.  Returns False if filtered/unknown."""
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        stack = self._active.get(sent)
        if not stack:
            self._rejected += 1
            raise ValueError(f"deactivate of non-active sentence {sent}")
        now = self.clock()
        if self.trace is not None:
            self.trace.record(now, EventKind.DEACTIVATE, sent, self.node_id)
        if len(stack) > 1:
            stack.pop()  # re-entrant: membership unchanged
        else:
            engine = self._engine
            # taken while ``sent`` is still a member
            visit = self.affected_watchers(sent) if engine is not None else None
            del self._active[sent]
            if visit is not None:
                engine.update(sent, False, now, visit)
            for cb in self.on_membership_change:
                cb(sent, False, now)
        self.transition_epoch += 1
        if self.on_transition:
            for cb in self.on_transition:
                cb(sent, False, now)
        return True

    # ------------------------------------------------------------------
    # queries ("monitoring code queries the SAS to determine what sentences
    # are currently active")
    # ------------------------------------------------------------------
    def active_sentences(self) -> tuple[Sentence, ...]:
        """Snapshot of active sentences in first-activation order (Figure 5)."""
        return tuple(self._active)

    def active_with_times(self) -> list[tuple[Sentence, float]]:
        """Active sentences paired with their outermost activation time."""
        return [(s, stack[0]) for s, stack in self._active.items()]

    def is_active(self, sent: Sentence) -> bool:
        return sent in self._active

    def activation_depth(self, sent: Sentence) -> int:
        return len(self._active.get(sent, ()))

    def __len__(self) -> int:
        return len(self._active)

    def snapshot_by_level(self, vocab: Vocabulary | None = None) -> list[Sentence]:
        """Active sentences ordered most-abstract-first, as Figure 5 renders.

        Without a vocabulary, falls back to grouping by level name in
        activation order.
        """
        order = list(self._active)
        if vocab is None:
            seen: list[str] = []
            for s in order:
                if s.abstraction not in seen:
                    seen.append(s.abstraction)
            return sorted(order, key=lambda s: (seen.index(s.abstraction),))
        position = {s: i for i, s in enumerate(order)}
        return sorted(
            order,
            key=lambda s: (-vocab.level(s.abstraction).rank, position[s]),
        )

    # ------------------------------------------------------------------
    # questions
    # ------------------------------------------------------------------
    def attach_question(
        self, question: PerformanceQuestion | QExpr | OrderedQuestion
    ) -> QuestionWatcher:
        """Attach a question; returns its dedicated watcher.

        The question is evaluated immediately against the current state.
        """
        engine = self._engine
        if engine is None:
            engine = self._engine = MultiQuestionEngine()
            engine._follow(self)
        return engine.attach(question, self._now())

    def detach_question(self, watcher: QuestionWatcher) -> None:
        if self._engine is None:
            raise ValueError(f"{watcher!r} is not attached to this SAS")
        self._engine.detach(watcher)

    def affected_watchers(self, sent: Sentence) -> list[QuestionWatcher]:
        """Watchers whose satisfaction could change when ``sent`` transitions.

        Called before the transition, this is a guaranteed superset of the
        watchers whose satisfaction *does* change (property-tested in
        ``tests/core/test_properties.py``): the engine's
        :meth:`~repro.core.multiq.MultiQuestionEngine.affected` list when
        the transition would change membership (``sent`` absent, or active
        at depth 1), else nothing.
        """
        engine = self._engine
        if engine is None:
            return []
        stack = self._active.get(sent)
        depth = len(stack) if stack else 0
        if depth > 1:
            return []
        return engine.affected(sent, not depth)

    # ------------------------------------------------------------------
    # recorders (the persistent trace store subscribes here)
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder) -> Callable[[Sentence, bool, float], None]:
        """Stream every handled transition into ``recorder``.

        ``recorder`` is anything with a ``transition(time, kind, sentence,
        node_id)`` method -- normally a
        :class:`~repro.trace.columnar.ColumnarTraceWriter`.  Unlike ``trace=``, a
        recorder can be shared by many SASes (each transition carries this
        SAS's ``node_id``) and attached/detached mid-run.  Returns the hook
        to pass to :meth:`detach_recorder`.
        """
        node_id = self.node_id
        # resolved once: this hook runs on every handled transition
        transition = recorder.transition
        activate, deactivate = EventKind.ACTIVATE, EventKind.DEACTIVATE

        def hook(sent: Sentence, became_active: bool, now: float) -> None:
            transition(now, activate if became_active else deactivate, sent, node_id)

        self.on_transition.append(hook)
        return hook

    def detach_recorder(self, hook: Callable[[Sentence, bool, float], None]) -> None:
        self.on_transition.remove(hook)

    def restrict_to_questions(self) -> None:
        """Enable the Section-4.2 size reduction: only keep sentences that
        could satisfy some attached question.

        Must be called while the SAS is empty (otherwise already-stored
        sentences could be stranded without their deactivations).
        """
        if self._active:
            raise RuntimeError("cannot restrict a non-empty SAS")
        watchers = self._engine.subscriptions if self._engine is not None else ()
        questions = [w.question for w in watchers]
        self.interest = interest_from_questions(questions)


def interest_from_questions(
    questions: Iterable[PerformanceQuestion | QExpr | OrderedQuestion],
) -> Callable[[Sentence], bool]:
    """Build an interest predicate keeping only question-relevant sentences."""
    patterns: list[SentencePattern] = []
    for q in questions:
        patterns.extend(q.patterns())

    def interesting(sent: Sentence) -> bool:
        return any(p.matches(sent) for p in patterns)

    return interesting


class DynamicMappingRecorder:
    """Derives dynamic mapping records from SAS co-activity.

    "Any two sentences contained in the SAS concurrently are considered to
    dynamically map to one another."  The recorder orients each co-active
    pair lower-level -> higher-level using the vocabulary's level ranks
    (same-level pairs are recorded in both directions) and registers the
    result in a :class:`~repro.core.mapping.MappingGraph`.
    """

    def __init__(self, vocab: Vocabulary, graph: MappingGraph | None = None):
        self.vocab = vocab
        self.graph = graph if graph is not None else MappingGraph()
        self.pairs_seen = 0

    def attach(self, sas: ActiveSentenceSet) -> None:
        sas.co_active_listeners.append(self._on_pair)

    def _on_pair(self, a: Sentence, b: Sentence, _now: float) -> None:
        self.pairs_seen += 1
        rank_a = self.vocab.level(a.abstraction).rank
        rank_b = self.vocab.level(b.abstraction).rank
        if rank_a == rank_b:
            self.graph.add(Mapping(a, b, MappingOrigin.DYNAMIC))
            self.graph.add(Mapping(b, a, MappingOrigin.DYNAMIC))
        elif rank_a < rank_b:
            self.graph.add(Mapping(a, b, MappingOrigin.DYNAMIC))
        else:
            self.graph.add(Mapping(b, a, MappingOrigin.DYNAMIC))
