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
  transitions evaluated on every state change, with accumulated
  satisfied-time, which is what SAS-gated instrumentation predicates read;
* **dynamic mapping discovery**: optional recording of co-active sentence
  pairs as dynamic mappings;
* per-node replication (Section 4.2.3) is achieved by creating one SAS per
  node; cross-node forwarding lives in :mod:`repro.dbsim.bus` (the
  fault-tolerant batching bus; :mod:`repro.dbsim.forwarding` keeps the
  naive fire-and-forget baseline).

Conjunction questions are evaluated by *watched component*: one shared,
refcounted table holds each canonical component pattern with its count of
matching active sentences, an unsatisfied watcher is parked on one
zero-count component and a satisfied one is listed under all of its
components, so a transition visits only the watchers whose satisfaction it
can flip -- however many questions share a component.  :class:`QExpr` and
:class:`OrderedQuestion` watchers are bucketed in an inverted index keyed by
each pattern's most selective discriminator (see
:meth:`~repro.core.questions.SentencePattern.index_key`) and keep
incremental state -- a flattened boolean tree with per-leaf counts, a
time-sorted relevant-activation list -- so no notification rescans the
active set.  The full-rescan reference engine that this one is
differentially tested against lives in ``tests/core/naive_sas.py``
(``tests/core/test_sas_differential.py``); ablation abl5b
(``benchmarks/test_abl5b_indexed_sas.py``) records the speedup over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .events import EventKind, Trace
from .mapping import Mapping, MappingGraph, MappingOrigin
from .nouns import Sentence, Vocabulary
from .questions import (
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QExpr,
    QNot,
    QOr,
    SentencePattern,
)

__all__ = [
    "QuestionWatcher",
    "ActiveSentenceSet",
    "DynamicMappingRecorder",
    "interest_from_questions",
]


class _IncrementalExpr:
    """Incrementally-maintained boolean :class:`QExpr` tree.

    The expression is flattened children-first, so node-index order is a
    valid bottom-up evaluation order.  Each leaf (:class:`QAtom`) keeps a
    count of active member sentences matching its pattern; a membership
    delta touches only the leaves whose pattern matches the transitioning
    sentence and re-evaluates only their ancestor chains, stopping as soon
    as an ancestor's value is unchanged.
    """

    __slots__ = ("nodes", "parent", "values", "counts", "atoms", "root")

    def __init__(self, expr: QExpr) -> None:
        # node payloads: ("atom", pattern) | ("and"|"or", child idxs) | ("not", child idx)
        self.nodes: list[tuple[str, object]] = []
        self.parent: list[int] = []
        self.counts: list[int] = []
        self.atoms: list[int] = []
        self.root = self._build(expr)
        self.values: list[bool] = [False] * len(self.nodes)

    def _build(self, expr: QExpr) -> int:
        if isinstance(expr, QAtom):
            idx = self._append(("atom", expr.pattern))
            self.atoms.append(idx)
            return idx
        if isinstance(expr, (QAnd, QOr)):
            children = tuple(self._build(t) for t in expr.terms)
            idx = self._append(("and" if isinstance(expr, QAnd) else "or", children))
            for child in children:
                self.parent[child] = idx
            return idx
        if isinstance(expr, QNot):
            child = self._build(expr.term)
            idx = self._append(("not", child))
            self.parent[child] = idx
            return idx
        raise TypeError(f"cannot index QExpr node {expr!r}")

    def _append(self, node: tuple[str, object]) -> int:
        self.nodes.append(node)
        self.parent.append(-1)
        self.counts.append(0)
        return len(self.nodes) - 1

    def _eval_node(self, idx: int) -> bool:
        kind, payload = self.nodes[idx]
        if kind == "atom":
            return self.counts[idx] > 0
        if kind == "and":
            return all(self.values[c] for c in payload)  # type: ignore[union-attr]
        if kind == "or":
            return any(self.values[c] for c in payload)  # type: ignore[union-attr]
        return not self.values[payload]  # type: ignore[index]

    def seed(self, active: Iterable[Sentence]) -> bool:
        snapshot = list(active)
        for idx in range(len(self.nodes)):
            kind, payload = self.nodes[idx]
            if kind == "atom":
                self.counts[idx] = sum(1 for s in snapshot if payload.matches(s))  # type: ignore[union-attr]
            self.values[idx] = self._eval_node(idx)
        return self.values[self.root]

    def update(self, sent: Sentence, delta: int) -> bool:
        """Apply a membership delta for ``sent``; returns the root value."""
        changed: list[int] = []
        for idx in self.atoms:
            pattern = self.nodes[idx][1]
            if pattern.matches(sent):  # type: ignore[union-attr]
                self.counts[idx] += delta
                new = self.counts[idx] > 0
                if new != self.values[idx]:
                    self.values[idx] = new
                    changed.append(idx)
        for idx in changed:
            node = self.parent[idx]
            while node >= 0:
                new = self._eval_node(node)
                if new == self.values[node]:
                    break
                self.values[node] = new
                node = self.parent[node]
        return self.values[self.root]


class _IncrementalOrdered:
    """Time-sorted activations relevant to one :class:`OrderedQuestion`.

    Only sentences matching some component pattern can influence the
    question, so the engine maintains just those (with their outermost
    activation times, kept time-ordered) instead of rescanning
    ``active_with_times()`` on every notification.
    """

    __slots__ = ("question", "entries")

    def __init__(self, question: OrderedQuestion) -> None:
        self.question = question
        self.entries: list[tuple[Sentence, float]] = []

    def seed(self, active_with_times: Iterable[tuple[Sentence, float]]) -> bool:
        relevant = self.question.relevant
        self.entries = [(s, t) for s, t in active_with_times if relevant(s)]
        return self.evaluate()

    def add(self, sent: Sentence, now: float) -> bool:
        """Record an outermost activation; False if the question ignores it."""
        if not self.question.relevant(sent):
            return False
        # clocks are (almost always) monotone, so this is an append; walk
        # back only if a custom clock handed out an earlier time
        i = len(self.entries)
        while i > 0 and self.entries[i - 1][1] > now:
            i -= 1
        self.entries.insert(i, (sent, now))
        return True

    def remove(self, sent: Sentence) -> bool:
        if not self.question.relevant(sent):
            return False
        for i in range(len(self.entries) - 1, -1, -1):
            if self.entries[i][0] == sent:
                del self.entries[i]
                return True
        return False

    def evaluate(self) -> bool:
        return self.question._match(self.entries, 0, -float("inf"))


#: Bound on the indexed SAS's per-sentence matching-slot cache; a full cache
#: is cleared and refilled on demand.
_SLOT_CACHE_MAX = 4096


class _PatternSlot:
    """One canonical component pattern in the indexed SAS's pattern table.

    ``count`` is the number of active member sentences matching
    ``pattern``; ``refs`` is the number of attached conjunction watchers
    using it.  Conjunction watchers are filed by *watched component*, the
    watched-literal scheme of SAT solvers: an unsatisfied watcher is
    ``parked`` on exactly one of its slots whose count is 0, and a satisfied
    watcher is ``holding`` every one of its slots.
    """

    __slots__ = ("pattern", "key", "count", "refs", "parked", "holding")

    def __init__(self, pattern: SentencePattern, count: int) -> None:
        self.pattern = pattern
        self.key = pattern.index_key()
        self.count = count
        self.refs = 0
        self.parked: dict[QuestionWatcher, None] = {}
        self.holding: dict[QuestionWatcher, None] = {}


@dataclass(eq=False)
class QuestionWatcher:
    """Tracks the satisfaction state of one attached question.

    ``question`` may be a :class:`PerformanceQuestion`, a boolean
    :class:`QExpr`, or an :class:`OrderedQuestion`; all three expose the
    state transitions that instrumentation predicates subscribe to.

    On the indexed engine every question kind is evaluated incrementally: a
    conjunction watcher holds its distinct component slots in the SAS's
    shared pattern table (``_slots``, parked on ``_parked`` while
    unsatisfied); :class:`QExpr` and :class:`OrderedQuestion` watchers keep
    a :class:`_IncrementalExpr` tree or an :class:`_IncrementalOrdered`
    activation list (``_seed`` builds it, ``_update`` applies membership
    deltas).  No notification rescans the active set (ablation
    abl5/abl5b).

    Watchers compare by identity (``eq=False``) so they can live in index
    buckets and be detached unambiguously.
    """

    question: PerformanceQuestion | QExpr | OrderedQuestion
    satisfied: bool = False
    satisfied_since: float = 0.0
    satisfied_time: float = 0.0
    transitions: int = 0

    def __post_init__(self) -> None:
        self.on_satisfied: list[Callable[[float], None]] = []
        self.on_unsatisfied: list[Callable[[float], None]] = []
        self._slots: tuple[_PatternSlot, ...] | None = None
        self._parked: _PatternSlot | None = None
        self._expr: _IncrementalExpr | None = None
        self._ordered: _IncrementalOrdered | None = None

    def _evaluate(self, sas: "ActiveSentenceSet") -> bool:
        """Reference evaluation: full scan of the SAS's active set."""
        q = self.question
        if isinstance(q, OrderedQuestion):
            return q.satisfied(sas.active_with_times())
        if isinstance(q, PerformanceQuestion):
            return q.satisfied(sas.active_sentences())
        return q.evaluate(sas.active_sentences())

    def _seed(self, sas: "ActiveSentenceSet") -> None:
        """Build QExpr/ordered incremental state from the SAS's membership."""
        q = self.question
        if isinstance(q, OrderedQuestion):
            self._ordered = _IncrementalOrdered(q)
            self._ordered.seed(sas.active_with_times())
        else:
            self._expr = _IncrementalExpr(q)  # type: ignore[arg-type]
            self._expr.seed(sas.active_sentences())

    def _update(self, now: float, sent: Sentence, became_member: bool) -> None:
        """Apply one membership change of ``sent`` to QExpr/ordered state."""
        if self._expr is not None:
            new = self._expr.update(sent, 1 if became_member else -1)
        else:
            ordered = self._ordered
            assert ordered is not None
            touched = ordered.add(sent, now) if became_member else ordered.remove(sent)
            if not touched:
                return  # irrelevant sentence: satisfaction cannot change
            new = ordered.evaluate()
        self._apply(new, now)

    def _apply(self, new: bool, now: float) -> None:
        if new == self.satisfied:
            return
        self.transitions += 1
        self.satisfied = new
        if new:
            self.satisfied_since = now
            for cb in self.on_satisfied:
                cb(now)
        else:
            self.satisfied_time += now - self.satisfied_since
            for cb in self.on_unsatisfied:
                cb(now)

    def total_satisfied_time(self, now: float) -> float:
        """Accumulated satisfied time, counting an open interval up to ``now``."""
        if self.satisfied:
            return self.satisfied_time + (now - self.satisfied_since)
        return self.satisfied_time


class ActiveSentenceSet:
    """One node's Set of Active Sentences (pattern-indexed engine).

    A membership change updates each conjunction pattern slot it matches
    once and visits only the watchers filed under a slot that flipped (see
    :class:`_PatternSlot`); re-entrant (nested) notifications visit no
    watcher.

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
        # active multiset: sentence -> stack of activation times
        self._active: dict[Sentence, list[float]] = {}
        # insertion-ordered membership set (dict keys preserve activation
        # order; O(1) add/remove keeps notifications off the O(|SAS|) path)
        self._order: dict[Sentence, None] = {}
        self.watchers: list[QuestionWatcher] = []
        # inverted index of QExpr and ordered watchers: pattern discriminator
        # key -> watcher bucket (dicts double as insertion-ordered sets);
        # wildcard-only watchers live in _watch_all and are notified on every
        # membership change
        self._watch_index: dict[tuple[str, str], dict[QuestionWatcher, None]] = {}
        self._watch_all: dict[QuestionWatcher, None] = {}
        self._watch_keys: dict[QuestionWatcher, list[tuple[str, str]] | None] = {}
        # conjunction watchers: canonical component pattern -> refcounted
        # slot, the slots bucketed by index key (None = wildcard-only), and
        # a bounded cache of the slots each sentence matches (sentences that
        # match some slot only), cleared whenever the table changes
        self._slots: dict[SentencePattern, _PatternSlot] = {}
        self._slot_index: dict[tuple[str, str] | None, dict[_PatternSlot, None]] = {}
        self._slot_cache: dict[Sentence, tuple[_PatternSlot, ...]] = {}
        # the sentence and matching slots of the last affected_watchers()
        # call, which the transition's count update reuses
        self._matched: tuple[Sentence | None, tuple[_PatternSlot, ...]] = (None, ())
        self.notifications = 0
        self.ignored_notifications = 0
        # monotonically increasing sequence number of *handled* transitions;
        # incremented before on_transition fires, so forwarding layers can
        # stamp each captured transition with its position in this SAS's
        # history (the bus asserts per-link epoch monotonicity on delivery)
        self.transition_epoch = 0
        self.co_active_listeners: list[Callable[[Sentence, Sentence, float], None]] = []
        # generic transition hooks: (sentence, became_active, time); fired for
        # every *handled* notification (cross-node forwarding subscribes here)
        self.on_transition: list[Callable[[Sentence, bool, float], None]] = []

    def _tick(self) -> float:
        self._ticks += 1
        return float(self._ticks)

    def _now(self) -> float:
        """The current time, without advancing the default step clock."""
        if not self._order:
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
        self.notifications += 1
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        now = self.clock()
        stack = self._active.setdefault(sent, [])
        became_member = not stack
        visit = self.affected_watchers(sent) if became_member else []
        if became_member:
            self._order[sent] = None
            if self.co_active_listeners:
                for other in self._order:
                    if other != sent:
                        for cb in self.co_active_listeners:
                            cb(other, sent, now)
        stack.append(now)
        if self.trace is not None:
            self.trace.record(now, EventKind.ACTIVATE, sent, self.node_id)
        self._update_watchers(now, sent, True if became_member else None, visit)
        self.transition_epoch += 1
        for cb in self.on_transition:
            cb(sent, True, now)
        return True

    def deactivate(self, sent: Sentence) -> bool:
        """A sentence became inactive.  Returns False if filtered/unknown."""
        self.notifications += 1
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        stack = self._active.get(sent)
        if not stack:
            raise ValueError(f"deactivate of non-active sentence {sent}")
        now = self.clock()
        left_membership = len(stack) == 1
        visit = self.affected_watchers(sent) if left_membership else []
        stack.pop()
        if left_membership:
            del self._active[sent]
            del self._order[sent]
        if self.trace is not None:
            self.trace.record(now, EventKind.DEACTIVATE, sent, self.node_id)
        self._update_watchers(now, sent, False if left_membership else None, visit)
        self.transition_epoch += 1
        for cb in self.on_transition:
            cb(sent, False, now)
        return True

    # ------------------------------------------------------------------
    # queries ("monitoring code queries the SAS to determine what sentences
    # are currently active")
    # ------------------------------------------------------------------
    def active_sentences(self) -> tuple[Sentence, ...]:
        """Snapshot of active sentences in first-activation order (Figure 5)."""
        return tuple(self._order)

    def active_with_times(self) -> list[tuple[Sentence, float]]:
        """Active sentences paired with their outermost activation time."""
        return [(s, self._active[s][0]) for s in self._order]

    def is_active(self, sent: Sentence) -> bool:
        return sent in self._active

    def activation_depth(self, sent: Sentence) -> int:
        return len(self._active.get(sent, ()))

    def __len__(self) -> int:
        return len(self._order)

    def snapshot_by_level(self, vocab: Vocabulary | None = None) -> list[Sentence]:
        """Active sentences ordered most-abstract-first, as Figure 5 renders.

        Without a vocabulary, falls back to grouping by level name in
        activation order.
        """
        order = list(self._order)
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
        """Register a question; its watcher updates on every transition.

        The question is evaluated immediately against the current state.
        """
        watcher = QuestionWatcher(question)
        self.watchers.append(watcher)
        self._register_watcher(watcher)
        watcher._apply(watcher._evaluate(self), self._now())
        return watcher

    def detach_question(self, watcher: QuestionWatcher) -> None:
        self.watchers.remove(watcher)
        self._unregister_watcher(watcher)

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

        def hook(sent: Sentence, became_active: bool, now: float) -> None:
            recorder.transition(
                now,
                EventKind.ACTIVATE if became_active else EventKind.DEACTIVATE,
                sent,
                node_id,
            )

        self.on_transition.append(hook)
        return hook

    def detach_recorder(self, hook: Callable[[Sentence, bool, float], None]) -> None:
        self.on_transition.remove(hook)

    # -- index hooks (overridden by the tests' full-rescan reference) -------
    def _register_watcher(self, watcher: QuestionWatcher) -> None:
        """Index a new watcher and seed its state from current membership."""
        q = watcher.question
        if isinstance(q, PerformanceQuestion):
            canonical = dict.fromkeys(p.canonical() for p in q.components)
            slots = watcher._slots = tuple(self._acquire_slot(p) for p in canonical)
            slots[0].parked[watcher] = None
            watcher._parked = slots[0]
            self._refile(watcher)
            return
        watcher._seed(self)
        keys = {p.index_key() for p in q.patterns()}
        if None in keys:
            # some pattern has no concrete component: check on every transition
            self._watch_all[watcher] = None
            self._watch_keys[watcher] = None
            return
        for key in keys:
            self._watch_index.setdefault(key, {})[watcher] = None  # type: ignore[index]
        self._watch_keys[watcher] = list(keys)  # type: ignore[arg-type]

    def _unregister_watcher(self, watcher: QuestionWatcher) -> None:
        slots = watcher._slots
        if slots is not None:
            if watcher._parked is not None:
                del watcher._parked.parked[watcher]
                watcher._parked = None
            for slot in slots:
                slot.holding.pop(watcher, None)
                self._release_slot(slot)
            watcher._slots = None
            return
        keys = self._watch_keys.pop(watcher, [])
        if keys is None:
            self._watch_all.pop(watcher, None)
            return
        for key in keys:
            bucket = self._watch_index.get(key)
            if bucket is not None:
                bucket.pop(watcher, None)
                if not bucket:
                    del self._watch_index[key]

    def _acquire_slot(self, pattern: SentencePattern) -> _PatternSlot:
        slot = self._slots.get(pattern)
        if slot is None:
            count = sum(1 for s in self._order if pattern.matches(s))
            slot = self._slots[pattern] = _PatternSlot(pattern, count)
            self._slot_index.setdefault(slot.key, {})[slot] = None
            self._slot_cache.clear()
        slot.refs += 1
        return slot

    def _release_slot(self, slot: _PatternSlot) -> None:
        slot.refs -= 1
        if slot.refs:
            return
        del self._slots[slot.pattern]
        bucket = self._slot_index[slot.key]
        del bucket[slot]
        if not bucket:
            del self._slot_index[slot.key]
        self._slot_cache.clear()

    def _matching_slots(self, sent: Sentence) -> tuple[_PatternSlot, ...]:
        """The pattern-table slots whose pattern matches ``sent``.

        A sentence carrying none of the slots' index keys is rejected by a
        few dict probes and not cached (most traffic, often a fresh object
        per notification); the matches of the rest are cached per sentence.
        """
        index = self._slot_index
        verb = sent.verb
        if not (
            None in index or ("v", verb.name) in index or ("l", verb.abstraction) in index
        ):
            for noun in sent.nouns:
                if ("n", noun.name) in index:
                    break
            else:
                return ()
        cache = self._slot_cache
        found = cache.get(sent)
        if found is None:
            if len(cache) >= _SLOT_CACHE_MAX:
                cache.clear()
            keys = [None, ("v", verb.name), ("l", verb.abstraction)]
            keys += [("n", noun.name) for noun in sent.nouns]
            # a sentence naming one noun twice reaches its bucket twice
            candidates = dict.fromkeys(slot for key in keys for slot in index.get(key, ()))
            found = cache[sent] = tuple(
                slot for slot in candidates if slot.pattern.matches(sent)
            )
        return found

    def _refile(self, watcher: QuestionWatcher) -> bool:
        """Re-file a conjunction watcher after its slots' counts changed:
        parked on its first zero-count slot, else holding every slot.
        Returns whether it is satisfied."""
        slots = watcher._slots
        assert slots is not None
        parked = watcher._parked
        for zero in slots:
            if not zero.count:
                break
        else:
            if parked is not None:
                del parked.parked[watcher]
                watcher._parked = None
                for slot in slots:
                    slot.holding[watcher] = None
            return True
        if parked is zero:
            return False
        if parked is None:
            for slot in slots:
                del slot.holding[watcher]
        else:
            del parked.parked[watcher]
        zero.parked[watcher] = None
        watcher._parked = zero
        return False

    def affected_watchers(self, sent: Sentence) -> list[QuestionWatcher]:
        """Watchers whose satisfaction could change when ``sent`` transitions.

        Called before the transition, this is a guaranteed superset of the
        watchers whose satisfaction *does* change (property-tested in
        ``tests/core/test_properties.py``): the QExpr/ordered watchers in
        ``sent``'s index buckets, plus the conjunction watchers parked on a
        slot ``sent`` would flip 0->1 (``sent`` not a member) or holding a
        slot whose only match is ``sent`` (``sent`` at depth 1).  Computed
        in O(#nouns + #affected) -- independent of both the SAS size and
        the number of watchers sharing a component.
        """
        hit: dict[QuestionWatcher, None] = dict(self._watch_all)
        index = self._watch_index
        if index:
            bucket = index.get(("v", sent.verb.name))
            if bucket:
                hit.update(bucket)
            bucket = index.get(("l", sent.abstraction))
            if bucket:
                hit.update(bucket)
            for noun in sent.nouns:
                bucket = index.get(("n", noun.name))
                if bucket:
                    hit.update(bucket)
        slots = self._matching_slots(sent) if self._slot_index else ()
        self._matched = (sent, slots)
        if slots:
            depth = None
            for slot in slots:
                if not slot.count:
                    # no member matches, so ``sent`` is not one: activating
                    # it flips this slot 0->1, and no slot 1->0
                    hit.update(slot.parked)
                    depth = 0
                elif slot.count == 1:
                    if depth is None:
                        stack = self._active.get(sent)
                        depth = len(stack) if stack else 0
                    if depth == 1:
                        hit.update(slot.holding)
        return list(hit) if hit else []

    def _update_watchers(
        self,
        now: float,
        sent: Sentence,
        became_member: bool | None,
        visit: list[QuestionWatcher],
    ) -> None:
        """Apply one handled transition to the watchers in ``visit``.

        ``visit`` is :meth:`affected_watchers` taken before the transition;
        ``became_member`` is None for a re-entrant (nested) notification,
        which changes no membership and so no watcher.
        """
        if became_member is None:
            return
        matched, slots = self._matched
        if matched is not sent:
            slots = self._matching_slots(sent) if self._slot_index else ()
        if slots:
            delta = 1 if became_member else -1
            for slot in slots:
                slot.count += delta
        for watcher in visit:
            if watcher._slots is None:
                watcher._update(now, sent, became_member)
            else:
                watcher._apply(self._refile(watcher), now)

    def restrict_to_questions(self) -> None:
        """Enable the Section-4.2 size reduction: only keep sentences that
        could satisfy some attached question.

        Must be called while the SAS is empty (otherwise already-stored
        sentences could be stranded without their deactivations).
        """
        if self._order:
            raise RuntimeError("cannot restrict a non-empty SAS")
        questions = [w.question for w in self.watchers]
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
