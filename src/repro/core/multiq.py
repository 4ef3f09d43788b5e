"""The Figure-6 question evaluator: one engine behind every watcher.

Section 4.2.2 defines a performance question over the Set of Active
Sentences; this module evaluates every question kind -- conjunctions
(:class:`~repro.core.questions.PerformanceQuestion`), boolean expressions
(:class:`~repro.core.questions.QExpr`) and ordered questions
(:class:`~repro.core.questions.OrderedQuestion`) -- incrementally, so no
membership change rescans the active set:

* **pattern table** -- every question's component patterns are
  canonicalized (:meth:`~repro.core.questions.SentencePattern.canonical`)
  and interned as refcounted :class:`PatternNode`\\ s holding the count of
  members matching them.  Nodes are bucketed by their most selective
  discriminator (:meth:`~repro.core.questions.SentencePattern.index_key`):
  a sentence carrying none of the buckets' keys is rejected by a few dict
  probes, and the matching nodes of the rest are cached per sentence in a
  bounded cache;
* **watched components** -- a conjunction is filed like a watched literal
  of a SAT solver: unsatisfied, it is parked on one of its nodes whose
  count is 0; satisfied, it is held by all of them.  A membership change
  visits only the conjunctions whose satisfaction it can flip, however
  many questions share a component;
* boolean expressions are compiled children-first into a program over the
  shared node counts and visited when one of their nodes' counts flips
  between 0 and 1; ordered questions merge their nodes' entries (each
  matching member with its outermost activation time), kept only while
  some ordered question uses the node.

The engine is fed outermost membership changes (:meth:`MultiQuestionEngine.update`).
:class:`~repro.core.sas.ActiveSentenceSet` owns its membership and creates
an engine on its first
:meth:`~repro.core.sas.ActiveSentenceSet.attach_question`, handing it each
change with the watchers it can flip
(:meth:`MultiQuestionEngine.affected`); :meth:`MultiQuestionEngine.attach_sas`
has another SAS's changes delivered the same way (``repro serve --live``);
and :meth:`MultiQuestionEngine.transition` keeps re-entrancy depths itself
for trace replay (:func:`repro.trace.retro.evaluate_question_batch`,
``repro serve --trace``).  :meth:`MultiQuestionEngine.attach` gives a
question a dedicated watcher; :meth:`MultiQuestionEngine.subscribe` shares
one watcher among structurally-equivalent questions subscribed at the same
point of the stream, so a duplicate subscriber costs one dict lookup.
Answers are checked against the full-rescan reference in
``tests/core/naive_sas.py`` (``tests/core/test_sas_differential.py``,
``tests/core/test_multiq_properties.py``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .nouns import Sentence
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
    "PatternNode",
    "QuestionWatcher",
    "MultiQuestionEngine",
    "question_name",
]

Question = PerformanceQuestion | QExpr | OrderedQuestion

#: Bound on the per-sentence matching-node cache; a full cache is cleared
#: and refilled on demand.
_CACHE_MAX = 4096


def question_name(question: Question) -> str:
    """The stable key a question's answers are reported under."""
    return getattr(question, "name", None) or str(question)


class PatternNode:
    """One canonical component pattern in the engine's table.

    ``count`` is the number of members matching ``pattern``; ``refs`` the
    number of watchers using the node.  An unsatisfied conjunction is
    ``parked`` on exactly one of its nodes whose count is 0, a satisfied one
    is ``holding`` every one of its nodes.  ``exprs`` lists the boolean
    expressions reading the count and ``ordered`` the ordered questions
    reading ``entries`` -- each matching member with its outermost
    activation time, kept only while ``ordered`` is non-empty.
    """

    __slots__ = (
        "pattern", "key", "count", "refs", "parked", "holding", "exprs", "ordered", "entries"
    )

    def __init__(self, pattern: SentencePattern, count: int) -> None:
        self.pattern = pattern
        self.key = pattern.index_key()
        self.count = count
        self.refs = 0
        self.parked: dict[QuestionWatcher, None] = {}
        self.holding: dict[QuestionWatcher, None] = {}
        self.exprs: dict[QuestionWatcher, None] = {}
        self.ordered: dict[QuestionWatcher, None] = {}
        self.entries: dict[Sentence, float] = {}


class QuestionWatcher:
    """The satisfaction state of one attached question.

    ``satisfied``, ``satisfied_time`` and ``transitions`` are what SAS-gated
    instrumentation predicates and post-mortem answers read;
    :meth:`closed_intervals` lists the satisfied intervals and
    ``on_interval`` callbacks see each one as it closes (what ``repro
    serve`` streams).  The remaining
    slots are the engine's: the question's kind, its distinct
    :class:`PatternNode`\\ s, a boolean expression's compiled program and a
    conjunction's parking node.  Watchers compare by identity.
    """

    __slots__ = (
        "question", "satisfied", "satisfied_since", "satisfied_time", "transitions",
        "_closed", "on_interval", "kind", "nodes", "program", "parked",
    )

    def __init__(
        self,
        question: Question,
        kind: str,
        nodes: tuple[PatternNode, ...],
        program: list[tuple] | None = None,
    ) -> None:
        self.question = question
        self.satisfied = False
        self.satisfied_since = 0.0
        self.satisfied_time = 0.0
        self.transitions = 0
        # closed satisfied intervals flattened to start, end, start, ...:
        # floats, unlike pair tuples, are no work for the garbage collector
        self._closed: list[float] = []
        self.on_interval: list[Callable[[float, float], None]] = []
        self.kind = kind  # "conj" | "expr" | "ordered"
        self.nodes = nodes
        self.program = program
        self.parked: PatternNode | None = None

    def __repr__(self) -> str:
        return f"QuestionWatcher({self.question!s}, satisfied={self.satisfied})"

    def _apply(self, new: bool, now: float) -> None:
        if new == self.satisfied:
            return
        self.transitions += 1
        self.satisfied = new
        if new:
            self.satisfied_since = now
        else:
            self.satisfied_time += now - self.satisfied_since
            self._closed += (self.satisfied_since, now)
            for cb in self.on_interval:
                cb(self.satisfied_since, now)

    def total_satisfied_time(self, now: float) -> float:
        """Accumulated satisfied time, counting an open interval up to ``now``."""
        if self.satisfied:
            return self.satisfied_time + (now - self.satisfied_since)
        return self.satisfied_time

    def closed_intervals(self, end: float) -> list[tuple[float, float]]:
        """All satisfied intervals, the open one (if any) closed at ``end``."""
        closed = self._closed
        out = list(zip(closed[::2], closed[1::2]))
        if self.satisfied:
            out.append((self.satisfied_since, end))
        return out


class MultiQuestionEngine:
    """Evaluate many questions over one membership stream, sharing work.

    An engine has one membership source.  By default :meth:`transition`
    feeds it a notification stream and it keeps the membership multiset
    itself, ignoring nested re-entrant activations exactly as the SAS does.
    An engine that follows a SAS (:meth:`attach_sas`, and the engine a SAS
    creates for its own questions) reads the SAS's membership instead and
    is handed each outermost change through :meth:`update`;
    :meth:`transition` raises on it.
    """

    def __init__(self) -> None:
        # canonical pattern -> node, the nodes bucketed by index key (None:
        # wildcard-only), and a bounded cache of the nodes each sentence
        # matches, cleared whenever the table changes
        self._nodes: dict[SentencePattern, PatternNode] = {}
        self._index: dict[tuple[str, str] | None, dict[PatternNode, None]] = {}
        self._cache: dict[Sentence, tuple[PatternNode, ...]] = {}
        # the sentence and matching nodes of the last affected() call, which
        # the following update() reuses
        self._matched: tuple[Sentence | None, tuple[PatternNode, ...]] = (None, ())
        self._watchers: dict[QuestionWatcher, None] = {}
        # subscribe() dedup: structural key -> (watcher, membership changes
        # seen when it was created); answer name -> watcher
        self._shared: dict[tuple, tuple[QuestionWatcher, int]] = {}
        self._names: dict[str, QuestionWatcher] = {}
        # membership: sentence -> activation times, outermost first (one
        # entry per nesting level); kept by transition(), or the dict of the
        # SAS this engine follows
        self._active: dict[Sentence, list[float]] = {}
        self._follows_sas = False
        # counters (the abl11 work accounting)
        self.transitions_seen = 0  # every notification fed to transition()
        self.membership_changes = 0  # outermost activate / last deactivate
        self.node_updates = 0  # per-node count/entry updates applied
        self.evaluations = 0  # watcher evaluations

    def __del__(self) -> None:
        # watchers and the nodes they are filed under reference each other:
        # unlink them, so an engine nobody holds any more (a replayed batch)
        # frees its watchers' state at once instead of at a full collection
        for node in self._nodes.values():
            node.parked = node.holding = node.exprs = node.ordered = {}

    # ------------------------------------------------------------------
    # pattern table
    # ------------------------------------------------------------------
    def _member_entries(self, pattern: SentencePattern) -> dict[Sentence, float]:
        """The members matching ``pattern`` with their outermost activation
        times."""
        return {s: times[0] for s, times in self._active.items() if pattern.matches(s)}

    def _acquire(self, pattern: SentencePattern) -> PatternNode:
        node = self._nodes.get(pattern)
        if node is None:
            node = PatternNode(pattern, len(self._member_entries(pattern)))
            self._nodes[pattern] = node
            self._index.setdefault(node.key, {})[node] = None
            self._table_changed()
        node.refs += 1
        return node

    def _release(self, node: PatternNode) -> None:
        node.refs -= 1
        if node.refs:
            return
        del self._nodes[node.pattern]
        bucket = self._index[node.key]
        del bucket[node]
        if not bucket:
            del self._index[node.key]
        self._table_changed()

    def _table_changed(self) -> None:
        self._cache.clear()
        self._matched = (None, ())

    def _matching(self, sent: Sentence) -> tuple[PatternNode, ...]:
        """The table nodes whose pattern matches ``sent``.

        A sentence carrying none of the buckets' index keys is rejected by
        a few dict probes and not cached (most traffic, often a fresh object
        per notification); the matches of the rest are cached per sentence.
        """
        index = self._index
        verb = sent.verb
        if not (
            None in index or ("v", verb.name) in index or ("l", verb.abstraction) in index
        ):
            for noun in sent.nouns:
                if ("n", noun.name) in index:
                    break
            else:
                return ()
        cache = self._cache
        found = cache.get(sent)
        if found is None:
            if len(cache) >= _CACHE_MAX:
                cache.clear()
            keys = [None, ("v", verb.name), ("l", verb.abstraction)]
            keys += [("n", noun.name) for noun in sent.nouns]
            # a sentence naming one noun twice reaches its bucket twice
            candidates = dict.fromkeys(node for key in keys for node in index.get(key, ()))
            found = cache[sent] = tuple(
                node for node in candidates if node.pattern.matches(sent)
            )
        return found

    @property
    def nodes(self) -> Sequence[PatternNode]:
        return tuple(self._nodes.values())

    # ------------------------------------------------------------------
    # watchers
    # ------------------------------------------------------------------
    def _compile(self, question: Question) -> tuple[QuestionWatcher, tuple]:
        """A new watcher for ``question`` and its structural key."""
        program = None
        if isinstance(question, (PerformanceQuestion, OrderedQuestion)):
            canonical = [p.canonical() for p in question.components]
            distinct = tuple(dict.fromkeys(canonical))
            if isinstance(question, PerformanceQuestion):
                kind, key = "conj", ("conj", frozenset(distinct))
            else:
                kind, key = "ordered", ("ordered", tuple(canonical))
        elif isinstance(question, QExpr):
            kind = "expr"
            program = []

            def build(e: QExpr) -> int:
                if isinstance(e, QAtom):
                    program.append(("atom", e.pattern.canonical()))
                elif isinstance(e, (QAnd, QOr)):
                    idxs = tuple(build(t) for t in e.terms)
                    program.append(("and" if isinstance(e, QAnd) else "or", idxs))
                elif isinstance(e, QNot):
                    program.append(("not", build(e.term)))
                else:
                    raise TypeError(f"cannot compile QExpr node {e!r}")
                return len(program) - 1

            build(question)
            key = ("expr", tuple(program))
            distinct = tuple(dict.fromkeys(p for op, p in program if op == "atom"))
        else:
            raise TypeError(f"cannot attach {question!r}")
        nodes = {p: self._acquire(p) for p in distinct}
        if program is not None:
            program = [(op, nodes[p]) if op == "atom" else (op, p) for op, p in program]
        return QuestionWatcher(question, kind, tuple(nodes.values()), program), key

    def _file(self, watcher: QuestionWatcher, now: float) -> QuestionWatcher:
        """List a compiled watcher under its nodes and evaluate it at ``now``."""
        if watcher.kind == "conj":
            first = watcher.nodes[0]
            first.parked[watcher] = None
            watcher.parked = first
        elif watcher.kind == "expr":
            for node in watcher.nodes:
                node.exprs[watcher] = None
        else:
            for node in watcher.nodes:
                if not node.ordered:
                    # entries are kept only while ordered questions use the
                    # node: rebuild them from live membership
                    node.entries = self._member_entries(node.pattern)
                node.ordered[watcher] = None
        self._watchers[watcher] = None
        self.evaluations += 1
        watcher._apply(self._evaluate(watcher), now)
        return watcher

    def attach(self, question: Question, now: float = 0.0) -> QuestionWatcher:
        """A dedicated watcher for ``question``, evaluated at ``now``.

        Pass it to :meth:`detach` to remove it.
        """
        return self._file(self._compile(question)[0], now)

    def detach(self, watcher: QuestionWatcher) -> None:
        """Remove a watcher and release the table nodes only it used."""
        del self._watchers[watcher]
        if watcher.kind == "conj":
            if watcher.parked is not None:
                del watcher.parked.parked[watcher]
                watcher.parked = None
            else:
                for node in watcher.nodes:
                    del node.holding[watcher]
        elif watcher.kind == "expr":
            for node in watcher.nodes:
                del node.exprs[watcher]
        else:
            for node in watcher.nodes:
                del node.ordered[watcher]
                if not node.ordered:
                    node.entries = {}
        for node in watcher.nodes:
            self._release(node)
        for key, (shared, _) in list(self._shared.items()):
            if shared is watcher:
                del self._shared[key]
        for name, named in list(self._names.items()):
            if named is watcher:
                del self._names[name]

    def subscribe(
        self, question: Question, name: str | None = None, now: float = 0.0
    ) -> QuestionWatcher:
        """Register a question under ``name``; returns its (possibly shared) watcher.

        Structurally-equivalent questions subscribed while the engine has
        processed the same history share one watcher -- the marginal
        duplicate subscriber costs one dict lookup.  ``now`` stamps the
        initial evaluation (use the current clock when subscribing mid-run).
        """
        watcher, key = self._compile(question)
        effective_name = name if name is not None else question_name(question)
        existing = self._shared.get(key)
        if existing is not None:
            shared, created_at = existing
            # share only while observably fresh: the shared watcher must be
            # in exactly the state a dedicated watcher attached at ``now``
            # would be in -- same engine history and no accumulated past (no
            # closed intervals, and any open interval must have started at
            # ``now`` itself, not earlier wall-clock)
            if (
                created_at == self.membership_changes
                and not shared._closed
                and (not shared.satisfied or shared.satisfied_since == now)
            ):
                for node in watcher.nodes:
                    self._release(node)
                self._names.setdefault(effective_name, shared)
                return shared
        self._shared[key] = (watcher, self.membership_changes)
        self._names.setdefault(effective_name, watcher)
        return self._file(watcher, now)

    def subscription(self, name: str) -> QuestionWatcher:
        return self._names[name]

    @property
    def subscriptions(self) -> Sequence[QuestionWatcher]:
        return tuple(self._watchers)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _refile(self, watcher: QuestionWatcher) -> bool:
        """File a conjunction after its nodes' counts changed: parked on its
        first zero-count node, else holding every node.  Returns whether it
        is satisfied."""
        nodes = watcher.nodes
        parked = watcher.parked
        for zero in nodes:
            if not zero.count:
                break
        else:
            if parked is not None:
                del parked.parked[watcher]
                watcher.parked = None
                for node in nodes:
                    node.holding[watcher] = None
            return True
        if parked is zero:
            return False
        if parked is None:
            for node in nodes:
                del node.holding[watcher]
        else:
            del parked.parked[watcher]
        zero.parked[watcher] = None
        watcher.parked = zero
        return False

    def _evaluate(self, watcher: QuestionWatcher) -> bool:
        kind = watcher.kind
        if kind == "conj":
            return self._refile(watcher)
        if kind == "expr":
            values: list[bool] = []
            for op, payload in watcher.program:  # type: ignore[union-attr]
                if op == "atom":
                    values.append(payload.count > 0)
                elif op == "and":
                    values.append(all(values[i] for i in payload))
                elif op == "or":
                    values.append(any(values[i] for i in payload))
                else:
                    values.append(not values[payload])
            return values[-1]
        # ordered: merge the nodes' entries (a sentence in several nodes
        # carries one outermost time); the match looks for a chain of
        # non-decreasing times over all of them, so their order is free
        merged: dict[Sentence, float] = {}
        for node in watcher.nodes:
            merged.update(node.entries)
        question: OrderedQuestion = watcher.question  # type: ignore[assignment]
        return question._match(list(merged.items()), 0, -float("inf"))

    def affected(self, sent: Sentence, joining: bool) -> list[QuestionWatcher]:
        """The watchers an outermost membership change of ``sent`` can flip.

        Called before the change: ``joining`` means ``sent`` is about to
        become a member, otherwise it is a member at depth 1 about to
        leave.  That is the conjunctions parked on a node ``sent`` flips
        0->1 or holding a node whose only match is ``sent``, the boolean
        expressions reading such a node, and the ordered questions reading
        any node ``sent`` matches -- found in O(#nouns + #affected) however
        many questions share a component.
        """
        nodes = self._cache.get(sent)
        if nodes is None:
            nodes = self._matching(sent) if self._index else ()
        self._matched = (sent, nodes)
        if not nodes:
            return []
        flips = 0 if joining else 1
        hit: dict[QuestionWatcher, None] = {}
        for node in nodes:
            if node.count == flips:
                filed = node.parked if joining else node.holding
                if filed:
                    hit.update(filed)
                if node.exprs:
                    hit.update(node.exprs)
            if node.ordered:
                hit.update(node.ordered)
        return list(hit)

    def update(
        self,
        sent: Sentence,
        joined: bool,
        now: float,
        visit: list[QuestionWatcher] | None = None,
    ) -> None:
        """Apply one outermost membership change of ``sent`` at ``now``.

        Only the watchers in ``visit`` -- :meth:`affected` taken before the
        change, computed here when not given -- are re-evaluated.
        """
        if visit is None:
            visit = self.affected(sent, joined)
        self.membership_changes += 1
        matched, nodes = self._matched
        if matched is not sent:
            nodes = self._matching(sent)
        if nodes:
            self.node_updates += len(nodes)
            delta = 1 if joined else -1
            for node in nodes:
                node.count += delta
                if node.ordered:
                    if joined:
                        node.entries[sent] = now
                    else:
                        del node.entries[sent]
        if visit:
            self.evaluations += len(visit)
            for watcher in visit:
                new = self._refile(watcher) if watcher.kind == "conj" else self._evaluate(watcher)
                if new != watcher.satisfied:
                    watcher._apply(new, now)

    def transition(self, sent: Sentence, became_active: bool, now: float) -> None:
        """Feed one SAS transition (nested re-entrancy handled internally)."""
        if self._follows_sas:
            raise RuntimeError("this engine follows a SAS; notify the SAS instead")
        self.transitions_seen += 1
        times = self._active.get(sent)
        if became_active:
            if times:
                times.append(now)  # nested: membership unchanged
                return
            self._active[sent] = [now]
        else:
            if not times:
                raise ValueError(f"deactivate of non-active sentence {sent}")
            if len(times) > 1:
                times.pop()
                return
            del self._active[sent]
        self.update(sent, became_active, now)

    # ------------------------------------------------------------------
    # live attachment
    # ------------------------------------------------------------------
    def attach_sas(self, sas) -> Callable[..., None]:
        """Follow the membership of ``sas``.

        The engine reads membership from the SAS and is handed every
        outermost membership change the SAS handles (its
        ``on_membership_change`` hook), so nested re-entrant notifications
        cost it nothing.  The SAS's current membership seeds the table, and
        watchers subscribed before are re-evaluated against it at the SAS's
        current time, so every answer reflects true state from the attach
        on.  Forwarded transitions applied to a replica SAS by the
        :class:`~repro.dbsim.bus.ForwardingBus` go through the same hook,
        so attaching to the replica sees the fused local + remote stream
        exactly as its own watchers do.  Returns the hook; pass it to
        :meth:`detach_sas`.
        """
        self._follow(sas)
        hook = self.update
        sas.on_membership_change.append(hook)
        return hook

    def _follow(self, sas) -> None:
        """Read membership from ``sas`` from now on.

        Raises on an engine that already has a membership source (it was
        fed by :meth:`transition` or follows a SAS).
        """
        if self._follows_sas or self.transitions_seen:
            raise RuntimeError("this engine already has a membership source")
        self._follows_sas = True
        self._active = sas._active
        for node in self._nodes.values():
            entries = self._member_entries(node.pattern)
            node.count = len(entries)
            if node.ordered:
                node.entries = entries
        now = sas._now()
        self.evaluations += len(self._watchers)
        for watcher in self._watchers:
            watcher._apply(self._evaluate(watcher), now)

    def detach_sas(self, sas, hook) -> None:
        sas.on_membership_change.remove(hook)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def answers(self, end_time: float) -> dict[str, tuple[float, int, bool]]:
        """Per-question ``(satisfied_time, transitions, satisfied_at_end)``.

        Names map to their (shared) watcher; duplicate questions report the
        shared watcher's values, which are identical to what dedicated
        watchers would have accumulated.
        """
        return {
            name: (w.total_satisfied_time(end_time), w.transitions, w.satisfied)
            for name, w in self._names.items()
        }

    def intervals(self, end_time: float) -> dict[str, list[tuple[float, float]]]:
        """Per-question satisfied intervals, open interval closed at ``end_time``."""
        return {name: w.closed_intervals(end_time) for name, w in self._names.items()}
