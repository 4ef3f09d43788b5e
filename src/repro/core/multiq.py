"""The shared multi-question evaluation engine.

One :class:`~repro.core.sas.QuestionWatcher` per question re-pays the full
pattern-matching cost of every SAS transition per subscriber: serving N
concurrent Figure-6 subscriptions costs N independent re-evaluations of the
same transition stream.  Real question workloads share structure -- the same
levels, overlapping patterns, outright duplicate questions -- and this module
exploits that so the marginal subscription is nearly free:

* **pattern interning** -- every subscription's
  :class:`~repro.core.questions.SentencePattern` is canonicalized
  (:meth:`~repro.core.questions.SentencePattern.canonical`) and interned into
  one node table: equal patterns dedupe to one :class:`PatternNode`, whose
  active-match count and activation entries are maintained once no matter how
  many questions reference it;
* **subsumption lattice** -- nodes are linked parent -> child whenever the
  parent's match set contains the child's
  (:meth:`~repro.core.questions.SentencePattern.subsumes`).  A never-seen
  sentence is matched by descending from the lattice roots and pruning every
  sub-lattice whose root fails -- a sentence that misses ``{A Sum}`` can
  never match ``{A B Sum}``;
* **candidate-key routing** -- every node's level/noun/verb discriminator
  (:meth:`~repro.core.questions.SentencePattern.index_key`) goes into one
  key set, so a sentence carrying none of those keys (and no wildcard-only
  node exists) skips the lattice without a single pattern test;
* **per-question dirty bits** -- a transition updates the (few) matching
  nodes, then re-evaluates only the subscriptions whose nodes changed
  observable state: boolean questions only on a count 0<->1 flip, ordered
  questions on any relevant entry change.  Unaffected subscribers cost
  nothing;
* **subscription dedup** -- structurally-equivalent questions subscribed
  before any transition share one :class:`MultiWatcher` outright.

Per-question observable state (``satisfied_time``, ``transitions``,
``satisfied_at_end``) is byte-identical to a dedicated live
:class:`~repro.core.sas.QuestionWatcher` replaying the same stream -- the
differential oracle pinned by ``tests/core/test_multiq_properties.py`` and
ablation abl11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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
    "MultiWatcher",
    "Subscription",
    "MultiQuestionEngine",
    "question_name",
]

Question = PerformanceQuestion | QExpr | OrderedQuestion


def question_name(question: Question) -> str:
    """The stable key a question's answers are reported under."""
    return getattr(question, "name", None) or str(question)


@dataclass(eq=False)
class PatternNode:
    """One interned canonical pattern: shared state for all its questions."""

    pid: int
    pattern: SentencePattern
    count: int = 0  # active sentences currently matching
    #: time-sorted (sentence, outermost activation time), maintained only
    #: while some OrderedQuestion references this node (rebuilt from live
    #: membership when the first ordered subscriber attaches)
    entries: list[tuple[Sentence, float]] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)  # subsuming nodes
    children: list[int] = field(default_factory=list)  # subsumed nodes
    bool_subs: set[int] = field(default_factory=set)
    ordered_subs: set[int] = field(default_factory=set)


@dataclass(eq=False)
class MultiWatcher:
    """Satisfaction state of one (shared) subscription.

    Field-for-field the observable surface of
    :class:`~repro.core.sas.QuestionWatcher`, plus the closed satisfied
    intervals (what ``repro serve`` streams) and interval callbacks.
    """

    satisfied: bool = False
    satisfied_since: float = 0.0
    satisfied_time: float = 0.0
    transitions: int = 0

    def __post_init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []
        self.on_satisfied: list[Callable[[float], None]] = []
        self.on_unsatisfied: list[Callable[[float], None]] = []
        self.on_interval: list[Callable[[float, float], None]] = []

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
            self.intervals.append((self.satisfied_since, now))
            for cb in self.on_interval:
                cb(self.satisfied_since, now)
            for cb in self.on_unsatisfied:
                cb(now)

    def total_satisfied_time(self, now: float) -> float:
        """Accumulated satisfied time, counting an open interval up to ``now``."""
        if self.satisfied:
            return self.satisfied_time + (now - self.satisfied_since)
        return self.satisfied_time

    def closed_intervals(self, end: float) -> list[tuple[float, float]]:
        """All satisfied intervals, the open one (if any) closed at ``end``."""
        out = list(self.intervals)
        if self.satisfied:
            out.append((self.satisfied_since, end))
        return out


@dataclass(eq=False)
class Subscription:
    """One compiled question: its node references and shared watcher."""

    sid: int
    name: str
    question: Question
    kind: str  # "conj" | "expr" | "ordered"
    nids: tuple[int, ...]  # component order (ordered) / unique (conj)
    program: list[tuple] | None  # expr: flattened children-first op list
    watcher: MultiWatcher
    created_at: int  # engine transition count at creation (dedup guard)
    key: tuple  # structural-equivalence key


class MultiQuestionEngine:
    """Evaluate many questions over one transition stream, sharing work.

    Feed it transitions directly (:meth:`transition`), hook it to a live SAS
    (:meth:`attach_sas` -- forwarded bus transitions included, since the bus
    applies them to the replica SAS), or let
    :func:`repro.trace.retro.evaluate_question_batch` replay a recorded
    trace through it in one zone-map-pruned pass.

    The engine tracks its own membership multiset (depth per sentence), so
    nested re-entrant activations are ignored exactly as
    :class:`~repro.core.sas.QuestionWatcher` ignores them.
    """

    def __init__(self) -> None:
        self._nodes: list[PatternNode] = []
        self._by_pattern: dict[SentencePattern, int] = {}
        # lattice roots, and the discriminator keys of every node (a
        # wildcard-only node has none: ``_always`` routes every sentence)
        self._roots: list[int] = []
        self._keys: set[tuple[str, str]] = set()
        self._always = False
        self._subs: list[Subscription] = []
        self._by_key: dict[tuple, int] = {}
        self._names: dict[str, int] = {}
        # membership multiset + outermost activation times
        self._depth: dict[Sentence, int] = {}
        self._active: dict[Sentence, float] = {}
        # sentence -> matching node ids (invalidated when nodes are added)
        self._match_cache: dict[Sentence, tuple[int, ...]] = {}
        # counters (the abl11 work accounting)
        self.transitions_seen = 0  # every notification fed in
        self.membership_changes = 0  # outermost activate / last deactivate
        self.node_updates = 0  # per-node count/entry updates applied
        self.evaluations = 0  # subscription re-evaluations (dirty only)

    # ------------------------------------------------------------------
    # node table + lattice
    # ------------------------------------------------------------------
    def _node_for(self, pattern: SentencePattern) -> int:
        canon = pattern.canonical()
        nid = self._by_pattern.get(canon)
        if nid is not None:
            return nid
        nid = len(self._nodes)
        node = PatternNode(nid, canon)
        for other in self._nodes:
            if other.pattern.subsumes(canon):
                other.children.append(nid)
                node.parents.append(other.pid)
            if canon.subsumes(other.pattern):
                node.children.append(other.pid)
                other.parents.append(nid)
        self._nodes.append(node)
        self._by_pattern[canon] = nid
        key = canon.index_key()
        if key is None:
            self._always = True
        else:
            self._keys.add(key)
        self._roots = [n.pid for n in self._nodes if not n.parents]
        # existing cached match sets don't know about the new node
        self._match_cache.clear()
        # seed from current membership so late subscriptions see true state
        for sent, t in self._active.items():
            if canon.matches(sent):
                node.count += 1
                node.entries.append((sent, t))
        node.entries.sort(key=lambda st: st[1])
        return nid

    def _match_nodes(self, sent: Sentence) -> tuple[int, ...]:
        cached = self._match_cache.get(sent)
        if cached is not None:
            return cached
        nodes = self._nodes
        out: list[int] = []
        candidates = {("v", sent.verb.name), ("l", sent.abstraction)}
        for noun in sent.nouns:
            candidates.add(("n", noun.name))
        if self._always or not self._keys.isdisjoint(candidates):
            stack = list(self._roots)
            seen: set[int] = set()
            while stack:
                nid = stack.pop()
                if nid in seen:
                    continue
                seen.add(nid)
                node = nodes[nid]
                if node.pattern.matches(sent):
                    out.append(nid)
                    stack.extend(node.children)
                # a failed pattern prunes its whole sub-lattice: children
                # match subsets of this node's match set
        out.sort()
        result = tuple(out)
        self._match_cache[sent] = result
        return result

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def _compile_expr(self, expr: QExpr, nids: list[int]) -> list[tuple]:
        """Flatten ``expr`` children-first; leaves reference node ids."""
        program: list[tuple] = []

        def build(e: QExpr) -> int:
            if isinstance(e, QAtom):
                nid = self._node_for(e.pattern)
                nids.append(nid)
                program.append(("atom", nid))
            elif isinstance(e, (QAnd, QOr)):
                idxs = tuple(build(t) for t in e.terms)
                program.append(("and" if isinstance(e, QAnd) else "or", idxs))
            elif isinstance(e, QNot):
                child = build(e.term)
                program.append(("not", child))
            else:
                raise TypeError(f"cannot compile QExpr node {e!r}")
            return len(program) - 1

        build(expr)
        return program

    def _structural_key(self, kind: str, nids: tuple[int, ...], program) -> tuple:
        if kind == "conj":
            return ("conj", tuple(sorted(set(nids))))
        if kind == "ordered":
            return ("ordered", nids)
        return ("expr", tuple(program))

    def subscribe(self, question: Question, name: str | None = None, now: float = 0.0) -> Subscription:
        """Register a question; returns its (possibly shared) subscription.

        Structurally-equivalent questions subscribed while the engine has
        processed the same history share one subscription -- the
        "subsumption-cached fan-out": the marginal duplicate subscriber
        costs one dict lookup.  ``now`` stamps the initial evaluation (use
        the current clock when attaching mid-run, matching
        :meth:`~repro.core.sas.ActiveSentenceSet.attach_question`).
        """
        nids_acc: list[int] = []
        program = None
        if isinstance(question, PerformanceQuestion):
            kind = "conj"
            nids = tuple(self._node_for(p) for p in question.components)
        elif isinstance(question, OrderedQuestion):
            kind = "ordered"
            nids = tuple(self._node_for(p) for p in question.components)
        elif isinstance(question, QExpr):
            kind = "expr"
            program = self._compile_expr(question, nids_acc)
            nids = tuple(nids_acc)
        else:
            raise TypeError(f"cannot subscribe {question!r}")
        key = self._structural_key(kind, nids, program)
        effective_name = name if name is not None else question_name(question)
        existing = self._by_key.get(key)
        if existing is not None:
            sub = self._subs[existing]
            # share only while observably fresh: the shared watcher must be
            # in exactly the state a dedicated watcher attached at ``now``
            # would be in -- same engine history (created_at) and no
            # accumulated past (no closed intervals, and any open interval
            # must have started at ``now`` itself, not earlier wall-clock)
            w = sub.watcher
            if (
                sub.created_at == self.membership_changes
                and not w.intervals
                and (not w.satisfied or w.satisfied_since == now)
            ):
                self._names.setdefault(effective_name, sub.sid)
                return sub
        sub = Subscription(
            sid=len(self._subs),
            name=effective_name,
            question=question,
            kind=kind,
            nids=nids,
            program=program,
            watcher=MultiWatcher(),
            created_at=self.membership_changes,
            key=key,
        )
        self._subs.append(sub)
        self._by_key[key] = sub.sid
        self._names.setdefault(sub.name, sub.sid)
        for nid in set(nids):
            node = self._nodes[nid]
            if kind == "ordered":
                if not node.ordered_subs:
                    # entries are only maintained while the node has ordered
                    # subscribers; membership changes since creation (e.g. a
                    # node first referenced by boolean questions) left them
                    # stale -- rebuild from live membership before trusting
                    node.entries = sorted(
                        (
                            (s, t)
                            for s, t in self._active.items()
                            if node.pattern.matches(s)
                        ),
                        key=lambda st: st[1],
                    )
                node.ordered_subs.add(sub.sid)
            else:
                node.bool_subs.add(sub.sid)
        sub.watcher._apply(self._evaluate(sub), now)
        return sub

    def subscribe_all(
        self, questions: Iterable[Question], now: float = 0.0
    ) -> list[Subscription]:
        return [self.subscribe(q, now=now) for q in questions]

    def subscription(self, name: str) -> Subscription:
        return self._subs[self._names[name]]

    @property
    def subscriptions(self) -> Sequence[Subscription]:
        return tuple(self._subs)

    def dead_subscriptions(self, sentences: Iterable[Sentence]) -> list[str]:
        """Names of subscriptions that can never fire over ``sentences``.

        A plain conjunction or ordered question with a component pattern
        matching none of the given sentences (e.g. a recorded trace's
        sentence table) can never flip its satisfaction state: both
        watcher kinds count only state flips, so its answer is already
        known to be ``(0.0, 0, False)``.  Boolean-expression questions
        are never reported -- a NOT over a dead atom is trivially live.
        This is the engine-level form of the NV019 static check; ``repro
        serve`` runs it per subscription at subscribe time.
        """
        table = list(sentences)
        dead: list[str] = []
        for sub in self._subs:
            if sub.kind not in ("conj", "ordered"):
                continue
            components = getattr(sub.question, "components", ())
            if any(
                not any(p.matches(s) for s in table) for p in components
            ):
                dead.extend(
                    name for name, sid in self._names.items() if sid == sub.sid
                )
        return sorted(dead)

    @property
    def nodes(self) -> Sequence[PatternNode]:
        return tuple(self._nodes)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, sub: Subscription) -> bool:
        self.evaluations += 1
        nodes = self._nodes
        if sub.kind == "conj":
            return all(nodes[nid].count > 0 for nid in sub.nids)
        if sub.kind == "expr":
            values: list[bool] = []
            for op, payload in sub.program:  # children precede parents
                if op == "atom":
                    values.append(nodes[payload].count > 0)
                elif op == "and":
                    values.append(all(values[i] for i in payload))
                elif op == "or":
                    values.append(any(values[i] for i in payload))
                else:
                    values.append(not values[payload])
            return values[-1]
        # ordered: merge the component nodes' entry lists (a sentence in
        # several nodes carries one outermost time, so dedupe by sentence)
        merged: dict[Sentence, float] = {}
        for nid in set(sub.nids):
            merged.update(nodes[nid].entries)
        entries = sorted(merged.items(), key=lambda st: st[1])
        return sub.question._match(entries, 0, -float("inf"))

    def transition(self, sent: Sentence, became_active: bool, now: float) -> None:
        """Feed one SAS transition (nested re-entrancy handled internally)."""
        self.transitions_seen += 1
        depth = self._depth
        if became_active:
            d = depth.get(sent, 0)
            depth[sent] = d + 1
            if d:
                return  # nested: membership and outermost times unchanged
            self._active[sent] = now
        else:
            d = depth.get(sent, 0)
            if d == 0:
                raise ValueError(f"deactivate of non-active sentence {sent}")
            if d > 1:
                depth[sent] = d - 1
                return
            del depth[sent]
            del self._active[sent]
        self.membership_changes += 1
        nids = self._match_nodes(sent)
        if not nids:
            return
        nodes = self._nodes
        dirty: set[int] = set()
        for nid in nids:
            node = nodes[nid]
            self.node_updates += 1
            if became_active:
                node.count += 1
                if node.count == 1:
                    dirty |= node.bool_subs
                if node.ordered_subs:
                    # clocks are (almost always) monotone: append, walking
                    # back only if a custom clock handed out an earlier time
                    entries = node.entries
                    i = len(entries)
                    while i > 0 and entries[i - 1][1] > now:
                        i -= 1
                    entries.insert(i, (sent, now))
                    dirty |= node.ordered_subs
            else:
                node.count -= 1
                if node.count == 0:
                    dirty |= node.bool_subs
                if node.ordered_subs:
                    entries = node.entries
                    for i in range(len(entries) - 1, -1, -1):
                        if entries[i][0] == sent:
                            del entries[i]
                            break
                    dirty |= node.ordered_subs
        for sid in sorted(dirty):
            sub = self._subs[sid]
            sub.watcher._apply(self._evaluate(sub), now)

    # ------------------------------------------------------------------
    # live attachment
    # ------------------------------------------------------------------
    def attach_sas(self, sas) -> Callable[[Sentence, bool, float], None]:
        """Hook every handled transition of ``sas`` into this engine.

        The SAS's current membership (including re-entrant depth) seeds the
        engine silently first, so questions subscribed afterwards evaluate
        against true state.  Returns the hook; pass it to
        :meth:`detach_sas`.  Forwarded transitions applied to a replica SAS
        by the :class:`~repro.dbsim.bus.ForwardingBus` flow through the same
        ``on_transition`` hook, so attaching to the replica sees the fused
        local + remote stream exactly as its own watchers do.
        """
        for sent, t in sas.active_with_times():
            d = sas.activation_depth(sent)
            self._depth[sent] = self._depth.get(sent, 0) + d
            if sent not in self._active:
                self._active[sent] = t
                for nid in self._match_nodes(sent):
                    node = self._nodes[nid]
                    node.count += 1
                    if node.ordered_subs:
                        node.entries.append((sent, t))
                        node.entries.sort(key=lambda st: st[1])

        def hook(sent: Sentence, became_active: bool, now: float) -> None:
            self.transition(sent, became_active, now)

        sas.on_transition.append(hook)
        return hook

    def detach_sas(self, sas, hook) -> None:
        sas.on_transition.remove(hook)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def answers(self, end_time: float) -> dict[str, tuple[float, int, bool]]:
        """Per-question ``(satisfied_time, transitions, satisfied_at_end)``.

        Names map to their (shared) subscription; duplicate questions report
        the shared watcher's values, which are identical to what dedicated
        watchers would have accumulated.
        """
        out: dict[str, tuple[float, int, bool]] = {}
        for name, sid in self._names.items():
            w = self._subs[sid].watcher
            out[name] = (w.total_satisfied_time(end_time), w.transitions, w.satisfied)
        return out

    def intervals(self, end_time: float) -> dict[str, list[tuple[float, float]]]:
        """Per-question satisfied intervals, open interval closed at ``end_time``."""
        return {
            name: self._subs[sid].watcher.closed_intervals(end_time)
            for name, sid in self._names.items()
        }
