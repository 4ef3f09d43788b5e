"""The full-rescan reference for Figure-6 questions, kept as the tests' oracle.

:class:`NaiveActiveSentenceSet` is a standalone Set of Active Sentences
with the :class:`~repro.core.sas.ActiveSentenceSet` notification surface
(multiset membership, interest filtering, interning, co-activity
listeners, trace recording) and none of its machinery: every handled
notification re-evaluates *every* attached question over the full active
set with the question's own ``satisfied``/``evaluate`` (:func:`naive_eval`),
and :class:`NaiveWatcher` applies the watcher accumulation rule to the
result.  It is the obviously-correct executable specification that
``tests/core/test_sas_differential.py`` and
``tests/core/test_multiq_properties.py`` check the question engine
against, and the baseline abl5b (``benchmarks/test_abl5b_indexed_sas.py``)
times it against.  Keep it dumb on purpose.
"""

from __future__ import annotations

from repro.core import EventKind, OrderedQuestion, PerformanceQuestion

__all__ = ["NaiveActiveSentenceSet", "NaiveWatcher", "naive_eval"]


def naive_eval(question, active_with_times) -> bool:
    """Evaluate ``question`` over ``(sentence, outermost time)`` pairs."""
    if isinstance(question, OrderedQuestion):
        return question.satisfied(active_with_times)
    active = [s for s, _ in active_with_times]
    if isinstance(question, PerformanceQuestion):
        return question.satisfied(active)
    return question.evaluate(active)


class NaiveWatcher:
    """The watcher accumulation rule, driven by full re-evaluation."""

    def __init__(self, question=None):
        self.question = question
        self.satisfied = False
        self.satisfied_since = 0.0
        self.satisfied_time = 0.0
        self.transitions = 0
        self.intervals = []

    def apply(self, new, now):
        if new == self.satisfied:
            return
        self.transitions += 1
        self.satisfied = new
        if new:
            self.satisfied_since = now
        else:
            self.satisfied_time += now - self.satisfied_since
            self.intervals.append((self.satisfied_since, now))

    def total_satisfied_time(self, now):
        if self.satisfied:
            return self.satisfied_time + (now - self.satisfied_since)
        return self.satisfied_time

    def closed_intervals(self, end):
        out = list(self.intervals)
        if self.satisfied:
            out.append((self.satisfied_since, end))
        return out


class NaiveActiveSentenceSet:
    """Reference SAS: full rescan of every question on every notification."""

    def __init__(self, clock=None, node_id=None, interest=None, trace=None, vocabulary=None):
        self._ticks = 0
        self.clock = clock if clock is not None else self._tick
        self.node_id = node_id
        self.interest = interest
        self.trace = trace
        self.vocabulary = vocabulary
        self._active = {}  # sentence -> activation times, in first-activation order
        self.watchers = []
        self.notifications = 0
        self.ignored_notifications = 0
        self.co_active_listeners = []

    def _tick(self):
        self._ticks += 1
        return float(self._ticks)

    def _now(self):
        if not self._active:
            return 0.0
        return float(self._ticks) if self.clock == self._tick else self.clock()

    def _accept(self, sent):
        self.notifications += 1
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return None
        return sent

    def activate(self, sent):
        sent = self._accept(sent)
        if sent is None:
            return False
        now = self.clock()
        stack = self._active.setdefault(sent, [])
        if not stack:
            for other in list(self._active):
                if other != sent:
                    for cb in self.co_active_listeners:
                        cb(other, sent, now)
        stack.append(now)
        if self.trace is not None:
            self.trace.record(now, EventKind.ACTIVATE, sent, self.node_id)
        self._rescan(now)
        return True

    def deactivate(self, sent):
        sent = self._accept(sent)
        if sent is None:
            return False
        stack = self._active.get(sent)
        if not stack:
            raise ValueError(f"deactivate of non-active sentence {sent}")
        now = self.clock()
        stack.pop()
        if not stack:
            del self._active[sent]
        if self.trace is not None:
            self.trace.record(now, EventKind.DEACTIVATE, sent, self.node_id)
        self._rescan(now)
        return True

    def _rescan(self, now):
        if not self.watchers:
            return
        members = self.active_with_times()
        for watcher in self.watchers:
            watcher.apply(naive_eval(watcher.question, members), now)

    def active_sentences(self):
        return tuple(self._active)

    def active_with_times(self):
        return [(s, stack[0]) for s, stack in self._active.items()]

    def activation_depth(self, sent):
        return len(self._active.get(sent, ()))

    def is_active(self, sent):
        return sent in self._active

    def __len__(self):
        return len(self._active)

    def attach_question(self, question):
        watcher = NaiveWatcher(question)
        watcher.apply(naive_eval(question, self.active_with_times()), self._now())
        self.watchers.append(watcher)
        return watcher

    def detach_question(self, watcher):
        self.watchers.remove(watcher)
