"""The full-rescan reference SAS, kept as the tests' differential oracle.

:class:`NaiveActiveSentenceSet` shares the indexed
:class:`~repro.core.sas.ActiveSentenceSet`'s membership bookkeeping but
none of its watcher indexing: every handled notification re-evaluates
*every* attached watcher against a full scan of the active set.  It is the
obviously-correct executable specification that
``tests/core/test_sas_differential.py`` replays generated traces against,
and the baseline abl5b (``benchmarks/test_abl5b_indexed_sas.py``) times the
indexed engine against.  Keep it dumb on purpose.
"""

from __future__ import annotations

from repro.core import ActiveSentenceSet, QuestionWatcher, Sentence

__all__ = ["NaiveActiveSentenceSet"]


class NaiveActiveSentenceSet(ActiveSentenceSet):
    """Thin reference implementation: full rescan on every notification."""

    def _register_watcher(self, watcher: QuestionWatcher) -> None:
        pass

    def _unregister_watcher(self, watcher: QuestionWatcher) -> None:
        pass

    def affected_watchers(self, sent: Sentence) -> list[QuestionWatcher]:
        return list(self.watchers)

    def _update_watchers(
        self,
        now: float,
        sent: Sentence,
        became_member: bool | None,
        visit: list[QuestionWatcher],
    ) -> None:
        for watcher in self.watchers:
            watcher._apply(watcher._evaluate(self), now)
