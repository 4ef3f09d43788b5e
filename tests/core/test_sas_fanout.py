"""Fan-out gate: a SAS transition visits only the questions it can flip.

The Section 4.2.3 client/server study asks one question per query, each a
conjunction ``{Q_i QueryActive} ∧ {server0 DiskRead}``.  Every question
shares the disk-read component, so an engine that notifies every watcher
filed under a shared component pays for all of them on every disk read.
The watched-component engine parks an unsatisfied question on one
component whose match count is zero, so a disk read reaches only the
questions whose query is active.

These tests pin that visit count -- the ``affected_watchers`` list the SAS
takes its visits from -- on a synthetic set-up and on a full faulted,
recorded db study, and check that the recorded study's live answers still
equal the post-mortem batch answers exactly.
"""

import random

import pytest

from repro.core import ActiveSentenceSet, PerformanceQuestion, SentencePattern
from repro.dbsim import FaultPlan, Query, query_active, run_db_study, server_disk_read
from repro.trace.columnar import ColumnarTraceWriter, open_trace
from repro.trace.retro import evaluate_question_batch

QUERIES = 120


def _question(name: str) -> PerformanceQuestion:
    return PerformanceQuestion(
        f"reads for {name}",
        (SentencePattern("QueryActive", (name,)), SentencePattern("DiskRead", ("server0",))),
    )


def test_shared_component_toggle_visits_no_parked_question():
    sas = ActiveSentenceSet()
    watchers = [sas.attach_question(_question(f"Q{i}")) for i in range(QUERIES)]
    read = server_disk_read()

    # no query active: every question waits on its own query component
    assert sas.affected_watchers(read) == []
    sas.activate(read)
    assert sas.affected_watchers(read) == []
    sas.deactivate(read)

    # with Q7 active, a disk read can flip exactly Q7's question, both ways
    sas.activate(query_active("Q7"))
    assert sas.affected_watchers(read) == [watchers[7]]
    sas.activate(read)
    assert watchers[7].satisfied
    assert sas.affected_watchers(read) == [watchers[7]]
    sas.deactivate(read)
    assert not watchers[7].satisfied
    assert [w.transitions for w in watchers] == [2 if i == 7 else 0 for i in range(QUERIES)]


def test_recorded_db_study_visits_about_one_watcher_per_flip(tmp_path, monkeypatch):
    visits = []
    watchers = []
    affected = ActiveSentenceSet.affected_watchers
    attach = ActiveSentenceSet.attach_question

    def counting_affected(self, sent):
        result = affected(self, sent)
        visits.append(len(result))
        return result

    def tracking_attach(self, question):
        watcher = attach(self, question)
        watchers.append(watcher)
        return watcher

    monkeypatch.setattr(ActiveSentenceSet, "affected_watchers", counting_affected)
    monkeypatch.setattr(ActiveSentenceSet, "attach_question", tracking_attach)

    rng = random.Random(1)
    queries = [Query(f"Q{i}", disk_reads=rng.randint(1, 4)) for i in range(QUERIES)]
    faults = FaultPlan(drop=0.02, duplicate=0.02, delay=0.05, seed=rng.randrange(2**31))
    path = tmp_path / "db.rtrcx"
    with ColumnarTraceWriter(path) as writer:
        db = run_db_study(
            queries, num_clients=4, transport="bus", fault_plan=faults, recorder=writer
        )
    monkeypatch.undo()

    flips = sum(w.transitions for w in watchers)
    assert len(watchers) == QUERIES + 4
    assert flips > 0
    assert sum(visits) <= 1.5 * flips, (sum(visits), flips)

    with open_trace(path) as reader:
        answers = evaluate_question_batch(
            reader,
            [_question(q.name) for q in queries],
            end_time=db.elapsed,
            node=4,
        )
    assert len(db.per_query_watcher_time) == QUERIES
    for name, live in db.per_query_watcher_time.items():
        assert answers[f"reads for {name}"].satisfied_time == live, name


@pytest.mark.parametrize("active", [(), ("Q3",), ("Q3", "Q9")])
def test_wildcard_component_shares_the_table(active):
    """A wildcard-only component is matched by every sentence: the first
    activation moves every question parked on it to its zero-count query
    component, after which disk reads visit no parked question."""
    sas = ActiveSentenceSet()
    watchers = [
        sas.attach_question(
            PerformanceQuestion(
                f"any with Q{i}",
                (SentencePattern("?"), SentencePattern("QueryActive", (f"Q{i}",))),
            )
        )
        for i in range(QUERIES)
    ]
    for name in active:
        sas.activate(query_active(name))
    read = server_disk_read()
    sas.activate(read)
    sas.deactivate(read)
    assert sas.affected_watchers(read) == []
    sas.activate(read)
    assert [w.satisfied for w in watchers] == [f"Q{i}" in active for i in range(QUERIES)]
