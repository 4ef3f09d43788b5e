"""Ablation 5b: indexed SAS engine throughput vs the naive reference.

abl5 measures how notification cost scales; this bench measures how much
the pattern-indexed, incrementally-evaluated engine buys at a scale the
naive reference visibly cannot sustain: 10,000 concurrently-active
sentences with 100 attached questions.  The probe sentence toggles one
question's satisfaction every cycle, so both engines do real transition
work (callback bookkeeping included) -- the difference is purely the
notification path: O(affected watchers, each O(1)) for the indexed engine
vs O(watchers x active set) full rescans for the naive one.

Acceptance bar: the indexed engine sustains >= 5x the naive throughput.
(Measured: three to four orders of magnitude.)

A second, shared-component scenario mirrors the Section 4.2.3 client/server
study: 120 conjunctions ``{Q_i QueryActive} ∧ {server0 DiskRead}`` all share
the disk-read component, 4 queries are active, and a disk-read probe
toggles.  Each probe transition flips exactly the 4 active queries'
questions, so the gate is on the engine's own counter, not on time: the
watchers the indexed engine visits (its ``affected_watchers`` lists) per
watcher transition must stay <= 1.5.  An engine that visits every watcher
filed under a shared component pays 30 visits per flip here.
"""

import time

from repro.core import (
    ActiveSentenceSet,
    Noun,
    PerformanceQuestion,
    SentencePattern,
    Verb,
    sentence,
)
from repro.dbsim import query_active, server_disk_read
from repro.paradyn import text_table
from tests.core.naive_sas import NaiveActiveSentenceSet

SUM = Verb("Sum", "HPF")
ACTIVE = 10_000
QUESTIONS = 100

BACKGROUND = [sentence(SUM, Noun(f"B{i}", "HPF")) for i in range(ACTIVE)]
#: Matches question q0, so every probe cycle flips a watcher both ways.
PROBE = sentence(SUM, Noun("N0", "HPF"))

INDEXED_CYCLES = 2000
NAIVE_CYCLES = 2


def _build(engine: type[ActiveSentenceSet]):
    sas = engine()
    for s in BACKGROUND:
        sas.activate(s)
    for q in range(QUESTIONS):
        sas.attach_question(
            PerformanceQuestion(f"q{q}", (SentencePattern("Sum", (f"N{q}",)),))
        )
    return sas


def _throughput(engine: type[ActiveSentenceSet], cycles: int) -> float:
    """Notifications per second for activate+deactivate probe cycles."""
    sas = _build(engine)
    t0 = time.perf_counter()
    for _ in range(cycles):
        sas.activate(PROBE)
        sas.deactivate(PROBE)
    dt = time.perf_counter() - t0
    return (2 * cycles) / dt


def run_experiment():
    indexed = _throughput(ActiveSentenceSet, INDEXED_CYCLES)
    naive = _throughput(NaiveActiveSentenceSet, NAIVE_CYCLES)
    return indexed, naive


# -- shared-component scenario ---------------------------------------------
SHARED_QUESTIONS = 120
SHARED_ACTIVE = 4
SHARED_CYCLES = {ActiveSentenceSet: 5000, NaiveActiveSentenceSet: 500}
DISK_READ = server_disk_read()


def _build_shared(engine: type[ActiveSentenceSet]):
    sas = engine()
    watchers = [
        sas.attach_question(
            PerformanceQuestion(
                f"reads for Q{i}",
                (
                    SentencePattern("QueryActive", (f"Q{i}",)),
                    SentencePattern("DiskRead", ("server0",)),
                ),
            )
        )
        for i in range(SHARED_QUESTIONS)
    ]
    step = SHARED_QUESTIONS // SHARED_ACTIVE
    for i in range(SHARED_ACTIVE):
        sas.activate(query_active(f"Q{i * step}"))
    return sas, watchers


def _shared_throughput(engine: type[ActiveSentenceSet]) -> float:
    """Notifications per second for disk-read probe cycles."""
    sas, _ = _build_shared(engine)
    cycles = SHARED_CYCLES[engine]
    t0 = time.perf_counter()
    for _ in range(cycles):
        sas.activate(DISK_READ)
        sas.deactivate(DISK_READ)
    return (2 * cycles) / (time.perf_counter() - t0)


def _shared_visits(cycles: int = 200) -> tuple[int, int, int]:
    """(watcher visits, SAS transitions, watcher transitions) of the indexed
    engine over ``cycles`` probe cycles; visits are counted from the
    ``affected_watchers`` lists the engine takes its visits from."""
    sas, watchers = _build_shared(ActiveSentenceSet)
    visits = 0

    def counting(sent):
        nonlocal visits
        found = ActiveSentenceSet.affected_watchers(sas, sent)
        visits += len(found)
        return found

    sas.affected_watchers = counting  # type: ignore[method-assign]
    before = sum(w.transitions for w in watchers)
    for _ in range(cycles):
        sas.activate(DISK_READ)
        sas.deactivate(DISK_READ)
    return visits, 2 * cycles, sum(w.transitions for w in watchers) - before


def run_shared_experiment():
    indexed = _shared_throughput(ActiveSentenceSet)
    naive = _shared_throughput(NaiveActiveSentenceSet)
    return indexed, naive, _shared_visits()


def test_abl5b_indexed_sas(benchmark, save_artifact, baseline_guard):
    indexed, naive = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    speedup = indexed / naive

    # -- shape claims ---------------------------------------------------------
    # the indexed engine is the point of this PR: >= 5x at 10k x 100 scale
    assert speedup >= 5.0

    # warn (under --baseline) if throughput fell >20% vs the committed artifact;
    # must run before save_artifact overwrites that file
    baseline_guard("abl5b_indexed_sas", indexed)

    shared_indexed, shared_naive, (visits, transitions, flips) = run_shared_experiment()
    # every probe transition flips exactly the active queries' questions ...
    assert flips == SHARED_ACTIVE * transitions
    # ... and the engine visits about one watcher per flip, not every
    # watcher filed under the shared component
    visits_per_flip = visits / flips
    assert visits_per_flip <= 1.5

    rows = [
        ("indexed", f"{indexed:,.0f}", "1.0x"),
        ("naive", f"{naive:,.0f}", f"{naive / indexed:.2e}x"),
    ]
    text = (
        "Ablation 5b -- indexed vs naive SAS engine throughput\n"
        "(10,000 active sentences, 100 attached questions, probe toggles q0)\n\n"
        + text_table(rows, headers=("engine", "notifications/s", "relative"))
        + "\n\n"
        f"indexed_ops_per_sec: {indexed:.1f}\n"
        f"naive_ops_per_sec: {naive:.1f}\n"
        f"speedup: {speedup:.1f}\n"
        "\nshape: indexed engine >= 5x naive (measured: orders of magnitude);\n"
        "see abl5 for how indexed cost scales with SAS size and question count.\n"
        "\n"
        f"Shared component -- {SHARED_QUESTIONS} conjunctions"
        " {Q_i QueryActive} & {server0 DiskRead},\n"
        f"{SHARED_ACTIVE} queries active, probe toggles {{server0 DiskRead}}\n\n"
        + text_table(
            [
                ("indexed", f"{shared_indexed:,.0f}", "1.0x"),
                ("naive", f"{shared_naive:,.0f}", f"{shared_naive / shared_indexed:.2e}x"),
            ],
            headers=("engine", "notifications/s", "relative"),
        )
        + "\n\n"
        f"shared_indexed_ops_per_sec: {shared_indexed:.1f}\n"
        f"shared_naive_ops_per_sec: {shared_naive:.1f}\n"
        f"shared_watcher_visits_per_transition: {visits / transitions:.2f}\n"
        f"shared_watcher_visits_per_watcher_transition: {visits_per_flip:.2f}\n"
        "\nshape: watcher visits per watcher transition <= 1.5 (gated on the counter,\n"
        f"not on time); each probe transition flips the {SHARED_ACTIVE} active queries' questions."
    )
    save_artifact("abl5b_indexed_sas", text)
