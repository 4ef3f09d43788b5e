"""Unit tests for the columnar ``.rtrcx`` backend and the common scan API."""

import pytest

from repro.core import EventKind, Noun, SentencePattern, Verb, sentence
from repro.core.mapping import MappingOrigin
from repro.sweep import SweepRunner
from repro.trace import (
    CodecError,
    ColumnarTraceReader,
    ColumnarTraceWriter,
    evaluate_question_batch,
    filtered_intervals,
    matching_sids,
    open_trace,
    parallel_intervals,
    scan_transitions,
    sentence_intervals,
    trace_stats,
    windowed_mappings,
)
from repro.workloads import random_trace

SUM = Verb("Sum", "HPF")
SEND = Verb("Send", "CMRTS")
A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
N0_SEND = sentence(SEND, Noun("node0", "CMRTS"))


def mixed_trace_writer(w):
    """Drive a writer with interleaved transitions, metrics, and mappings."""
    w.transition(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
    w.metric_sample(1.25, "cpu_time", "node0", 0.125, "s")
    w.transition(2.0, EventKind.ACTIVATE, N0_SEND, node_id=1)
    w.mapping(2.0, A_SUM, N0_SEND)
    w.transition(2.5, EventKind.DEACTIVATE, N0_SEND, node_id=1)
    w.metric_sample(2.5, "msgs", "", 42.0)
    w.mapping(2.75, B_SUM, A_SUM, origin=MappingOrigin.STATIC)
    w.transition(3.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
    w.transition(3.0, EventKind.ACTIVATE, B_SUM)  # node None, tied time


def record(tmp_path, trace, **columnar_kwargs):
    """``trace`` written to a columnar file; returns the reader."""
    path = tmp_path / "t.rtrcx"
    with ColumnarTraceWriter(path, **columnar_kwargs) as w:
        w.record_trace(trace)
    return ColumnarTraceReader(path)


class TestColumnarRoundTrip:
    def test_mixed_records_round_trip(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=3) as w:
            mixed_trace_writer(w)
        r = ColumnarTraceReader(path)
        events = list(r.events())
        assert [(e.time, e.kind, e.sentence, e.node_id) for e in events] == [
            (1.0, EventKind.ACTIVATE, A_SUM, 0),
            (2.0, EventKind.ACTIVATE, N0_SEND, 1),
            (2.5, EventKind.DEACTIVATE, N0_SEND, 1),
            (3.0, EventKind.DEACTIVATE, A_SUM, 0),
            (3.0, EventKind.ACTIVATE, B_SUM, None),
        ]
        samples = list(r.metric_samples())
        assert [(s.time, s.name, s.focus, s.value, s.units) for s in samples] == [
            (1.25, "cpu_time", "node0", 0.125, "s"),
            (2.5, "msgs", "", 42.0, ""),
        ]
        maps = list(r.mappings())
        assert [(m.time, m.source, m.destination, m.origin) for m in maps] == [
            (2.0, A_SUM, N0_SEND, MappingOrigin.DYNAMIC),
            (2.75, B_SUM, A_SUM, MappingOrigin.STATIC),
        ]
        assert r.transitions == 5
        assert len(r.segments) > 1  # segment_records=3 forced a roll

    def test_records_preserve_interleaving(self, tmp_path):
        col = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(col, segment_records=2) as w:
            mixed_trace_writer(w)
        recs = list(ColumnarTraceReader(col).records())
        assert [rec[0] for rec in recs] == [
            "trans", "metric", "trans", "map", "trans",
            "metric", "map", "trans", "trans",
        ]
        assert recs[1] == ("metric", 1.25, "cpu_time", "node0", 0.125, "s")
        assert recs[3] == ("map", 2.0, A_SUM, N0_SEND, MappingOrigin.DYNAMIC)
        assert recs[8] == ("trans", 3.0, B_SUM, True, None)

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_random_trace_equivalence(self, tmp_path, seed):
        trace = random_trace(seed, events=180, nodes=3)
        col = record(tmp_path, trace, segment_records=32)
        want = [(e.time, e.kind, e.sentence, e.node_id) for e in trace.events()]
        got = [(e.time, e.kind, e.sentence, e.node_id) for e in col.events()]
        assert got == want
        assert col.time_bounds() == (want[0][0], want[-1][0])
        assert col.transitions == len(want)
        info = col.info()
        assert info["format"] == "columnar"
        assert info["transitions"] == len(want)
        levels = {}
        for sent in {e.sentence for e in trace.events()}:
            levels[sent.abstraction] = levels.get(sent.abstraction, 0) + 1
        assert info["sentences_by_level"] == levels

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, metadata={"study": "x", "n": 2}) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM)
        assert ColumnarTraceReader(path).meta == {"study": "x", "n": 2}


class TestOpenTrace:
    def test_open_trace_sniffs_magic(self, tmp_path):
        col = record(tmp_path, random_trace(1, events=40))
        assert type(open_trace(col.path)) is ColumnarTraceReader
        row = tmp_path / "old.rtrc"
        row.write_bytes(b"RTRC\x01" + bytes(40))
        with pytest.raises(CodecError, match="row-format .rtrc traces are retired"):
            open_trace(row)


class TestScanAPI:
    def test_scan_transitions_matches_filtered_replay(self, tmp_path):
        trace = random_trace(11, events=200, nodes=3)
        col = record(tmp_path, trace, segment_records=24)
        pat = SentencePattern(col.sentences[0].verb.name, ("?",) * len(col.sentences[0].nouns))
        for t_min, t_max in [(None, None), (0.0, None), (None, 0.02), (0.005, 0.05)]:
            want = [
                (e.time, e.kind, e.sentence, e.node_id)
                for e in scan_transitions(trace, matchers=[pat], t_min=t_min, t_max=t_max)
            ]
            got = [
                (e.time, e.kind, e.sentence, e.node_id)
                for e in scan_transitions(col, matchers=[pat], t_min=t_min, t_max=t_max)
            ]
            assert got == want

    def test_zone_map_pruning_skips_segments(self, tmp_path):
        trace = random_trace(5, events=300, nodes=2, sentences=20)
        col = record(tmp_path, trace, segment_records=16)
        rare = trace.events()[0].sentence
        sids = matching_sids(col.sentences, [lambda s: s == rare])
        assert len(col.prune_segments(sids=sids)) < len(col.segments)
        got = [(e.time, e.kind) for e in col.scan_transitions(sids=sids)]
        want = [(e.time, e.kind) for e in trace.events() if e.sentence == rare]
        assert got == want

    def test_filtered_intervals_equals_postfiltered(self, tmp_path):
        trace = random_trace(21, events=250, nodes=2)
        col = record(tmp_path, trace, segment_records=32)
        full = sentence_intervals(trace)
        target = sorted(full, key=str)[0]
        filt = filtered_intervals(col, matchers=[lambda s: s == target])
        assert filt == {target: full[target]}

    def test_segment_open_intervals_seed_flattened_starts(self, tmp_path):
        # a sentence held open across nodes and segments: the opener's stack
        # entry is popped but the flattened interval must keep its 0->1 start
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=2) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
            w.transition(2.0, EventKind.ACTIVATE, A_SUM, node_id=1)
            w.transition(3.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
            w.transition(4.0, EventKind.ACTIVATE, B_SUM, node_id=0)
            w.transition(5.0, EventKind.DEACTIVATE, A_SUM, node_id=1)
        r = ColumnarTraceReader(path)
        sid_a = r.sentences.index(A_SUM)
        last = len(r.segments) - 1
        open_at_last = r.segment_open_intervals(last)
        assert open_at_last[sid_a][1] == 1.0  # not 2.0: flattened start survives


class TestParallelIntervals:
    def test_inprocess_split_matches_serial(self, tmp_path):
        trace = random_trace(31, events=400, nodes=3)
        col = record(tmp_path, trace, segment_records=16)
        serial = sentence_intervals(col)
        # workers=1 short-circuits run() in-process while still exercising
        # the range split / snapshot seeding / concatenation merge
        got = parallel_intervals(col, runner=SweepRunner(workers=1))
        assert got == serial

    def test_multiprocess_matches_serial(self, tmp_path):
        trace = random_trace(41, events=400, nodes=3)
        col = record(tmp_path, trace, segment_records=16)
        serial = sentence_intervals(col)
        got = parallel_intervals(col, runner=SweepRunner(workers=2))
        assert got == serial

    def test_filtered_parallel_matches_filtered_serial(self, tmp_path):
        trace = random_trace(51, events=400, nodes=2)
        col = record(tmp_path, trace, segment_records=16)
        verb = col.sentences[0].verb.name
        pat = [lambda s, v=verb: s.verb.name == v]
        serial = filtered_intervals(col, matchers=pat)
        got = parallel_intervals(col, matchers=pat, runner=SweepRunner(workers=1))
        assert got == serial

    def test_jobs_kwarg_flows_through_retro(self, tmp_path):
        trace = random_trace(61, events=300, nodes=2)
        col = record(tmp_path, trace, segment_records=16)
        assert sentence_intervals(col, jobs=1) == sentence_intervals(trace)
        assert trace_stats(col, jobs=1) == trace_stats(trace)


class TestRetroOverColumnar:
    def test_questions_trace_vs_columnar(self, tmp_path):
        from repro.core import PerformanceQuestion

        trace = random_trace(71, events=250, nodes=2)
        col = record(tmp_path, trace, segment_records=32)
        sent = trace.events()[0].sentence
        pat = SentencePattern(sent.verb.name, tuple(n.name for n in sent.nouns))
        qs = [PerformanceQuestion("q", (pat,))]
        for end in (None, 1.0):
            a = evaluate_question_batch(trace, qs, end_time=end)
            b = evaluate_question_batch(col, qs, end_time=end)
            assert {k: vars(v) for k, v in a.items()} == {k: vars(v) for k, v in b.items()}

    def test_windowed_mappings_trace_vs_columnar(self, tmp_path):
        trace = random_trace(81, events=250, nodes=2)
        col = record(tmp_path, trace, segment_records=32)
        assert windowed_mappings(trace, window=0.001) == windowed_mappings(col, window=0.001)


class TestEmptyColumnar:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "e.rtrcx"
        with ColumnarTraceWriter(path):
            pass
        r = ColumnarTraceReader(path)
        assert r.is_empty
        assert r.time_bounds() is None
        assert r.last_transition_time() is None
        assert list(r.events()) == []
        assert r.info()["time_bounds"] is None
        assert sentence_intervals(r) == {}
        assert parallel_intervals(r, runner=SweepRunner(workers=1)) == {}

    def test_metric_only_trace_is_not_empty(self, tmp_path):
        path = tmp_path / "m.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.metric_sample(1.0, "cpu", "", 2.0)
        r = ColumnarTraceReader(path)
        assert not r.is_empty
        assert r.time_bounds() == (1.0, 1.0)  # bounds cover all record kinds
        assert r.last_transition_time() is None
        assert len(list(r.metric_samples())) == 1
