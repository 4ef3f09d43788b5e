"""Persistent trace store with retrospective mapping.

The run's dynamic record -- SAS transitions, metric samples, dynamic
mappings -- recorded to a chunked columnar ``.rtrcx`` file
(:class:`ColumnarTraceWriter`): time-sorted per-field segments with zone
maps and embedded SAS snapshots, read back via mmap with segment-local
seeks (:class:`ColumnarTraceReader`, opened by :func:`open_trace`), and
analyzed post-mortem: live-identical Figure-6 question evaluation,
lag-windowed dynamic mappings that recover Figure 7's asynchronous
activations, and per-sentence run diffs (:mod:`.retro`).  The common scan
API (:mod:`.scan`) gives every retrospective consumer pushdown filtering
and parallel segment scans.
"""

from .codec import CodecError
from .columnar import (
    ColumnarTraceReader,
    ColumnarTraceWriter,
    SegmentMeta,
    open_trace,
)
from .retro import (
    AttributionResult,
    RetroAnswer,
    SentenceStats,
    TraceDiff,
    WindowedMapping,
    diff_traces,
    evaluate_question_batch,
    parse_pattern,
    question_name,
    sentence_intervals,
    trace_stats,
    windowed_attribution,
    windowed_mappings,
)
from .scan import (
    filtered_intervals,
    matching_sids,
    parallel_intervals,
    question_sids,
    scan_transitions,
)
from .store import MappingEvent, MetricSample, SASState

__all__ = [
    "AttributionResult",
    "CodecError",
    "ColumnarTraceReader",
    "ColumnarTraceWriter",
    "MappingEvent",
    "MetricSample",
    "RetroAnswer",
    "SASState",
    "SegmentMeta",
    "SentenceStats",
    "TraceDiff",
    "WindowedMapping",
    "diff_traces",
    "evaluate_question_batch",
    "filtered_intervals",
    "matching_sids",
    "open_trace",
    "parallel_intervals",
    "parse_pattern",
    "question_name",
    "question_sids",
    "scan_transitions",
    "sentence_intervals",
    "trace_stats",
    "windowed_attribution",
    "windowed_mappings",
]
