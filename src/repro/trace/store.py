"""Decoded trace values shared by the trace reader and its consumers.

:class:`SASState` is the full multi-node SAS activation state at one
instant (what ``seek`` returns and the linear-replay reference builds);
:class:`MetricSample` and :class:`MappingEvent` are the decoded metric and
dynamic-mapping records; :func:`map_readonly` is the read-only ``mmap``
the reader decodes from.  The on-disk format itself lives in
:mod:`repro.trace.columnar`.
"""

from __future__ import annotations

import mmap
from typing import Any, Iterable

from ..core import EventKind, Sentence, SentenceEvent
from ..core.mapping import MappingOrigin

__all__ = [
    "SASState",
    "MetricSample",
    "MappingEvent",
    "map_readonly",
]

#: sentinel distinguishing "no node filter" from "node None"
ALL_NODES = object()


def map_readonly(path: str):
    """``mmap`` a file read-only for the trace reader.

    Returns a buffer the codec helpers can index/slice without ever
    loading the whole file into the process (``info`` on a multi-GB trace
    touches only the pages the footer lives on).  Zero-length files --
    which ``mmap`` rejects -- fall back to the empty bytes object; they
    fail the magic check with a clean :class:`CodecError` either way.
    """
    with open(path, "rb") as fh:
        try:
            # the mapping stays valid after the descriptor closes
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return fh.read()


class SASState:
    """Full multi-node SAS activation state at one instant.

    ``nodes`` maps ``node_id -> {sentence: [activation times]}`` -- the same
    multiset-of-stacks shape :class:`~repro.core.sas.ActiveSentenceSet`
    keeps live, per recording node.  Equality compares the complete state
    (membership, depths, and exact activation times) order-insensitively,
    which is what the seek-vs-linear-replay property asserts.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: dict[Any, dict[Sentence, list[float]]] = {}

    def apply_transition(
        self, sent: Sentence, activate: bool, time: float, node_id: int | None
    ) -> None:
        per = self.nodes.setdefault(node_id, {})
        if activate:
            per.setdefault(sent, []).append(time)
        else:
            stack = per.get(sent)
            if not stack:
                raise ValueError(
                    f"deactivate without activate for {sent} on node {node_id}"
                )
            stack.pop()
            if not stack:
                del per[sent]
                if not per:
                    # no empty-node residue: state reached by any replay path
                    # (from the start, or from a snapshot) compares equal
                    del self.nodes[node_id]

    def apply(self, event: SentenceEvent) -> None:
        self.apply_transition(
            event.sentence, event.kind is EventKind.ACTIVATE, event.time, event.node_id
        )

    def active(self, node: Any = ALL_NODES) -> tuple[Sentence, ...]:
        """Active sentences, in first-recorded order (deduplicated)."""
        if node is not ALL_NODES:
            return tuple(self.nodes.get(node, {}))
        seen: dict[Sentence, None] = {}
        for per in self.nodes.values():
            for sent in per:
                seen.setdefault(sent, None)
        return tuple(seen)

    def depth(self, sent: Sentence, node: Any = ALL_NODES) -> int:
        if node is not ALL_NODES:
            return len(self.nodes.get(node, {}).get(sent, ()))
        return sum(len(per.get(sent, ())) for per in self.nodes.values())

    def total_activations(self) -> int:
        return sum(len(stack) for per in self.nodes.values() for stack in per.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SASState):
            return NotImplemented
        return self.nodes == other.nodes

    def __repr__(self) -> str:
        per = {n: len(s) for n, s in self.nodes.items()}
        return f"SASState(nodes={per})"

    @classmethod
    def from_events(cls, events: Iterable[SentenceEvent], time: float) -> "SASState":
        """Linear-replay reference: state after all events with t <= ``time``."""
        state = cls()
        for event in events:
            if event.time > time:
                break
            state.apply(event)
        return state


class MetricSample:
    """One decoded metric sample record."""

    __slots__ = ("time", "name", "focus", "value", "units")

    def __init__(self, time: float, name: str, focus: str, value: float, units: str):
        self.time = time
        self.name = name
        self.focus = focus
        self.value = value
        self.units = units

    def __repr__(self) -> str:
        return f"MetricSample({self.time:.6g}, {self.name}{self.focus}, {self.value:.6g})"


class MappingEvent:
    """One decoded dynamic-mapping record."""

    __slots__ = ("time", "source", "destination", "origin")

    def __init__(
        self, time: float, source: Sentence, destination: Sentence, origin: MappingOrigin
    ):
        self.time = time
        self.source = source
        self.destination = destination
        self.origin = origin

    def __repr__(self) -> str:
        return f"MappingEvent({self.time:.6g}, {self.source} -> {self.destination})"
