"""The Data Manager: where all mapping information converges.

Section 5: Paradyn daemons import *static* mapping information from PIF
files just after loading each executable; the dynamic instrumentation
library sends *dynamic* mapping information over the same channel used for
performance data, and "the Data Manager uses the dynamic mapping information
in exactly the same way as it uses static mapping information."

The Data Manager therefore owns:

* the :class:`~repro.core.nouns.Vocabulary` (levels/nouns/verbs from every
  source);
* the :class:`~repro.core.mapping.MappingGraph` (static records from PIF,
  dynamic records from mapping points and SAS co-activity);
* the where axis built from both;
* cost attribution: given measured base-level costs, apply a
  split/merge policy over the mapping graph (Figure 1).
"""

from __future__ import annotations

from typing import Iterable

from ..cmrts.alloc import AllocationEvent
from ..cmrts.nv import standard_vocabulary
from ..core import (
    AssignmentPolicy,
    Attribution,
    CostVector,
    Mapping,
    MappingGraph,
    MappingOrigin,
    Noun,
    Sentence,
    Vocabulary,
    assign_costs,
)
from ..pif import PIFDocument
from .whereaxis import WhereAxis

__all__ = ["DataManager"]


class DataManager:
    """Merges static and dynamic mapping information; answers queries."""

    def __init__(self, vocabulary: Vocabulary | None = None):
        self.vocabulary = vocabulary or standard_vocabulary()
        self.graph = MappingGraph()
        self.where_axis = WhereAxis()
        self.array_distribution: dict[str, list[tuple[int, tuple[int, int]]]] = {}
        self.static_records = 0
        self.dynamic_records = 0
        self._source_file = ""
        self._program_name = ""
        # forwarding buses whose delivery counters we export as metrics;
        # duck-typed (anything with a metrics() -> dict) rather than a
        # repro.dbsim annotation to keep paradyn free of a dbsim import
        self._forwarding_buses: list = []

    # ------------------------------------------------------------------
    # forwarding-bus channel (Section 4.2.3 cross-node SAS transport)
    # ------------------------------------------------------------------
    def attach_forwarding_bus(self, bus) -> None:
        """Register a SAS forwarding bus for metric export.

        ``bus`` needs only a ``metrics() -> dict[str, float]`` method
        (satisfied by :class:`repro.dbsim.bus.ForwardingBus`).
        """
        self._forwarding_buses.append(bus)

    def forwarding_metrics(self) -> dict[str, float]:
        """Combined delivery counters over every attached bus.

        Counter-like metrics (``fwd_messages_sent``, ``fwd_retries``, ...)
        sum across buses; ``fwd_max_gap`` and ``fwd_latency_max`` take the
        max; ``fwd_latency_mean`` is re-weighted by each bus's applied
        transition count.
        """
        out: dict[str, float] = {}
        if not self._forwarding_buses:
            return out
        max_keys = {"fwd_max_gap", "fwd_latency_max"}
        weighted_lat = 0.0
        applied = 0.0
        for bus in self._forwarding_buses:
            m = bus.metrics()
            n = m.get("fwd_transitions_applied", 0.0)
            weighted_lat += m.get("fwd_latency_mean", 0.0) * n
            applied += n
            for key, value in m.items():
                if key == "fwd_latency_mean":
                    continue
                if key in max_keys:
                    out[key] = max(out.get(key, 0.0), value)
                else:
                    out[key] = out.get(key, 0.0) + value
        out["fwd_latency_mean"] = weighted_lat / applied if applied else 0.0
        return out

    # ------------------------------------------------------------------
    # static channel (PIF files, Section 3 / Section 5)
    # ------------------------------------------------------------------
    def load_pif(self, doc: PIFDocument) -> None:
        """Import a PIF document: definitions, mappings, where-axis rows."""
        doc.build_vocabulary(into=self.vocabulary)
        before = len(self.graph)
        doc.resolve_mappings(self.vocabulary, into=self.graph)
        self.static_records += len(doc)
        for noun in doc.nouns:
            if noun.abstraction == "CM Fortran" and noun.name.startswith("line"):
                source = noun.description.rsplit(" ", 1)[-1] if "source file" in noun.description else "<src>"
                self._source_file = source
                self.where_axis.add_path(
                    [("CMFstmts", "hierarchy"), (source, "module"), (noun.name, "statement")],
                    payload=noun,
                )
            elif noun.abstraction == "Base":
                self.where_axis.add_path(
                    [("Base", "hierarchy"), (noun.name, "function")], payload=noun
                )
        _ = before

    # ------------------------------------------------------------------
    # dynamic channel (mapping points, Section 4)
    # ------------------------------------------------------------------
    def on_allocation(self, event: AllocationEvent) -> None:
        """Mapping-point callback: a parallel array was allocated.

        Defines the array noun (if PIF didn't), its per-node subregion
        nouns, and the CMFarrays hierarchy entries of Figure 8; records the
        data-to-processor mapping for directing per-array SAS requests.
        """
        array = event.array
        self.dynamic_records += 1
        noun = Noun(array.name, "CM Fortran", f"parallel array {array.name} {array.shape}")
        self.vocabulary.add_noun(noun)
        self.array_distribution[array.name] = [
            (p, rng) for p, rng in enumerate(array.ranges)
        ]
        module = self._source_file or "<src>"
        function = array.owner or self._program_name or "MAIN"
        base = [
            ("CMFarrays", "hierarchy"),
            (module, "module"),
            (function, "function"),
            (array.name, "array"),
        ]
        self.where_axis.add_path(base, payload=noun)
        for p in range(array.num_nodes):
            lo, hi = array.ranges[p]
            if hi <= lo:
                continue
            self.where_axis.add_path(
                base + [(array.subregion_description(p), "subregion")],
                payload=(array.name, p, (lo, hi)),
            )

    def on_deallocation(self, event: AllocationEvent) -> None:
        self.dynamic_records += 1
        self.array_distribution.pop(event.array.name, None)

    def add_dynamic_mapping(self, mapping: Mapping) -> None:
        """Dynamic mapping record (e.g. from SAS co-activity discovery)."""
        if self.graph.add(
            Mapping(mapping.source, mapping.destination, MappingOrigin.DYNAMIC)
        ):
            self.dynamic_records += 1

    def register_machine(self, num_nodes: int) -> None:
        """Populate the CMRTS and Base processor hierarchies."""
        for p in range(num_nodes):
            self.where_axis.add_path(
                [("CMRTS", "hierarchy"), (f"node{p}", "node")], payload=p
            )
            self.where_axis.add_path(
                [("Base", "hierarchy"), (f"Processor_{p}", "processor")], payload=p
            )

    def set_program(self, name: str, source_file: str) -> None:
        self._program_name = name
        self._source_file = source_file

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes_holding(self, array: str) -> list[int]:
        """Which nodes hold part of ``array`` (for per-array SAS requests)."""
        dist = self.array_distribution.get(array)
        if dist is None:
            raise KeyError(f"no distribution known for array {array!r}")
        return [p for p, (lo, hi) in dist if hi > lo]

    def upward(self, sentence: Sentence) -> list[Sentence]:
        """All higher-level sentences a measurement for ``sentence`` informs."""
        return self.graph.closure_up(sentence)

    def downward(self, sentence: Sentence) -> list[Sentence]:
        """All sentences that implement ``sentence``.

        The paper's techniques "are independent of mapping direction": the
        same records answer "which compiler-generated functions implement
        source line N?" by walking mappings backwards.
        """
        return self.graph.closure_down(sentence)

    def implementing_functions(self, line: int) -> list[str]:
        """Base-level function names implementing source line ``line``."""
        target = Sentence(
            self.vocabulary.verb("CM Fortran", "Executes"),
            (self.vocabulary.noun("CM Fortran", f"line{line}"),),
        )
        return sorted(
            s.nouns[0].name
            for s in self.graph.closure_down(target)
            if s.abstraction == "Base"
        )

    def attribute(
        self,
        measured: Iterable[tuple[Sentence, CostVector]],
        policy: AssignmentPolicy,
        aggregate: str = "sum",
    ) -> Attribution:
        """Assign measured base costs to high-level structure (Figure 1)."""
        return assign_costs(measured, self.graph, policy, aggregate)
