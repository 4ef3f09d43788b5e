"""Paradyn daemons: the per-node agents between application and tool.

Section 5: "Paradyn daemons import static mapping information via PIF files
just after they load each application executable" and "the dynamic
instrumentation library sends the mapping information to the Paradyn
daemons, and the daemons forward the mapping information to the Data
Manager."

In the reproduction the daemons are thin in-process forwarders, but the
layering is kept: the runtime's mapping points talk to a daemon, the daemon
talks to the Data Manager, and both static and dynamic records arrive at the
Data Manager through the same interface.
"""

from __future__ import annotations

from ..cmrts.alloc import AllocationEvent
from ..core import ActiveSentenceSet, Mapping
from ..pif import PIFDocument
from .datamgr import DataManager

__all__ = ["Daemon"]


class Daemon:
    """One per-node daemon owning that node's SAS."""

    def __init__(self, node_id: int, sas: ActiveSentenceSet | None, datamgr: DataManager):
        self.node_id = node_id
        self.sas = sas
        self.datamgr = datamgr
        self.forwarded_static = 0
        self.forwarded_dynamic = 0

    def import_pif(self, doc: PIFDocument) -> None:
        """Static channel: load a PIF file into the Data Manager."""
        self.datamgr.load_pif(doc)
        self.forwarded_static += len(doc)

    def forward_allocation(self, event: AllocationEvent) -> None:
        """Dynamic channel: forward a mapping-point record."""
        self.forwarded_dynamic += 1
        if event.kind == "allocate":
            self.datamgr.on_allocation(event)
        else:
            self.datamgr.on_deallocation(event)

    def forward_mapping(self, mapping: Mapping) -> None:
        """Dynamic channel: forward a discovered sentence mapping."""
        self.forwarded_dynamic += 1
        self.datamgr.add_dynamic_mapping(mapping)
