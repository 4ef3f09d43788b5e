"""The Performance Consultant: automated bottleneck search.

Section 5 mentions Paradyn's "automated module (called the Performance
Consultant) to help users find performance problems."  The reproduction
implements a two-phase why/where search in the W3 spirit:

1. **why** -- run the program with whole-program activity timers inserted
   and test hypotheses ("communication bound", "idle bound", ...) against a
   threshold fraction of machine capacity;
2. **where** -- for each confirmed hypothesis, re-run the (deterministic)
   program with the hypothesis metric constrained to each parallel array
   focus, reporting the arrays responsible.

Each phase is a separate execution: the simulator is deterministic, so
re-running with refined instrumentation is the batch equivalent of Paradyn
refining instrumentation mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cmfortran.program import CompiledProgram
from .tool import Paradyn

__all__ = ["Hypothesis", "Finding", "PerformanceConsultant"]


@dataclass(frozen=True)
class Hypothesis:
    """A whole-program performance hypothesis tested against capacity."""

    name: str
    metric: str
    description: str
    refinable_by_array: bool = True


DEFAULT_HYPOTHESES = (
    Hypothesis(
        "ExcessiveCommunication",
        "point_to_point_time",
        "too much time in inter-node messages",
    ),
    Hypothesis(
        "ExcessiveIdle",
        "idle_time",
        "nodes wait too long for the control processor",
        refinable_by_array=False,
    ),
    Hypothesis(
        "ComputeBound", "computation_time", "elementwise computation dominates"
    ),
    Hypothesis(
        "ReductionBound", "reduction_time", "array reductions dominate"
    ),
    Hypothesis(
        "TransformBound",
        "transformation_time",
        "array motion (shifts/transposes) dominates",
    ),
    Hypothesis(
        "SortBound", "sort_time", "parallel sorting dominates"
    ),
    Hypothesis(
        "ArgumentProcessingBound",
        "argument_processing_time",
        "argument broadcast handling dominates",
        refinable_by_array=False,
    ),
)

#: fraction by which the slowest node's computation time may exceed the mean
IMBALANCE_THRESHOLD = 0.25


@dataclass
class Finding:
    """One confirmed hypothesis at one focus."""

    hypothesis: str
    focus: str
    value: float
    fraction: float
    description: str
    children: list["Finding"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = (
            f"{pad}{self.hypothesis} @ {self.focus}: "
            f"{self.value:.6g}s ({self.fraction:.1%} of capacity) -- {self.description}"
        )
        return "\n".join([line, *(c.render(indent + 1) for c in self.children)])


class PerformanceConsultant:
    """Automated two-phase search over hypotheses x foci."""

    def __init__(
        self,
        program: CompiledProgram,
        num_nodes: int = 4,
        threshold: float = 0.15,
        refine_threshold: float = 0.05,
        hypotheses: tuple[Hypothesis, ...] = DEFAULT_HYPOTHESES,
        **tool_kwargs,
    ):
        self.program = program
        self.num_nodes = num_nodes
        self.threshold = threshold
        self.refine_threshold = refine_threshold
        self.hypotheses = hypotheses
        self.tool_kwargs = tool_kwargs
        self.runs = 0

    def _fresh_tool(self) -> Paradyn:
        self.runs += 1
        return Paradyn(self.program, num_nodes=self.num_nodes, **self.tool_kwargs)

    # ------------------------------------------------------------------
    def search(self, refine: bool = True) -> list[Finding]:
        """Run the why phase, then (optionally) refine by array."""
        tool = self._fresh_tool()
        instances = {
            h.name: tool.request_metric(h.metric) for h in self.hypotheses
        }
        tool.run()
        capacity = tool.elapsed * self.num_nodes
        findings: list[Finding] = []
        for h in self.hypotheses:
            value = instances[h.name].value()
            fraction = value / capacity if capacity else 0.0
            if fraction >= self.threshold:
                findings.append(
                    Finding(h.name, "<whole program>", value, fraction, h.description)
                )

        # load imbalance: per-node computation times diverge
        comp = next(
            (inst for h, inst in instances.items() if h == "ComputeBound"), None
        )
        if comp is not None:
            per_node = [comp.value(i) for i in range(self.num_nodes)]
            mean = sum(per_node) / len(per_node)
            worst = max(per_node)
            if mean > 0 and (worst - mean) / mean >= IMBALANCE_THRESHOLD:
                slow = per_node.index(worst)
                findings.append(
                    Finding(
                        "LoadImbalance",
                        f"node {slow}",
                        worst - mean,
                        (worst - mean) / mean,
                        f"node {slow} computes {(worst - mean) / mean:.0%} "
                        "longer than the mean node",
                    )
                )
        refinable = [
            f for f in findings
            if (h := self._hypo(f.hypothesis)) is not None and h.refinable_by_array
        ]
        if refine and refinable:
            self._refine_by_array(findings)
        findings.sort(key=lambda f: -f.fraction)
        return findings

    def _hypo(self, name: str) -> Hypothesis | None:
        """The declared hypothesis, or None for synthesized findings
        (e.g. LoadImbalance)."""
        return next((h for h in self.hypotheses if h.name == name), None)

    def _refine_by_array(self, findings: list[Finding]) -> None:
        """Where phase: one re-run measuring each hypothesis per array."""
        arrays = sorted(self.program.symbols.arrays)
        if not arrays:
            return
        tool = self._fresh_tool()
        per_focus = {}
        for finding in findings:
            h = self._hypo(finding.hypothesis)
            if h is None or not h.refinable_by_array:
                continue
            for arr in arrays:
                per_focus[(finding.hypothesis, arr)] = tool.request_metric(
                    h.metric, focus={"array": arr}
                )
        if not per_focus:
            return
        tool.run()
        capacity = tool.elapsed * self.num_nodes
        for finding in findings:
            for arr in arrays:
                inst = per_focus.get((finding.hypothesis, arr))
                if inst is None:
                    continue
                value = inst.value()
                fraction = value / capacity if capacity else 0.0
                if fraction >= self.refine_threshold:
                    finding.children.append(
                        Finding(
                            finding.hypothesis,
                            f"array {arr}",
                            value,
                            fraction,
                            f"share attributable to {arr}",
                        )
                    )
            finding.children.sort(key=lambda f: -f.fraction)

    def report(self, findings: list[Finding]) -> str:
        if not findings:
            return "Performance Consultant: no hypothesis exceeded the threshold."
        lines = ["Performance Consultant findings:"]
        lines += [f.render(1) for f in findings]
        lines.append(f"(search used {self.runs} program execution(s))")
        return "\n".join(lines)
