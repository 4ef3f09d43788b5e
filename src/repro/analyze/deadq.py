"""Static question analysis: dead patterns and subsumption-redundant sets.

A performance question is a conjunction (or ordered vector) of sentence
patterns.  Whether a pattern can *ever* bind is decidable from the
declared nouns/verbs alone: a concrete verb nobody declares, a noun at
no level, or a component set whose declared levels have empty
intersection (sentences are single-level -- a sentence's abstraction is
its verb's level, and every study in this system builds same-level
sentences) can never match any sentence.  Questions built from such
patterns silently answer zero forever -- the exact failure mode the
paper's Figure-6 machinery makes invisible, and the one `repro serve`
subscribers hit when they typo a noun.

Two checks, two codes:

* **NV019 -- dead question**: some component pattern cannot bind given
  the declared vocabulary (the static form), or matches no sentence in
  a recorded trace's sentence table (the dynamic form used at serve
  subscribe time).
* **NV020 -- subsumption-redundant question**: within one question, a
  component that subsumes a sibling component adds no constraint; across
  a question set, a question implied by another (every component
  subsumes some component of the other) is satisfied whenever the other
  is -- for mapping-derived questions this is a shadowed mapping, a
  second attribution route for activity the broader rule already covers.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.questions import (
    WILDCARD,
    OrderedQuestion,
    PerformanceQuestion,
    SentencePattern,
    table_dead_patterns,
)
from ..pif.records import PIFDocument
from .diagnostics import Diagnostic, diag
from .nv import _rec_index

__all__ = [
    "DeclaredVocabulary",
    "pattern_dead_reason",
    "table_dead_patterns",
    "question_implied_by",
    "analyze_document_questions",
]


class DeclaredVocabulary:
    """The name->levels view of a document's declarations."""

    def __init__(self, doc: PIFDocument) -> None:
        self.levels: dict[str, int] = {}
        for lv in doc.levels:
            self.levels.setdefault(lv.name, lv.rank)
        self.nouns: dict[str, set[str]] = {}
        for d in doc.nouns:
            self.nouns.setdefault(d.name, set()).add(d.abstraction)
        self.verbs: dict[str, set[str]] = {}
        for d in doc.verbs:
            self.verbs.setdefault(d.name, set()).add(d.abstraction)


def pattern_dead_reason(pattern: SentencePattern, vocab: DeclaredVocabulary) -> str | None:
    """Why ``pattern`` can never bind, or None if it can.

    Exact against the single-level sentence model: a pattern binds iff
    some abstraction level declares its verb and all its nouns (the
    pattern's own level constraint included).
    """
    if pattern.level is not None and pattern.level not in vocab.levels:
        return f"level {pattern.level!r} is not declared"
    feasible: set[str] | None = None
    if pattern.level is not None:
        feasible = {pattern.level}
    if pattern.verb != WILDCARD:
        declared = vocab.verbs.get(pattern.verb)
        if declared is None:
            return f"verb {pattern.verb!r} is not declared at any level"
        feasible = declared if feasible is None else feasible & declared
        if not feasible:
            return (
                f"verb {pattern.verb!r} is not declared at level {pattern.level!r}"
            )
    for noun in pattern.nouns:
        if noun == WILDCARD:
            continue
        declared = vocab.nouns.get(noun)
        if declared is None:
            return f"noun {noun!r} is not declared at any level"
        if feasible is None:
            feasible = set(declared)
            continue
        narrowed = feasible & declared
        if not narrowed:
            return (
                f"noun {noun!r} (level(s) {sorted(declared)}) can never share a "
                f"sentence with the other components (level(s) {sorted(feasible)})"
            )
        feasible = narrowed
    return None


def question_implied_by(
    a: PerformanceQuestion | OrderedQuestion, b: PerformanceQuestion | OrderedQuestion
) -> bool:
    """True when satisfying ``b`` always satisfies ``a`` (conjunctions).

    Holds iff every component of ``a`` subsumes some component of ``b``.
    Ordered questions add a time constraint, so implication is only
    claimed between two plain conjunctions.
    """
    if not isinstance(a, PerformanceQuestion) or not isinstance(b, PerformanceQuestion):
        return False
    return all(
        any(pa.canonical().subsumes(pb.canonical()) for pb in b.components)
        for pa in a.components
    )


def _document_questions(doc: PIFDocument) -> list[tuple[int, PerformanceQuestion]]:
    """One conjunction question per distinct MAPPING record, with its record.

    Mirrors :func:`repro.mapdsl.scenario.questions_from_document` (kept
    import-free to avoid a package cycle): a mapping asks for destination
    activity while the source is active.
    """
    out: list[tuple[int, PerformanceQuestion]] = []
    seen = set()
    for i, md in enumerate(doc.mappings):
        if md in seen:
            continue
        seen.add(md)
        out.append(
            (
                _rec_index(doc, "mappings", i),
                PerformanceQuestion(
                    f"{md.source} -> {md.destination}",
                    (
                        SentencePattern(md.source.verb, md.source.nouns),
                        SentencePattern(md.destination.verb, md.destination.nouns),
                    ),
                ),
            )
        )
    return out


def analyze_document_questions(doc: PIFDocument, path: str = "") -> list[Diagnostic]:
    """NV019/NV020 over a document's mapping-derived question set."""
    out: list[Diagnostic] = []
    vocab = DeclaredVocabulary(doc)
    questions = _document_questions(doc)

    for rec, q in questions:
        for pattern in q.components:
            reason = pattern_dead_reason(pattern, vocab)
            if reason is not None:
                out.append(
                    diag(
                        "NV019",
                        f"dead question {q.name}: pattern {pattern} can never bind "
                        f"({reason})",
                        path,
                        record=rec,
                    )
                )
                break  # one dead component already kills the question

    for rec, q in questions:
        # a component subsuming a sibling adds no constraint
        canon = [p.canonical() for p in q.components]
        flagged = False
        for i, pi in enumerate(canon):
            for j, pj in enumerate(canon):
                if i != j and pi is not pj and pi.subsumes(pj):
                    out.append(
                        diag(
                            "NV020",
                            f"question {q.name}: component {q.components[i]} subsumes "
                            f"{q.components[j]} and adds no constraint",
                            path,
                            record=rec,
                        )
                    )
                    flagged = True
                    break
            if flagged:
                break
        if flagged:
            continue
        # set-equal conjunctions (e.g. a mapping and its reverse record)
        # are the *same* question -- the engine dedups them into one
        # watcher -- so only strictly-more-general questions are flagged
        mine = frozenset(canon)
        for other_rec, other in questions:
            if other_rec == rec or frozenset(
                p.canonical() for p in other.components
            ) == mine:
                continue
            if question_implied_by(q, other):
                out.append(
                    diag(
                        "NV020",
                        f"question {q.name} is implied by {other.name}: every "
                        "component subsumes one of its components, so it is "
                        "satisfied whenever the other is (shadowed mapping)",
                        path,
                        record=rec,
                    )
                )
                break
    return out


def analyze_question_set(
    questions: Iterable[PerformanceQuestion | OrderedQuestion],
    vocab: DeclaredVocabulary,
    path: str = "",
) -> list[Diagnostic]:
    """NV019/NV020 over an arbitrary (e.g. subscribed) question set."""
    out: list[Diagnostic] = []
    qs = list(questions)
    for q in qs:
        if not isinstance(q, (PerformanceQuestion, OrderedQuestion)):
            continue
        for pattern in q.components:
            reason = pattern_dead_reason(pattern, vocab)
            if reason is not None:
                out.append(
                    diag(
                        "NV019",
                        f"dead question {q.name}: pattern {pattern} can never bind "
                        f"({reason})",
                        path,
                    )
                )
                break
    for i, q in enumerate(qs):
        if not isinstance(q, PerformanceQuestion):
            continue
        mine = frozenset(p.canonical() for p in q.components)
        for j, other in enumerate(qs):
            if i == j or not isinstance(other, PerformanceQuestion):
                continue
            theirs = frozenset(p.canonical() for p in other.components)
            if mine != theirs and question_implied_by(q, other):
                out.append(
                    diag(
                        "NV020",
                        f"question {q.name} is implied by {other.name}",
                        path,
                    )
                )
                break
    return out
