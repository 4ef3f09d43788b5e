"""Seeded input generation for the four benchmark workloads.

Everything the program under test sees is made here from ``--seed``: CMF
sources, ``Query`` lists and ``FaultPlan`` settings, trace files and
question JSON.  The same seed gives byte-identical files; the manifest
carries a sha256 of each so the runner can check that.

Run as a fresh process by the runner's set-up step (so set-up time
includes interpreter start and the imports the workload's caller needs)::

    python3 perfbench/inputs.py --workload measure --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: measure: programs drawn per seed, about one run's worth
PROGRAMS = 512
#: measure: every this-many-th program is a generator program, in rotation,
#: so each seed has the same mix of program families
GENERATOR_EVERY = 4
#: record: distinct sessions drawn per seed, about one run's worth
SESSIONS = 64
RECORD_CLIENTS = 4
RECORD_QUERIES = 120
RECORD_FUNCTIONS = 200
#: query: trace shape and question pool
QUERY_PHASES = 300
QUERY_NODES = 4
QUERY_SEGMENT_RECORDS = 1024
QUERY_SELECTIVE = 72
QUERY_BROAD = 8
#: one pair in this many is (broad, selective); the rest are selective
QUERY_BROAD_EVERY = 5


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(seed: int, out: Path) -> dict:
    from repro.cmfortran import compile_source
    from repro.core import PerformanceQuestion
    from repro.dbsim import Query, run_db_study
    from repro.mdl import FIGURE9_ROWS
    from repro.trace import ColumnarTraceWriter, open_trace, parse_pattern
    from repro.trace.retro import evaluate_question_batch

    rng = random.Random(seed)
    clients = rng.randint(2, 3)
    queries = [Query(f"Q{i}", disk_reads=rng.randint(1, 4)) for i in range(rng.randint(6, 10))]
    trace = out / "small.rtrcx"
    with ColumnarTraceWriter(trace, metadata={"seed": seed, "study": "db"}) as writer:
        run_db_study(queries, num_clients=clients, recorder=writer)
    patterns = [f"{{{rng.choice(queries).name} QueryActive}}", "{server0 DiskRead}"]
    name = " & ".join(patterns)
    question = PerformanceQuestion(name, tuple(parse_pattern(p) for p in patterns))
    reader = open_trace(trace)
    answer = evaluate_question_batch(reader, [question])[name]
    reader.close()
    heat = compile_source((ROOT / "examples" / "heat.cmf").read_text(), "heat.cmf")
    return {
        "trace": trace.name,
        "trace_transitions": writer.transitions,
        "patterns": patterns,
        "expected": [answer.satisfied_time, answer.transitions, answer.satisfied_at_end],
        "heat_blocks": len(heat.plan.blocks),
        "metric_rows": len(FIGURE9_ROWS),
        "sizes": {"db_clients": clients, "db_queries": len(queries)},
    }


def _measure(seed: int, out: Path) -> dict:
    from repro import workloads as w

    rng = random.Random(seed)
    generators = [
        lambda: w.elementwise_chain(size=rng.choice([256, 512, 1024]), statements=rng.randint(4, 10)),
        lambda: w.reduction_mix(size=rng.choice([256, 512, 1024])),
        lambda: w.stencil(size=rng.choice([256, 512]), iterations=rng.randint(2, 5)),
        lambda: w.transform_mix(size=rng.choice([64, 128, 256])),
        lambda: w.sort_workload(size=rng.choice([256, 512])),
        lambda: w.skewed_pair(size=rng.choice([1024, 2048])),
        lambda: w.full_verb_mix(size=rng.choice([200, 400])),
    ]
    (out / "programs").mkdir()
    names = []
    for i in range(PROGRAMS):
        if i % GENERATOR_EVERY == GENERATOR_EVERY - 1:
            source = generators[(i // GENERATOR_EVERY) % len(generators)]()
        else:
            source = w.random_program(rng.randrange(2**31))
        name = f"programs/p{i:03d}.cmf"
        (out / name).write_text(source, encoding="utf-8")
        names.append(name)
    return {"programs": names, "sizes": {"programs": PROGRAMS, "nodes": 8}}


def _record(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    sessions = []
    for _ in range(SESSIONS):
        sessions.append(
            {
                "clients": RECORD_CLIENTS,
                "queries": [[f"Q{i}", rng.randint(1, 4)] for i in range(RECORD_QUERIES)],
                "fault_plan": {
                    "drop": 0.02,
                    "duplicate": 0.02,
                    "delay": 0.05,
                    "seed": rng.randrange(2**31),
                },
                "script": [[f"f{i}", rng.randint(0, 3)] for i in range(RECORD_FUNCTIONS)],
            }
        )
    (out / "sessions.json").write_text(json.dumps(sessions), encoding="utf-8")
    return {
        "sessions": "sessions.json",
        "sizes": {
            "sessions": SESSIONS,
            "clients": RECORD_CLIENTS,
            "queries": RECORD_QUERIES,
            "live_questions": RECORD_QUERIES + RECORD_CLIENTS,
            "functions": RECORD_FUNCTIONS,
        },
    }


def _query_trace(rng: random.Random, path: Path) -> int:
    """A long trace whose per-phase sentences are active in short windows.

    Phase ``k`` pulses ``{blk<k> Exec}@Base`` and ``{arr<k> Reduce}@CMF``
    only inside ``[k, k + 1.2)``; ``{node<i> Busy}@Base`` pulses for the
    whole run.  Small segments make zone maps prune a phase question down
    to one or two segments, while a question over ``Busy`` or a whole
    level scans them all.
    """
    from repro.core import AbstractionLevel, EventKind, Noun, Sentence, Verb, Vocabulary
    from repro.trace import ColumnarTraceWriter

    vocab = Vocabulary.with_levels([AbstractionLevel(0, "Base"), AbstractionLevel(1, "CMF")])
    execute = vocab.add_verb(Verb("Exec", "Base"))
    reduce_ = vocab.add_verb(Verb("Reduce", "CMF"))
    busy = vocab.add_verb(Verb("Busy", "Base"))
    events = []

    def pulses(sent, node, t, until, gap, width):
        while True:
            on = t + rng.uniform(*gap)
            off = on + rng.uniform(*width)
            if off >= until:
                return
            events.append((on, 1, sent, node))
            events.append((off, 0, sent, node))
            t = off

    for k in range(QUERY_PHASES):
        a = Sentence(execute, (vocab.add_noun(Noun(f"blk{k}", "Base")),))
        b = Sentence(reduce_, (vocab.add_noun(Noun(f"arr{k}", "CMF")),))
        pulses(a, k % QUERY_NODES, float(k), k + 1.2, (0.001, 0.02), (0.001, 0.03))
        pulses(b, (k + 1) % QUERY_NODES, float(k), k + 1.2, (0.001, 0.02), (0.001, 0.03))
    for i in range(QUERY_NODES):
        s = Sentence(busy, (vocab.add_noun(Noun(f"node{i}", "Base")),))
        pulses(s, i, 0.0, float(QUERY_PHASES), (0.01, 0.2), (0.01, 0.2))
    events.sort(key=lambda e: (e[0], e[1]))
    kinds = (EventKind.DEACTIVATE, EventKind.ACTIVATE)
    with ColumnarTraceWriter(
        path, segment_records=QUERY_SEGMENT_RECORDS, metadata={"study": "perfbench-query"}
    ) as writer:
        for t, kind, sent, node in events:
            writer.transition(t, kinds[kind], sent, node)
    return writer.transitions


def _query_questions(rng: random.Random) -> list[dict]:
    """Distinct questions, laid out so consecutive pairs form the batches."""
    phases = rng.sample(range(QUERY_PHASES), QUERY_SELECTIVE)
    selective = [
        {"name": f"phase{k}", "patterns": [f"{{blk{k} Exec}}", f"{{arr{k} Reduce}}"]}
        for k in phases
    ]
    # every broad question replays all of one level's events, so the
    # broad batches form one cost class and latency_p90 sits inside it
    broad = [
        {"name": f"level{i}", "patterns": [("{? Exec}@Base", "{? Reduce}@CMF")[i % 2],
                                           f"{{node{i // 2 % QUERY_NODES} Busy}}"]}
        for i in range(QUERY_BROAD)
    ]
    rng.shuffle(broad)
    pairs = []
    while selective:
        if len(pairs) % QUERY_BROAD_EVERY == QUERY_BROAD_EVERY - 1 and broad:
            pairs.append([broad.pop(), selective.pop()])
        else:
            pairs.append([selective.pop(), selective.pop()])
    return [q for pair in pairs for q in pair]


def _query(seed: int, out: Path) -> dict:
    from repro.core import PerformanceQuestion
    from repro.trace import open_trace, parse_pattern
    from repro.trace.retro import evaluate_question_batch

    rng = random.Random(seed)
    trace = out / "large.rtrcx"
    transitions = _query_trace(rng, trace)
    questions = _query_questions(rng)
    (out / "questions.json").write_text(json.dumps(questions), encoding="utf-8")
    reader = open_trace(trace)
    segments = len(reader.segments)
    answers = evaluate_question_batch(
        reader,
        [
            PerformanceQuestion(q["name"], tuple(parse_pattern(p) for p in q["patterns"]))
            for q in questions
        ],
    )
    reader.close()
    expected = {
        name: [a.satisfied_time, a.transitions, a.satisfied_at_end] for name, a in answers.items()
    }
    return {
        "trace": trace.name,
        "questions": "questions.json",
        "expected": expected,
        "broad_every": QUERY_BROAD_EVERY,
        "sizes": {
            "transitions": transitions,
            "segments": segments,
            "questions": len(questions),
            "broad_questions": sum(not q["name"].startswith("phase") for q in questions),
            "connections": 2,
        },
    }


PREPARE = {"cli": _cli, "measure": _measure, "record": _record, "query": _query}


def prepare(workload: str, seed: int, out: Path) -> dict:
    """Generate ``workload``'s inputs into the empty directory ``out``."""
    import workloads  # noqa: F401  (set-up pays for the caller's imports)

    manifest = {"workload": workload, "seed": seed, **PREPARE[workload](seed, out)}
    manifest["files"] = {
        str(p.relative_to(out)): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()
    }
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PREPARE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="empty directory for the inputs")
    args = parser.parse_args(argv)
    out = Path(args.out)
    manifest = prepare(args.workload, args.seed, out)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
