"""The four workloads: one caller each, in a closed loop.

Each workload turns generated inputs (see ``inputs.py``) into ops.
``run_op`` does and times one op; ``check`` then verifies its output
outside the timed region and returns an error message or ``None``.
Importing this module imports every ``repro`` layer the in-process
callers use, so the set-up step, which imports it in a fresh process,
pays for those imports.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
from repro.cli import main as repro_main
from repro.cmfortran import compile_source, interpret
from repro.core import PerformanceQuestion, SentencePattern
from repro.dbsim import Query, run_db_study
from repro.dbsim.bus import FaultPlan
from repro.mdl import FIGURE9_ROWS
from repro.paradyn import Paradyn
from repro.pif import generate_pif
from repro.trace import ColumnarTraceWriter, open_trace
from repro.trace.retro import evaluate_question_batch
from repro.unixsim import FunctionSpec, run_figure7_study

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a child process that runs longer than this is killed and its op fails
CHILD_TIMEOUT_S = 60.0


@dataclass
class OpResult:
    seconds: float  # caller time for the whole op
    samples: list[float]  # latency samples, in seconds
    output: object  # what the check inspects
    counts: dict[str, float] = field(default_factory=dict)


def run_child(argv: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run a child to completion; returns (exit code, output, seconds, rusage)."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), seconds, usage


def usage_counts(usage, hwm_file: Path) -> dict[str, float]:
    """A launcher child's faults and switches (``wait4``) and peak RSS."""
    return {
        "maxrss_kib": float(hwm_file.read_text(encoding="ascii")) if hwm_file.exists() else 0.0,
        "minor_faults": usage.ru_minflt,
        "ctx_switches": usage.ru_nvcsw + usage.ru_nivcsw,
    }


class Workload:
    """One workload's caller; subclasses implement ``run_op`` and ``check``."""

    #: ops per full pass over a fixed command cycle; runs end on a boundary
    cycle = 1
    #: what :meth:`probe` takes in a fast spell on the reference host
    probe_reference_s = hostspeed.REFERENCE_S

    def __init__(self, manifest: dict, inputs: Path, work: Path, env: dict):
        self.manifest = manifest
        self.inputs = inputs
        self.work = work
        self.env = env

    def start(self, spans_out: str | None = None) -> None:
        """Bring up whatever serves the ops (part of set-up)."""

    def stop(self) -> dict[str, float] | None:
        """Tear down; returns a server child's resource usage, if any."""
        return None

    def close(self) -> None:
        self.stop()

    def probe(self) -> float:
        """Time the host-speed probe that tracks this workload's ops."""
        return hostspeed.probe()

    def run_op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, i: int, result: OpResult) -> str | None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# cli: a fresh `repro` process per command, over a fixed command cycle
# ----------------------------------------------------------------------
class CliWorkload(Workload):
    def __init__(self, manifest, inputs, work, env):
        super().__init__(manifest, inputs, work, env)
        trace = str(inputs / manifest["trace"])
        pats = manifest["patterns"]
        self.commands = [
            ("trace_info", ["trace", "info", trace]),
            ("trace_query", ["trace", "query", trace, "--pattern", pats[0], "--pattern", pats[1], "--json"]),
            ("lint", ["lint", "--deep", "examples/fragment.pif"]),
            ("mapc_check", ["mapc", "check", "examples/db.map"]),
            ("compile", ["compile", "examples/heat.cmf"]),
            ("metrics", ["metrics"]),
        ]
        self.cycle = len(self.commands)
        #: run commands through ``repro.cli.main`` in this process (traced run)
        self.in_process = False

    @property
    def probe_reference_s(self) -> float:
        return hostspeed.REFERENCE_S if self.in_process else hostspeed.CHILD_REFERENCE_S

    def probe(self):
        return hostspeed.probe() if self.in_process else hostspeed.child_probe(self.env)

    def run_op(self, i):
        name, argv = self.commands[i % self.cycle]
        if self.in_process:
            buf = io.StringIO()
            start = perf_counter()
            with redirect_stdout(buf), redirect_stderr(buf):
                code = repro_main(argv)
            seconds = perf_counter() - start
            return OpResult(seconds, [seconds], (name, code, buf.getvalue()))
        hwm = self.work / "cli.hwm"
        hwm.unlink(missing_ok=True)
        code, out, seconds, usage = run_child(
            [sys.executable, str(HERE / "launcher.py"), "--hwm-out", str(hwm), *argv], self.env
        )
        return OpResult(seconds, [seconds], (name, code, out), usage_counts(usage, hwm))

    def check(self, i, result):
        name, code, out = result.output
        if code != 0:
            return f"{name}: exit code {code}: {out[-300:]}"
        m = self.manifest
        lines = out.strip().splitlines()
        if name == "trace_info":
            ok = f"transitions: {m['trace_transitions']}" in lines
        elif name == "trace_query":
            ans = json.loads(out)["questions"][" & ".join(m["patterns"])]
            ok = [ans["satisfied_time"], ans["transitions"], ans["satisfied_at_end"]] == m["expected"]
        elif name in ("lint", "mapc_check"):
            ok = bool(lines) and ": 0 error(s)," in lines[-1]
        elif name == "compile":
            ok = bool(lines) and lines[0] == f"program HEAT: {m['heat_blocks']} node code blocks"
        else:
            ok = len(lines) == m["metric_rows"] + 2
        return None if ok else f"{name}: unexpected output: {out[:300]}"


# ----------------------------------------------------------------------
# measure: compile + Paradyn session + attribution, in process
# ----------------------------------------------------------------------
class MeasureWorkload(Workload):
    NODES = 8

    def __init__(self, manifest, inputs, work, env):
        super().__init__(manifest, inputs, work, env)
        self.programs = [
            (name, (inputs / name).read_text(encoding="utf-8")) for name in manifest["programs"]
        ]

    def run_op(self, i):
        name, source = self.programs[i % len(self.programs)]
        start = perf_counter()
        program = compile_source(source, name)
        generate_pif(program.listing)
        tool = Paradyn.for_program(program, num_nodes=self.NODES)
        for _level, metric in FIGURE9_ROWS:
            tool.request_metric(metric)
        # SAS-gated: counts only while the array's sentences are active
        tool.request_metric("summation_time", focus={"array": sorted(program.symbols.arrays)[0]})
        tool.measure_block_times()
        tool.run()
        merge = tool.attribute("merge")
        split = tool.attribute("split")
        seconds = perf_counter() - start
        counts = {
            "cmfortran.blocks": len(program.plan.blocks),
            "instrument.probe_executions": tool.instrumentation.total_executions,
        }
        return OpResult(seconds, [seconds], (program, tool, merge, split), counts)

    def check(self, i, result):
        program, tool, merge, split = result.output
        oracle = interpret(program.analyzed)
        bad = [
            n for n in program.symbols.arrays
            if not np.allclose(tool.runtime.array(n), oracle.array(n))
        ] + [
            n for n in program.symbols.scalars
            if not np.isclose(tool.runtime.scalar(n), oracle.scalar(n))
        ]
        if bad:
            return f"{program.name} op {i}: diverged from the reference interpreter on {bad}"
        if not (merge.per_group or merge.per_sentence) or not split.per_sentence:
            return f"{program.name} op {i}: attribution is empty"
        return None


# ----------------------------------------------------------------------
# record: a db study plus a Figure-7 study, each to a fresh .rtrcx
# ----------------------------------------------------------------------
class RecordWorkload(Workload):
    def __init__(self, manifest, inputs, work, env):
        super().__init__(manifest, inputs, work, env)
        self.sessions = json.loads((inputs / manifest["sessions"]).read_text(encoding="utf-8"))

    def run_op(self, i):
        session = self.sessions[i % len(self.sessions)]
        queries = [Query(name, disk_reads=reads) for name, reads in session["queries"]]
        faults = FaultPlan(**session["fault_plan"])
        script = [FunctionSpec(name, writes=n, compute_time=4e-4) for name, n in session["script"]]
        db_path, unix_path = self.work / "session.db.rtrcx", self.work / "session.unix.rtrcx"
        start = perf_counter()
        with ColumnarTraceWriter(db_path, metadata={"op": i, "study": "db"}) as db_writer:
            db = run_db_study(
                queries,
                num_clients=session["clients"],
                transport="bus",
                fault_plan=faults,
                recorder=db_writer,
            )
        with ColumnarTraceWriter(unix_path, metadata={"op": i, "study": "unix"}) as unix_writer:
            unix = run_figure7_study(script, recorder=unix_writer)
        seconds = perf_counter() - start
        transitions = db_writer.transitions + unix_writer.transitions
        written = db_path.stat().st_size + unix_path.stat().st_size
        counts = {
            "trace.transitions": transitions,
            "trace.bytes_written": written,
            "dbsim.bus_messages": db.network_messages,
            "dbsim.bus_retries": db.bus_stats.get("fwd_retries", 0.0),
        }
        return OpResult(seconds, [seconds], (session, db, unix, db_path, unix_path), counts)

    def check(self, i, result):
        session, db, unix, db_path, unix_path = result.output
        server = session["clients"]
        questions = [
            PerformanceQuestion(
                f"reads for {name}",
                (SentencePattern("QueryActive", (name,)), SentencePattern("DiskRead", ("server0",))),
            )
            for name, _reads in session["queries"]
        ]
        with open_trace(db_path) as reader:
            segments = len(reader.segments)
            answers = evaluate_question_batch(reader, questions, end_time=db.elapsed, node=server)
        for name, live in db.per_query_watcher_time.items():
            if answers[f"reads for {name}"].satisfied_time != live:
                return f"op {i}: {name} live {live!r} != recorded {answers[f'reads for {name}'].satisfied_time!r}"
        with open_trace(unix_path) as reader:
            segments += len(reader.segments)
            recorded = [(e.time, e.kind, str(e.sentence), e.node_id) for e in reader.events()]
        live = [(e.time, e.kind, str(e.sentence), e.node_id) for e in unix.trace]
        if recorded != live:
            return f"op {i}: Figure-7 recording does not read back as the live SAS trace"
        result.counts["trace.segments_written"] = segments
        return None


# ----------------------------------------------------------------------
# query: `repro serve --trace` subprocess, 2 connections per batch
# ----------------------------------------------------------------------
class QueryWorkload(Workload):
    SUBSCRIBERS = 2

    def __init__(self, manifest, inputs, work, env):
        super().__init__(manifest, inputs, work, env)
        self.questions = json.loads((inputs / manifest["questions"]).read_text(encoding="utf-8"))
        self.batches = len(self.questions) // self.SUBSCRIBERS
        # one batch in this many carries a broad question: whole runs of it
        # keep the broad share, and so the latency mix, the same every run
        self.cycle = manifest["broad_every"]
        self.proc: subprocess.Popen | None = None
        self.hwm = work / "serve.hwm"
        self.port = 0
        self.loop = asyncio.new_event_loop()

    def start(self, spans_out=None):
        port_file = self.work / "serve.port"
        port_file.unlink(missing_ok=True)
        self.hwm.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "launcher.py"), "--hwm-out", str(self.hwm)]
        if spans_out:
            argv += ["--spans-out", spans_out]
        argv += [
            "serve", "--trace", str(self.inputs / self.manifest["trace"]),
            "--subscribers", str(self.SUBSCRIBERS), "--port", "0", "--port-file", str(port_file),
        ]
        with open(self.work / "serve.log", "ab") as log:
            self.proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
        deadline = perf_counter() + CHILD_TIMEOUT_S
        while True:
            text = port_file.read_text(encoding="utf-8").strip() if port_file.exists() else ""
            if text.isdigit():
                self.port = int(text)
                return
            if self.proc.poll() is not None or perf_counter() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not start; see serve.log")
            time.sleep(0.002)

    def stop(self):
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        if proc.returncode is None:
            proc.send_signal(signal.SIGINT)
        deadline = perf_counter() + 20.0
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage_counts(usage, self.hwm)
            if perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage_counts(usage, self.hwm)
            time.sleep(0.005)

    def close(self) -> None:
        self.stop()
        self.loop.close()

    async def _subscribe(self, question: dict) -> dict:
        start = perf_counter()
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        writer.write(json.dumps({"questions": [question], "stream": True}).encode() + b"\n")
        await writer.drain()
        got = {"name": question["name"], "events": 0, "bytes": 0, "errors": 0, "streamed": 0.0,
               "summary": None, "subscribed": None, "first_interval": None, "ended": False}
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                got["events"] += 1
                got["bytes"] += len(line)
                msg = json.loads(line)
                event = msg.get("event")
                if event == "subscribed":
                    got["subscribed"] = perf_counter() - start
                elif event == "interval":
                    if got["first_interval"] is None:
                        got["first_interval"] = perf_counter() - start
                    # same accumulation order as the server: exact compare
                    got["streamed"] = got["streamed"] + (msg["end"] - msg["start"])
                elif event == "summary":
                    got["summary"] = msg["questions"]
                elif event == "error":
                    got["errors"] += 1
                elif event == "end":
                    got["ended"] = True
                    break
        finally:
            got["seconds"] = perf_counter() - start
            writer.close()
        return got

    async def _batch(self, questions: list[dict]) -> list[dict]:
        return await asyncio.wait_for(
            asyncio.gather(*(self._subscribe(q) for q in questions)), CHILD_TIMEOUT_S
        )

    def run_op(self, i):
        j = (i % self.batches) * self.SUBSCRIBERS
        batch = self.questions[j : j + self.SUBSCRIBERS]
        start = perf_counter()
        subs = self.loop.run_until_complete(self._batch(batch))
        seconds = perf_counter() - start
        counts = {
            "serve.questions": len(subs),
            "serve.wait_s": sum(s["subscribed"] or 0.0 for s in subs),
            "serve.first_interval_s": sum(s["first_interval"] or s["seconds"] for s in subs),
            "serve.stream_s": sum(s["seconds"] - (s["first_interval"] or s["seconds"]) for s in subs),
            "serve.ndjson_bytes": sum(s["bytes"] for s in subs),
            "serve.events": sum(s["events"] for s in subs),
            "serve.error_events": sum(s["errors"] for s in subs),
        }
        return OpResult(seconds, [s["seconds"] for s in subs], subs, counts)

    def check(self, i, result):
        for sub in result.output:
            name = sub["name"]
            if sub["errors"] or not sub["ended"] or sub["summary"] is None:
                return f"op {i}: {name}: stream ended without a clean summary"
            ans = sub["summary"][name]
            got = [ans["satisfied_time"], ans["transitions"], ans["satisfied_at_end"]]
            if got != self.manifest["expected"][name]:
                return f"op {i}: {name}: summary {got} != in-process answer {self.manifest['expected'][name]}"
            if sub["streamed"] != ans["satisfied_time"]:
                return f"op {i}: {name}: streamed intervals sum to {sub['streamed']!r}, not {ans['satisfied_time']!r}"
        return None


WORKLOADS = {
    "cli": CliWorkload,
    "measure": MeasureWorkload,
    "record": RecordWorkload,
    "query": QueryWorkload,
}
