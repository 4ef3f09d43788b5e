"""The repository benchmark: four user workloads, timed end to end.

    python3 perfbench/run.py --workload {cli,measure,record,query,all} \\
        --seed N --seconds S --trace {0,1}

Untraced (``--trace 0``) runs report the end-to-end metrics; traced runs
(``--trace 1``) split the time across this repository's layers with
wrappers installed from ``tracing.py`` (nothing under ``src/`` changes).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit and sample count.  The exit code is
0 only when every op passed its correctness check.  See README.md here
for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
from launcher import peak_rss_kib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3
CLI_COMMANDS = ("trace_info", "trace_query", "lint", "mapc_check", "compile", "metrics")
LOAD = {
    "cli": "closed loop, 1 caller, one fresh process per command",
    "measure": "closed loop, 1 in-process caller",
    "record": "closed loop, 1 in-process caller",
    "query": "closed loop, 1 client process holding 2 connections per batch",
}
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)
PER_LAYER = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.modules_imported", "count"),
    *((f"cli.command_ms.{c}", "ms") for c in CLI_COMMANDS),
    ("cmfortran.compile_ms", "ms"),
    ("cmfortran.blocks", "count"),
    ("pif.generate_ms", "ms"),
    ("paradyn.setup_ms", "ms"),
    ("paradyn.attribute_ms", "ms"),
    ("instrument.probe_executions", "count"),
    ("instrument.self_ms", "ms"),
    ("cmrts.dispatches", "count"),
    ("cmrts.fire_ms", "ms"),
    ("machine.run_self_ms", "ms"),
    ("sas.transitions", "count"),
    ("sas.self_ms", "ms"),
    ("sas.watcher_updates", "count"),
    ("sas.watcher_updates_per_transition", "ratio"),
    ("sas.watcher_flips", "count"),
    ("sas.useful_update_frac", "ratio"),
    ("sas.notifications", "count"),
    ("sas.ignored_frac", "ratio"),
    ("dbsim.bus_messages", "count"),
    ("dbsim.bus_retries", "count"),
    ("unixsim.self_ms", "ms"),
    ("trace.write_ms", "ms"),
    ("trace.transitions_written", "count"),
    ("trace.bytes_written", "bytes"),
    ("trace.bytes_per_transition", "bytes"),
    ("trace.segments_written", "count"),
    ("trace.transitions_recorded_per_s", "1/s"),
    ("trace.open_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.scan_ms", "ms"),
    ("trace.segments_total", "count"),
    ("trace.segments_scanned", "count"),
    ("trace.segments_pruned_frac", "ratio"),
    ("trace.events_replayed", "count"),
    ("retro.plan_ms", "ms"),
    ("multiq.transitions_seen", "count"),
    ("multiq.node_updates", "count"),
    ("multiq.evaluations", "count"),
    ("multiq.nodes", "count"),
    ("multiq.subscriptions", "count"),
    ("multiq.nodes_per_subscription", "ratio"),
    ("multiq.self_ms", "ms"),
    ("multiq.questions_answered_per_s", "1/s"),
    ("serve.wait_ms", "ms"),
    ("serve.first_interval_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.ndjson_bytes", "bytes"),
    ("serve.events", "count"),
    ("serve.error_events", "count"),
    ("analyze.lint_ms", "ms"),
    ("mapdsl.check_ms", "ms"),
    ("rusage.ctx_switches", "count"),
    ("rusage.minor_faults", "count"),
    ("trace_overhead_frac", "ratio"),
)


@dataclass
class Phase:
    """One closed-loop measuring window.

    ``seconds`` and ``samples`` are scaled to the reference host speed
    (see ``hostspeed.py``); ``raw_seconds`` and ``raw_samples`` are as
    measured.
    """

    ops: int = 0
    failed: int = 0
    seconds: float = 0.0  # caller time inside ops (checks excluded)
    raw_seconds: float = 0.0
    wall: float = 0.0
    samples: list[float] = field(default_factory=list)
    raw_samples: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # host-speed probes, in order
    host_factor: float = 1.0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    by_op: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    peak_child_kib: float = 0.0
    errors: list[str] = field(default_factory=list)
    usage: tuple[float, float] = (0.0, 0.0)  # own (ctx switches, minor faults)


def _own_usage() -> tuple[float, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_nvcsw + ru.ru_nivcsw, ru.ru_minflt


def run_phase(wl, seconds: float, first_op: int = 0, tracer=None, cycle: int | None = None) -> Phase:
    """Closed loop until ``seconds`` pass, ending on a whole ``cycle`` of ops."""
    cycle = wl.cycle if cycle is None else cycle
    phase = Phase()
    done: list[tuple[int, float, list[float]]] = []  # (probe index, seconds, samples)
    last_probe = float("-inf")
    usage0 = _own_usage()
    start = perf_counter()
    deadline = start + seconds
    i = first_op
    while True:
        result, error = None, None
        if tracer is not None:
            tracer.begin_op()
            tracer.enabled = True
        try:
            result = wl.run_op(i)
        except Exception as exc:  # an op that raises is a failed op
            error = f"op {i} raised {exc!r}"
        finally:
            if tracer is not None:
                tracer.enabled = False
                tracer.end_op()
        if perf_counter() - last_probe >= hostspeed.EVERY_S:
            phase.probes.append(wl.probe())
            last_probe = perf_counter()
        if result is not None:
            try:
                error = wl.check(i, result)
            except Exception as exc:
                error = f"op {i} check raised {exc!r}"
        phase.ops += 1
        if error:
            phase.failed += 1
            phase.errors.append(error)
        else:
            done.append((len(phase.probes) - 1, result.seconds, result.samples))
            phase.by_op[i % wl.cycle].append(result.seconds)
            counts = dict(result.counts)
            phase.peak_child_kib = max(phase.peak_child_kib, counts.pop("maxrss_kib", 0.0))
            for key, value in counts.items():
                phase.counts[key] += value
        i += 1
        if perf_counter() >= deadline and (i - first_op) % cycle == 0:
            break
    phase.wall = perf_counter() - start
    usage1 = _own_usage()
    phase.usage = (usage1[0] - usage0[0], usage1[1] - usage0[1])
    factors = hostspeed.rolling_factors(phase.probes, wl.probe_reference_s)
    for k, seconds, samples in done:
        phase.raw_seconds += seconds
        phase.seconds += seconds / factors[k]
        phase.raw_samples.extend(samples)
        phase.samples.extend(x / factors[k] for x in samples)
    phase.host_factor = statistics.median(factors)
    return phase


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_tail(n: int) -> int:
    """Highest of p50/p75/p90/p95/p99 with at least 10 samples beyond it."""
    best = 0
    for pct in (50, 75, 90, 95, 99):
        if n * (100 - pct) / 100.0 >= 10:
            best = pct
    return best


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    env.pop("REPRO_DEBUG", None)
    return env


def setup(name: str, seed: int, work: Path, env: dict, repeats: int):
    """Set up ``repeats`` times (fresh inputs process + server start).

    Returns the workload, ``(seconds, host factor)`` per set-up, and
    whether every set-up generated identical inputs.
    """
    from workloads import WORKLOADS, run_child

    inputs = work / "inputs"
    times, manifests, wl = [], [], None
    for _ in range(repeats):
        if wl is not None:
            wl.close()
            wl = None
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir()
        start = perf_counter()
        code, out, _, _ = run_child(
            [sys.executable, str(HERE / "inputs.py"), "--workload", name,
             "--seed", str(seed), "--out", str(inputs)],
            env,
            timeout=120.0,
        )
        if code != 0:
            raise RuntimeError(f"input generation failed ({code}):\n{out}")
        manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        wl = WORKLOADS[name](manifest, inputs, work, env)
        wl.start()
        seconds = perf_counter() - start
        times.append((seconds, hostspeed.factor([hostspeed.probe() for _ in range(hostspeed.WINDOW)])))
        manifests.append(manifest)
    deterministic = all(m == manifests[0] for m in manifests)
    return wl, times, deterministic


def _median_child_seconds(argv: list[str], env: dict, runs: int) -> float:
    from workloads import run_child

    return statistics.median(run_child(argv, env)[2] for _ in range(runs))


def _imported_modules(env: dict, code: str) -> tuple[set[str], float]:
    """Modules ``python -X importtime -c code`` imports, and their time in ms."""
    from workloads import run_child

    _, out, _, _ = run_child([sys.executable, "-X", "importtime", "-c", code], env)
    names, top_us = set(), 0.0
    for line in out.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, module = line.split("|", 2)
        names.add(module.strip())
        if module.strip().startswith("repro") and not module[1:].startswith(" "):
            top_us += float(cumulative)
    return names, top_us / 1e3


def cli_import_costs(env: dict) -> dict[str, float]:
    baseline, _ = _imported_modules(env, "pass")
    runs = [_imported_modules(env, "import repro.cli") for _ in range(3)]
    return {
        "cli.interpreter_ms": _median_child_seconds([sys.executable, "-c", "pass"], env, 5) * 1e3,
        "cli.import_ms": statistics.median(ms for _, ms in runs),
        "cli.modules_imported": float(len(runs[0][0] - baseline)),
    }


def end_to_end(name: str, phase: Phase, setups: list[tuple[float, float]], server_usage) -> dict:
    """The end-to-end metrics; timings at the reference host speed."""
    if name == "cli":
        peak_kib = phase.peak_child_kib
    elif name == "query":
        peak_kib = server_usage["maxrss_kib"] if server_usage else 0.0
    else:
        peak_kib = peak_rss_kib()
    samples_ms = [s * 1e3 for s in phase.samples] or [0.0]
    return {
        "setup_s": statistics.median(t / f for t, f in setups),
        "latency_p50_ms": percentile(samples_ms, 50),
        "latency_p90_ms": percentile(samples_ms, 90),
        "ops_per_s": (phase.ops - phase.failed) / phase.seconds if phase.seconds else 0.0,
        "peak_rss_mib": peak_kib / 1024.0,
    }


def per_layer(name: str, plain: Phase, traced: Phase, tracer, extra: dict) -> dict:
    """Per-layer metrics: spans and counts per op of the traced window;
    client-side and throughput figures from the untraced window."""
    n = max(traced.ops - traced.failed, 1)
    c, pc = tracer.counts, plain.counts
    tc = traced.counts

    def ms(*names, own=True):
        return (tracer.self_time(*names) if own else tracer.total(*names)) * 1e3 / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {key: 0.0 for key, _ in PER_LAYER}
    m.update(extra)
    m.update(
        {
            "cmfortran.compile_ms": ms("cmfortran.compile", own=False),
            "cmfortran.blocks": tc["cmfortran.blocks"] / n,
            "pif.generate_ms": ms("pif.generate", own=False),
            "paradyn.setup_ms": ms("paradyn.setup"),
            "paradyn.attribute_ms": ms("paradyn.attribute"),
            "instrument.probe_executions": tc["instrument.probe_executions"] / n,
            "instrument.self_ms": ms("instrument.fire", "instrument.notify"),
            "cmrts.dispatches": c["cmrts.dispatches"] / n,
            "cmrts.fire_ms": ms("cmrts.fire"),
            "machine.run_self_ms": ms("machine.run"),
            "sas.transitions": c["sas.transitions"] / n,
            "sas.self_ms": ms("sas.activate", "sas.deactivate", "sas.affected", "sas.attach"),
            "sas.watcher_updates": c["sas.watcher_updates"] / n,
            "sas.watcher_updates_per_transition": ratio(c["sas.watcher_updates"], c["sas.transitions"]),
            "sas.watcher_flips": c["sas.watcher_flips"] / n,
            "sas.useful_update_frac": ratio(c["sas.watcher_flips"], c["sas.watcher_updates"]),
            "sas.notifications": c["sas.notifications"] / n,
            "sas.ignored_frac": ratio(c["sas.ignored"], c["sas.notifications"]),
            "dbsim.bus_messages": tc["dbsim.bus_messages"] / n,
            "dbsim.bus_retries": tc["dbsim.bus_retries"] / n,
            "unixsim.self_ms": ms("unixsim.study"),
            "trace.write_ms": ms("trace.write"),
            "trace.transitions_written": tc["trace.transitions"] / n,
            "trace.bytes_written": tc["trace.bytes_written"] / n,
            "trace.bytes_per_transition": ratio(tc["trace.bytes_written"], tc["trace.transitions"]),
            "trace.segments_written": tc["trace.segments_written"] / n,
            "trace.transitions_recorded_per_s": ratio(pc["trace.transitions"], plain.raw_seconds),
            "trace.open_ms": ms("trace.open", own=False),
            "trace.decode_ms": ms("trace.decode"),
            "trace.scan_ms": ms("trace.scan"),
            "trace.segments_total": c["trace.segments_total"] / n,
            "trace.segments_scanned": tracer.calls("trace.decode") / n,
            "trace.segments_pruned_frac": 1.0 - ratio(tracer.calls("trace.decode"), c["trace.segments_total"])
            if c["trace.segments_total"] else 0.0,
            "trace.events_replayed": c["trace.scan.items"] / n,
            "retro.plan_ms": ms("retro.plan"),
            "multiq.transitions_seen": c["multiq.transitions_seen"] / n,
            "multiq.node_updates": c["multiq.node_updates"] / n,
            "multiq.evaluations": c["multiq.evaluations"] / n,
            "multiq.nodes": c["multiq.nodes"] / n,
            "multiq.subscriptions": c["multiq.subscriptions"] / n,
            "multiq.nodes_per_subscription": ratio(c["multiq.nodes"], c["multiq.subscriptions"]),
            "multiq.self_ms": ms("multiq.transition", "multiq.answers"),
            "multiq.questions_answered_per_s": ratio(pc["serve.questions"], plain.wall),
            "serve.wait_ms": ratio(pc["serve.wait_s"], pc["serve.questions"]) * 1e3,
            "serve.first_interval_ms": ratio(pc["serve.first_interval_s"], pc["serve.questions"]) * 1e3,
            "serve.stream_ms": ratio(pc["serve.stream_s"], pc["serve.questions"]) * 1e3,
            "serve.ndjson_bytes": ratio(pc["serve.ndjson_bytes"], plain.ops),
            "serve.events": ratio(pc["serve.events"], plain.ops),
            "serve.error_events": pc["serve.error_events"] + tc["serve.error_events"],
            "analyze.lint_ms": ratio(tracer.total("analyze.lint"), tracer.calls("analyze.lint")) * 1e3,
            "mapdsl.check_ms": ratio(tracer.total("mapdsl.check"), tracer.calls("mapdsl.check")) * 1e3,
            "rusage.ctx_switches": (traced.usage[0] + tc["ctx_switches"]) / n,
            "rusage.minor_faults": (traced.usage[1] + tc["minor_faults"]) / n,
            "trace_overhead_frac": ratio(traced.seconds / n, plain.seconds / max(plain.ops - plain.failed, 1)) - 1.0,
        }
    )
    if name == "cli":
        for cmd, seconds in zip(CLI_COMMANDS, (plain.by_op[k] for k in range(len(CLI_COMMANDS))), strict=True):
            m[f"cli.command_ms.{cmd}"] = statistics.median(seconds) * 1e3 if seconds else 0.0
    return m


def host_facts() -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        "perf=absent (getrusage stands in for hardware counters)"
    )


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    """One workload run; returns the result object and report lines."""
    import workloads  # noqa: F401  (imports the layers before any timing)

    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(work)
    for _ in range(3):
        hostspeed.probe()  # first calls pay one-off allocation costs
    lines = [f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(traced)}", f"  host: {host_facts()}"]
    wl = None
    try:
        wl, setups, deterministic = setup(name, seed, work, env, 1 if traced else SETUP_REPEATS)
        sizes = json.dumps(wl.manifest.get("sizes", {}), sort_keys=True)
        lines.append(f"  inputs: {sizes}; load: {LOAD[name]}")
        if not deterministic:
            lines.append("  FAILED: the same seed generated different inputs")
        if traced:
            phases, metrics, units = _traced(name, wl, seconds, env, work, seed, lines)
        else:
            phases, metrics, units = _untraced(name, wl, seconds, setups, lines)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        lines.extend(f"  FAILED: {e}" for e in p.errors[:5])
    lines.append(f"  failed: {failed}/{attempted} ops (failed_frac {failed / attempted:.4f})")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def _untraced(name, wl, seconds, setups, lines):
    warm = run_phase(wl, 0.0, cycle=1)  # caches, lazy set-up
    phase = run_phase(wl, seconds, first_op=warm.ops)
    server_usage = wl.stop()
    metrics = end_to_end(name, phase, setups, server_usage)
    n = len(phase.samples)
    tail = supported_tail(n)
    raw_ms = [s * 1e3 for s in phase.raw_samples] or [0.0]
    lines.append(
        f"  host factor {phase.host_factor:.3f} (probe median / reference); timings below are "
        "scaled to the reference host speed, as-measured values in brackets"
    )
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; as measured: "
        + " ".join(f"{t:.3f}" for t, _ in setups),
        "latency_p50_ms": f"n={n} samples; as measured {percentile(raw_ms, 50):.3f}",
        "latency_p90_ms": f"n={n} samples; as measured {percentile(raw_ms, 90):.3f}; "
        "highest percentile with >=10 samples beyond: "
        + (f"p{tail} = {percentile([s * 1e3 for s in phase.samples], tail):.3f} ms" if tail else "none"),
        "ops_per_s": f"{phase.ops - phase.failed} ops / {phase.seconds:.3f} s of scaled caller time; "
        f"as measured {(phase.ops - phase.failed) / phase.raw_seconds if phase.raw_seconds else 0.0:.3f}",
        "peak_rss_mib": "max RSS of " + {"cli": "the command children", "query": "the serve child"}.get(name, "this process"),
    }
    units = dict(END_TO_END)
    for key, value in metrics.items():
        lines.append(f"  {key:<16} {value:12.4f} {units[key]:<4} ({notes[key]})")
    if name == "cli":
        lines.append("  per command (median ms): " + ", ".join(
            f"{cmd} {statistics.median(phase.by_op[k]) * 1e3:.1f}"
            for k, cmd in enumerate(CLI_COMMANDS) if phase.by_op[k]))
    if name == "record" and phase.raw_seconds:
        lines.append(
            f"  transitions_recorded_per_s {phase.counts['trace.transitions'] / phase.raw_seconds:.1f} 1/s "
            f"({phase.counts['trace.transitions']:.0f} transitions / {phase.raw_seconds:.3f} s recording)"
        )
    if name == "query":
        lines.append(
            f"  questions_answered_per_s {phase.counts['serve.questions'] / phase.wall:.2f} 1/s "
            f"({phase.counts['serve.questions']:.0f} questions, 2 distinct per batch / {phase.wall:.3f} s wall)"
        )
    return [warm, phase], metrics, units


def _traced(name, wl, seconds, env, work, seed, lines):
    from tracing import Tracer, install

    OUT_ROOT.mkdir(exist_ok=True)
    spans_path = OUT_ROOT / f"spans-{name}-seed{seed}.json"
    server_spans = work / "server-spans.json"
    tracer = Tracer()
    extra: dict[str, float] = {}
    if name == "cli":
        wl.in_process = True
        extra = cli_import_costs(env)
    # in-process cli commands import lazily: warm a whole cycle
    warm = run_phase(wl, 0.0, cycle=None if name == "cli" else 1)
    plain = run_phase(wl, seconds / 2, first_op=warm.ops)
    install(tracer)
    if name == "query":
        wl.stop()
        wl.start(spans_out=str(server_spans))
    traced = run_phase(wl, seconds / 2, first_op=warm.ops + plain.ops, tracer=tracer)
    if name == "query":
        usage = wl.stop()
        for key in ("ctx_switches", "minor_faults"):
            traced.counts[key] += usage[key]
        server_state = json.loads(server_spans.read_text(encoding="utf-8"))
        tracer.merge(server_state)
    metrics = per_layer(name, plain, traced, tracer, extra)
    tracer.dump(str(spans_path), {
        "workload": name, "seed": seed, "host": host_facts(), "per_layer": metrics,
        "server_spans": server_state["spans"] if name == "query" else [],
    })
    units = dict(PER_LAYER)
    lines.append(
        f"  windows: untraced {plain.ops} ops in {plain.raw_seconds:.3f} s, traced {traced.ops} ops in "
        f"{traced.raw_seconds:.3f} s; per-op values are means over the traced window"
    )
    for key, value in metrics.items():
        lines.append(f"  {key:<36} {value:14.4f} {units[key]}")
    lines.append(f"  spans: {spans_path.relative_to(ROOT)}")
    return [warm, plain, traced], metrics, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("cli", "measure", "record", "query", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    names = ("cli", "measure", "record", "query") if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
