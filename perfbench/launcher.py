"""Run ``repro.cli.main(argv)`` in a fresh process, as ``python -m repro`` does.

    python3 perfbench/launcher.py [--hwm-out FILE] [--spans-out FILE] ARGV...

``--hwm-out`` writes the process's peak resident set (``VmHWM``, KiB) to
FILE at exit.  The parent cannot take it from ``wait4``: a child's
``ru_maxrss`` starts from the parent's resident set at fork, so it would
report the benchmark process, not the command.

``--spans-out`` installs the same layer wrappers as the benchmark's own
process before ``main`` runs (each ``repro serve`` batch is one op) and
writes the spans to FILE at exit.  SIGINT stops a server.
"""

from __future__ import annotations

import functools
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _install_tracer():
    from repro.serve import ServeServer
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    run_batch = ServeServer._run_batch

    @functools.wraps(run_batch)
    async def traced_batch(self, batch):
        tracer.begin_op()
        try:
            await run_batch(self, batch)
        finally:
            tracer.end_op()

    ServeServer._run_batch = traced_batch
    tracer.enabled = True
    return tracer


def main(argv: list[str]) -> int:
    # a shell starts background jobs with SIGINT ignored, and children
    # inherit that; the runner stops a server with SIGINT
    signal.signal(signal.SIGINT, signal.default_int_handler)
    options = {}
    while argv[:1] in (["--hwm-out"], ["--spans-out"]):
        options[argv[0]], argv = argv[1], argv[2:]
    from repro.cli import main as repro_main

    tracer = _install_tracer() if "--spans-out" in options else None
    try:
        return repro_main(argv)
    except KeyboardInterrupt:
        return 0
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.dump(options["--spans-out"], {"batches": tracer.op + 1})
        if "--hwm-out" in options:
            Path(options["--hwm-out"]).write_text(str(peak_rss_kib()), encoding="ascii")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
