"""Host-speed probe: a fixed slice of work timed between ops.

On a shared host the CPU runs in fast and slow spells a few seconds long:
the same `record` session takes 165 ms in one spell and 270 ms in the
next, and a compile-and-measure op 29 ms against 47 ms.  This probe moves
with them.  Dividing each op's time by the probe times around it, scaled
by ``REFERENCE_S``, gives the op's time at the reference host speed.

Measured over 3 s windows on a 2-CPU container, the scaled times of both
ops varied by 7-8% (coefficient of variation) where the raw times varied
by 16-17%.  The probe is object, dict and string churn, the kind of work
the ops do; it holds no large buffer, so it adds nothing to the peak
resident set the benchmark reports.  Command children follow the spells
differently; :func:`child_probe` tracks them.  Neither probe calls
``repro`` code, so a change to the program moves the scaled times and
leaves the probes alone.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

#: the probe's median in a fast spell on the reference host (2-CPU container)
REFERENCE_S = 3.1e-3
#: the same for :func:`child_probe`
CHILD_REFERENCE_S = 0.1
#: what :func:`child_probe`'s fresh interpreter imports: standard library only
CHILD_CODE = "import json, decimal, argparse, asyncio, email.message, http.client"
#: probes around an op that set its scale (centred rolling median)
WINDOW = 7
#: least time between probes; ops in between share the latest probe
EVERY_S = 0.1


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def f(self, x: int) -> int:
        return self.a * x + self.b


def _work() -> int:
    table = {}
    items = [_Item(i, i + 1) for i in range(400)]
    total = 0
    for r in range(6):
        for i, item in enumerate(items):
            table[f"k{i}_{r}"] = item.f(i)
            total += item.f(r)
    total += len(sorted(table.values(), reverse=True))
    rows = [(i, str(i), i * 0.5) for i in range(3000)]
    return total + len(json.dumps({key: value for _, key, value in rows}))


def probe() -> float:
    """Seconds one pass of the fixed work takes right now, averaged over CPUs.

    The pass runs once on each CPU this process may use: the spells differ
    between CPUs, and a server or command child may run on either.  On
    each CPU an untimed pass runs first, because a caller that just waited
    on a child or a socket resumes on a cold core.  The collector is off
    throughout: a collection would time the caller's heap, not the host.
    """
    cpus = os.sched_getaffinity(0)
    enabled = gc.isenabled()
    gc.disable()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            _work()
            start = perf_counter()
            _work()
            times.append(perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
        if enabled:
            gc.enable()
    return statistics.fmean(times)


def child_probe(env: dict) -> float:
    """Seconds a fresh interpreter takes to start and import ``CHILD_CODE``.

    Process start-up, unmarshalling and page faults follow the spells
    differently from in-process work, and they are most of what a command
    child does; this probe tracks them where :func:`probe` does not.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True)
    return perf_counter() - start


def factor(probes: list[float], reference: float = REFERENCE_S) -> float:
    """How much slower than the reference host these probes ran."""
    return statistics.median(probes) / reference


def rolling_factors(probes: list[float], reference: float = REFERENCE_S) -> list[float]:
    """One factor per probe: the median of the ``WINDOW`` probes around it."""
    half = WINDOW // 2
    return [
        factor(probes[max(0, i - half) : i + half + 1], reference) for i in range(len(probes))
    ]
