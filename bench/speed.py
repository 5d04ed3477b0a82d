"""Host-speed probes that put the end-to-end times on a steady scale.

On a shared host the same request can take 1.7 times as long from one second
to the next, because neighbours slow the CPU down, and a whole 20 s run can be
a third slower than the next. So the runner times a fixed reference task, which
shares no code with ``bipan``, before the first request and after each one. It
reports every request at reference speed:

    scaled = wall * NOMINAL / median(the 2 + 2 * WINDOW probes nearest the request)

The median over a few seconds of probes follows the host's slow phases but not
the jitter of single probes.

``NOMINAL`` is a constant near the probe's time on an idle 2-vCPU host, so the
scaled figures read close to wall milliseconds there. A change that makes a
request cheaper lowers its scaled time by the same share. The probe's own time
is not part of any latency, and the wall-clock figures are kept in ``info``.

Two probes match two kinds of request:

* ``cpu``: pure-Python JSON parsing, indexing and sorting of 300 records,
  like the library workloads' requests. A garbage collection that starts
  inside it makes single probes slow, but not the median of a run. A probe
  that allocates nothing was tried too: it tracks the host's slow phases
  worse, because they slow memory-heavy work more than tight loops;
* ``spawn``: one interpreter start that imports a few standard modules, like
  the subprocess requests of ``cli-small``.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

CPU_ROUNDS = 8
WINDOW = 4  # probes taken on each side beyond the two next to a request
_rng = random.Random(20240501)
_DOC = json.dumps([
    {"id": f"p{i:05d}", "kind": _rng.choice("abc"), "inputs": [f"c{i:05d}_{j}" for j in range(3)]}
    for i in range(300)
])
_SPAWN = [sys.executable, "-c", "import argparse, dataclasses, json"]


def _cpu_task() -> int:
    items = json.loads(_DOC)
    consumers: dict[str, list[str]] = {}
    for item in items:
        for part in item["inputs"]:
            consumers.setdefault(part, []).append(item["id"])
    ordered = sorted((item["kind"], item["id"]) for item in items)
    return len(frozenset(pid for _, pid in ordered)) + len(consumers)


def cpu_probe() -> float:
    start = time.perf_counter()
    for _ in range(CPU_ROUNDS):
        _cpu_task()
    return time.perf_counter() - start


def spawn_probe() -> float:
    start = time.perf_counter()
    subprocess.run(_SPAWN, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


PROBES = {"cpu": (cpu_probe, 0.005), "spawn": (spawn_probe, 0.075)}  # kind -> (probe, NOMINAL seconds)


class Speed:
    """Probe times taken around a series of timed intervals."""

    def __init__(self, kind: str) -> None:
        self.probe, self.nominal = PROBES[kind]
        self.probes: list[float] = []

    def mark(self) -> None:
        """Time the probe once; call it before the first interval and after each one."""
        self.probes.append(self.probe())

    def scale(self, walls: list[float | None]) -> list[float]:
        """Each wall time at reference speed, from the probes around it; None is skipped."""
        if len(self.probes) != len(walls) + 1:
            raise ValueError(f"{len(walls)} intervals need {len(walls) + 1} probes, not {len(self.probes)}")
        return [wall * self.nominal / statistics.median(self.probes[max(0, i - WINDOW):i + WINDOW + 2])
                for i, wall in enumerate(walls) if wall is not None]

    def factor(self) -> float:
        """Median probe time over its nominal time: above 1 when the host ran slow."""
        return statistics.median(self.probes) / self.nominal if self.probes else 1.0
