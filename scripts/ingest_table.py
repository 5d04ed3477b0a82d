#!/usr/bin/env python3
"""Time model ingest and twin round trips stage by stage, against ``json.loads`` of the same bytes.

Ingest is what every command that reads a model pays: ``io.load_model`` (that is
``json.loads``, then ``io._model_from``, the model decoder, which checks every field
and key and builds the nodes and adjacency maps), validation and the digest. Each
stage, and the whole, is timed in this process, best of ``--repeat`` runs, each run
after a full collection. The decode-and-build, validate and digest columns are timed
with the cyclic GC paused, so a stage's figure does not move with where a collection
lands; ``json.loads``, the whole ingest and their ratio are timed with the GC on, as
the CLI runs them. The models come from ``bench/gen.py``, named ``<shape>-<nodes>``;
times are in milliseconds, and the last column is whole ingest over ``json.loads``.

A row named ``twin-<events>`` goes to a second table: a twin of that many seeded
``health-update`` events on the bushy model of 400 nodes from ``bench/gen.py`` (seed 1),
as ``pdt set-health`` reads, appends to and writes it. Its stages are decode
(``io.load_instance`` less ``json.loads``), append (``pdt.set_health``) and encode
(``canon.twin_bytes``), each timed with the GC paused; the whole read
(``io.load_instance``) and its ratio to ``json.loads`` are timed with the GC on.

Run with: python scripts/ingest_table.py [MODEL | twin-EVENTS ...] [--repeat K]
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

from bipan import io, pdt
from bipan.canon import model_digest, twin_bytes
from bipan.model import replace
from bipan.validate import validate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from gen import generate  # noqa: E402  (bench/ is no package)

MODELS = ("chain-1500", "bushy-2000", "bushy-16000")


def best_ms(run, repeat: int, *, paused: bool = False) -> float:
    """The least wall time of ``repeat`` calls of ``run``, in milliseconds.

    Each call starts after a full collection, so none pays for garbage the last one left.
    With ``paused`` the cyclic GC is off during each call and back in its prior state
    after it, even when the call raises.
    """
    times = []
    for _ in range(repeat):
        gc.collect()
        enabled = gc.isenabled()
        if paused:
            gc.disable()
        try:
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
    return min(times) * 1e3


def ingest(data: bytes) -> None:
    model = io.load_model(data)
    model.diagnostics, model.digest


def row(name: str, repeat: int) -> str:
    shape, nodes = name.rsplit("-", 1)
    generated = generate(shape, 1, int(nodes))
    data = generated.data
    doc, model = json.loads(data), io.load_model(data)
    times = [
        best_ms(lambda: json.loads(data), repeat),
        best_ms(lambda: io._model_from(doc), repeat, paused=True),
        best_ms(lambda: validate(model), repeat, paused=True),
        best_ms(lambda: model_digest(model), repeat, paused=True),
        best_ms(lambda: ingest(data), repeat),
    ]
    cells = " | ".join(f"{t:.1f}" for t in times)
    return f"| {shape}-{generated.nodes} | {cells} | {times[-1] / times[0]:.1f}× |"


def twin_data(events: int) -> bytes:
    """The canonical bytes of a twin of ``events`` seeded ``health-update`` events, a minute
    apart, on the bushy model of 400 nodes, its health map the fold of its log, as
    ``pdt set-health`` writes it."""
    twin = pdt.create_instance("T", io.load_model(generate("bushy", 1, 400).data))
    rng, components = random.Random(f"twin-{events}"), sorted(twin.health)
    start, states = datetime(2024, 1, 1, tzinfo=timezone.utc), list(pdt.Health)
    health, log = dict(twin.health), []
    for i in range(events):
        component, state = rng.choice(components), rng.choice(states)
        health[component] = state
        log.append(pdt.Event((start + timedelta(minutes=i)).strftime("%Y-%m-%dT%H:%M:%SZ"),
                             "health-update", {"component": component, "health": state.value}))
    return io.save_instance(replace(twin, health=health, events=log))


def twin_row(name: str, repeat: int) -> str:
    events = int(name.rsplit("-", 1)[1])
    data = twin_data(events)
    twin, at = io.load_instance(data), "2100-01-01T00:00:00Z"
    component = min(twin.health)
    loads = best_ms(lambda: json.loads(data), repeat)
    times = [
        loads,
        best_ms(lambda: io.load_instance(data), repeat, paused=True)
        - best_ms(lambda: json.loads(data), repeat, paused=True),
        best_ms(lambda: pdt.set_health(twin, component, pdt.Health.OK, at), repeat, paused=True),
        best_ms(lambda: twin_bytes(twin), repeat, paused=True),
        best_ms(lambda: io.load_instance(data), repeat),
    ]
    cells = " | ".join(f"{t:.1f}" for t in times)
    return f"| twin-{events} | {cells} | {times[-1] / loads:.1f}× |"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("models", nargs="*", default=MODELS,
                        help="<shape>-<nodes>, e.g. bushy-2000, or twin-<events>, e.g. twin-2000")
    parser.add_argument("--repeat", type=int, default=9, help="runs per stage; the best is kept")
    args = parser.parse_args()
    models = [name for name in args.models if not name.startswith("twin-")]
    twins = [name for name in args.models if name.startswith("twin-")]
    if models:
        print("| model | `json.loads` | decode and build, GC paused | validate, GC paused "
              "| digest, GC paused | ingest | ingest ÷ loads |")
        print("| --- | ---: | ---: | ---: | ---: | ---: | ---: |")
        for name in models:
            print(row(name, args.repeat))
    if twins:
        if models:
            print()
        print("| twin | `json.loads` | decode, GC paused | append, GC paused "
              "| encode, GC paused | read | read ÷ loads |")
        print("| --- | ---: | ---: | ---: | ---: | ---: | ---: |")
        for name in twins:
            print(twin_row(name, args.repeat))


if __name__ == "__main__":
    main()
