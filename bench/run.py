"""Benchmark entry point for bipan.

    python3 bench/run.py --workload deep-chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
``--trace 0`` sets the workload up three times, then measures a closed loop of
whole request cycles for ``--seconds`` and prints the end-to-end metrics, each
time scaled to reference host speed (see ``speed.py``). ``--trace 1``
measures the same requests untraced and traced (whole request cycles, so
counts repeat exactly), once more under tracemalloc, then runs the scaling
sweep, and prints the per-layer metrics. Every output is checked; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import gen
from speed import Speed
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail latency is the highest value with this many samples above it
SWEEP_NODES = (250, 1000, 2000, 4000, 8000)
SWEEP_SHAPES = ("chain", "bushy")
GROWTH_LAYERS = ("io", "validate", "canon", "plan", "execute")
NOT_WAITING = "none: one client, one thread, no queue; no layer waits on another"


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


# -- running requests -------------------------------------------------------------


class Outcome:
    """Latencies of passed requests, and the failures, of one loop."""

    def __init__(self) -> None:
        self.walls: list[float | None] = []  # per attempted request; None when it failed
        self.attempted = 0
        self.failures: list[str] = []
        self.payload = hashlib.sha256()

    def record(self, wl, req, tracer=None) -> None:
        self.attempted += 1
        try:
            wl.prepare(req)
            start = time.perf_counter()
            out = wl.traced_request(req, tracer) if tracer is not None else wl.request(req)
            latency = _elapsed(start)
            self.payload.update(wl.check(req, out))
        except Exception as exc:  # a failed request is counted, reported and the loop goes on
            self.failures.append(f"{type(exc).__name__}: {exc}")
            self.walls.append(None)
        else:
            self.walls.append(latency)

    @property
    def latencies(self) -> list[float]:
        return [wall for wall in self.walls if wall is not None]


def run_cycles(wl, seconds: float, tracer=None, whole: bool = True, speed: Speed | None = None) -> Outcome:
    """Send the cycle's requests in order until ``seconds`` pass; ``whole`` finishes the cycle.

    At least one request is sent, and with ``whole`` at least one cycle. With
    ``speed``, the host-speed probe runs before the first request and after each.
    """
    outcome = Outcome()
    if speed is not None:
        speed.mark()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline or (whole and i % len(wl.cycle)):
        if tracer is not None:
            tracer.begin_request(i)
        outcome.record(wl, wl.cycle[i % len(wl.cycle)], tracer)
        if speed is not None:
            speed.mark()
        i += 1
    return outcome


def set_up(cls, seed: int, workdir: Path):
    """One set-up: generate, write and validate the inputs, then one checked warm-up cycle."""
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    wl = cls()
    wl.setup(seed, workdir)
    warm = run_cycles(wl, 0.0)
    return wl, _elapsed(start), warm


# -- end-to-end run ---------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest sample with ``TAIL_BEYOND`` samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(cls, args, workdir: Path, info: dict) -> tuple[Outcome, dict]:
    setups, warms = [], []
    setup_speed = Speed(cls.probe)
    setup_speed.mark()
    for rep in range(SETUP_REPEATS):
        wl, seconds, warm = set_up(cls, args.seed, workdir / f"setup{rep}")
        setup_speed.mark()
        setups.append(seconds)
        warms.append((wl.inputs.hexdigest(), warm.payload.hexdigest(), warm.failures))
    failures = [f for _, _, fails in warms for f in fails]
    if len({w[:2] for w in warms}) != 1:
        failures.append("set-ups with one seed gave different inputs or outputs")
    info.update(sizes=wl.sizes, inputs_sha256=warms[0][0], outputs_sha256=warms[0][1],
                setup_runs_s=setups)

    speed = Speed(cls.probe)
    outcome = run_cycles(wl, args.seconds, speed=speed)
    outcome.failures[:0] = failures
    outcome.attempted += len(failures)
    lat = speed.scale(outcome.walls) or [0.0]
    wall = outcome.latencies or [0.0]
    tail_value, tail_pct = tail(lat)
    who = resource.RUSAGE_CHILDREN if cls.name == "cli-small" else resource.RUSAGE_SELF
    info.update(samples=len(outcome.latencies), tail_percentile=round(tail_pct, 2),
                tail_samples_beyond=min(TAIL_BEYOND, len(lat) - 1),
                fail_ratio=len(outcome.failures) / outcome.attempted, waiting=NOT_WAITING,
                peak_rss_of="benchmark's cli children" if cls.name == "cli-small" else "benchmark process",
                speed_probe=cls.probe, host_slowdown=round(speed.factor(), 4),
                wall_setup_s=statistics.median(setups), wall_latency_p50_ms=statistics.median(wall) * 1e3,
                wall_latency_tail_ms=tail(wall)[0] * 1e3,
                wall_throughput_rps=len(outcome.latencies) / sum(wall) if outcome.latencies else 0.0)
    metrics = {
        "setup_s": (statistics.median(setup_speed.scale(setups)), "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "throughput_rps": (len(outcome.latencies) / sum(lat) if outcome.latencies else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "success_ratio": (1 - len(outcome.failures) / outcome.attempted, "ratio"),
    }
    return outcome, metrics


# -- traced run -------------------------------------------------------------------


def _per_request(value: float, requests: int) -> float:
    return value / requests if requests else 0.0


def layer_metrics(tracer, requests: int, peak_alloc: float) -> dict:
    t = tracer.totals()
    c = tracer.counts
    ms = lambda seconds: _per_request(seconds * 1e3, requests)  # noqa: E731
    ratio = lambda part, whole: part / whole if whole else 0.0  # noqa: E731
    validate_calls = t["validate.validate"]["calls"]
    digest_calls = t["canon.model_digest"]["calls"]
    return {
        "cli.interpreter_ms": (ms(c["cli.interpreter_s"]), "ms"),
        "cli.import_ms": (ms(c["cli.import_s"]), "ms"),
        "cli.command_ms": (ms(c["cli.command_s"]), "ms"),
        "model.spine_calls": (_per_request(t["model.spine"]["calls"], requests), "count"),
        "model.spine_ms": (ms(t["model.spine"]["total"]), "ms"),
        "model.construct_ms": (ms(t["model.construct"]["total"]), "ms"),
        "plan.repair_self_ms": (ms(t["plan.repair_plan"]["self"]), "ms"),
        "plan.assembly_self_ms": (ms(t["plan.assembly_recipe"]["self"]), "ms"),
        "plan.disassembly_self_ms": (ms(t["plan.disassembly_to"]["self"] + t["plan.full_disassembly"]["self"]), "ms"),
        "plan.steps_emitted": (_per_request(c["plan.steps_emitted"], requests), "count"),
        "execute.run_self_ms": (ms(t["execute.run"]["self"]), "ms"),
        "execute.steps_applied": (_per_request(c["execute.steps_applied"], requests), "count"),
        "execute.peak_alloc_mb": (peak_alloc / 2**20, "MB"),
        "validate.calls": (_per_request(validate_calls, requests), "count"),
        "validate.ms": (ms(t["validate.validate"]["total"]), "ms"),
        "validate.repeat_ratio": (ratio(c["validate.repeats"], validate_calls), "ratio"),
        "canon.digest_calls": (_per_request(digest_calls, requests), "count"),
        "canon.digest_ms": (ms(t["canon.model_digest"]["total"]), "ms"),
        "canon.digest_repeat_ratio": (ratio(c["digest.repeats"], digest_calls), "ratio"),
        "canon.encode_ms": (ms(t["canon.canonical_bytes"]["total"]), "ms"),
        "io.load_model_ms": (ms(t["io.load_model"]["total"]), "ms"),
        "io.save_plan_ms": (ms(t["io.save_plan"]["total"]), "ms"),
        "io.bytes_in": (_per_request(c["io.bytes_in"], requests), "bytes"),
        "io.bytes_out": (_per_request(c["io.bytes_out"], requests), "bytes"),
        "io.instance_read_ms": (ms(t["io.read_instance_file"]["total"]), "ms"),
        "io.instance_write_ms": (ms(t["io.write_instance_file"]["total"]), "ms"),
        "pdt.set_health_ms": (ms(t["pdt.set_health"]["total"]), "ms"),
        "pdt.plan_repair_for_self_ms": (ms(t["pdt.plan_repair_for"]["self"]), "ms"),
        "pdt.events_per_read": (ratio(c["pdt.events_read"], t["io.read_instance_file"]["calls"]), "count"),
    }


def layer_seconds(tracer) -> dict[str, float]:
    """Busy time of each growth layer in one traced sweep step (see bench/README.md)."""
    t = tracer.totals()
    own = lambda *names: sum(t[n]["self"] for n in names)  # noqa: E731
    return {
        "io": own("io.load_model", "io.save_plan"),
        "validate": t["validate.validate"]["total"],
        "canon": own("canon.model_digest", "canon.canonical_bytes"),
        "plan": own("plan.assembly_recipe", "plan.repair_plan") + t["model.spine"]["total"],
        "execute": own("execute.run", "execute.initial_inventory"),
    }


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def sweep(seed: int, failures: list[str]) -> tuple[dict, dict]:
    """Time each growth layer on chain and bushy models of SWEEP_NODES sizes; fit log-log slopes."""
    from bipan import execute, io, plan

    points: dict[str, dict] = {}
    for shape in SWEEP_SHAPES:
        rows = []
        for nodes in SWEEP_NODES:
            g = gen.generate(shape, seed, nodes)
            structure = checks.Structure.from_bytes(g.data)
            broken = sorted({g.deepest_leaf(), *g.leaves[:3]})
            replacements = {b: f"{b}.r" for b in broken}
            best: dict[str, float] = {}
            for _ in range(3 if nodes <= 2000 else 1):  # the fastest repeat of small, noisy sizes
                tracer = Tracer()
                tracer.install()
                try:
                    model = io.load_model(g.data)
                    assembly = plan.assembly_recipe(model)
                    execute.run(assembly, execute.initial_inventory(model), model)
                    repair = plan.repair_plan(model, broken, replacements)
                    payload = io.save_plan(repair)
                    start = execute.ExecState(frozenset({structure.final, *replacements.values()}), {})
                    execute.run(repair, start, model)
                finally:
                    tracer.uninstall()
                for layer, seconds in layer_seconds(tracer).items():
                    best[layer] = min(best.get(layer, math.inf), seconds)
            try:
                checks.check_assembly(structure, checks.steps_from_plan(assembly))
                checks.check_repair(structure, checks.steps_from_doc(json.loads(payload)), replacements)
            except checks.CheckFailed as exc:
                failures.append(f"sweep {shape}-{nodes}: {exc}")
            spine_calls = tracer.totals()["model.spine"]["calls"]
            rows.append({"nodes": g.nodes, "spine_calls": spine_calls,
                         **{f"{k}_ms": round(v * 1e3, 3) for k, v in best.items()}})
        points[shape] = {
            "points": rows,
            "growth": {layer: round(slope([r["nodes"] for r in rows], [r[f"{layer}_ms"] for r in rows]), 3)
                       for layer in GROWTH_LAYERS},
        }
    growth = {f"{layer}.growth": (max(points[s]["growth"][layer] for s in SWEEP_SHAPES), "slope")
              for layer in GROWTH_LAYERS}
    return growth, points


def probe(seed: int, workdir: Path) -> tuple[dict, Outcome]:
    """Per-layer metrics of one traced cli-small cycle, which reaches every layer."""
    import workloads

    wl, _, warm = set_up(workloads.CliSmall, seed, workdir)
    tracer = Tracer()
    cycle = run_cycles(wl, 0.0, tracer)
    cycle.failures[:0] = warm.failures
    cycle.attempted += warm.attempted
    return layer_metrics(tracer, cycle.attempted - warm.attempted, 0.0), cycle


def traced(cls, args, workdir: Path, info: dict) -> tuple[Outcome, dict]:
    wl, _, warm = set_up(cls, args.seed, workdir / "setup0")
    info.update(sizes=wl.sizes, inputs_sha256=wl.inputs.hexdigest(), outputs_sha256=warm.payload.hexdigest())
    untraced = run_cycles(wl, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_run = run_cycles(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    alloc = Tracer(alloc_only=True)
    alloc.install()
    try:
        alloc_run = run_cycles(wl, 0.0)
    finally:
        alloc.uninstall()

    outcome = Outcome()
    outcome.failures = warm.failures + untraced.failures + traced_run.failures + alloc_run.failures
    growth, points = sweep(args.seed, outcome.failures)
    outcome.attempted = (warm.attempted + untraced.attempted + traced_run.attempted + alloc_run.attempted
                         + len(SWEEP_SHAPES) * len(SWEEP_NODES))

    requests = traced_run.attempted
    metrics = layer_metrics(tracer, requests, alloc.counts["execute.peak_alloc_bytes"])
    metrics.update(growth)
    # A layer the workload never reaches would read 0 ms on every run; take those
    # layers from one traced cli-small cycle instead, and say which they are.
    unreached = [k for k, (v, unit) in metrics.items() if v == 0 and unit != "ratio"]
    probed = []
    if any(metrics[k][1] == "ms" for k in unreached):
        probe_metrics, probe_run = probe(args.seed, workdir / "probe")
        outcome.failures += probe_run.failures
        outcome.attempted += probe_run.attempted
        probed = [k for k in unreached if probe_metrics[k][0] != 0]
        metrics.update({k: probe_metrics[k] for k in probed})

    mean = lambda o: statistics.fmean(o.latencies) if o.latencies else 0.0  # noqa: E731
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{cls.name}-seed{args.seed}.jsonl"
    tracer.dump(spans_path, origin=tracer.spans[0][1] if tracer.spans else 0.0)
    info.update(
        traced_requests=requests, untraced_requests=untraced.attempted,
        longest_spine=int(tracer.counts["model.spine_longest"]),
        tracing_overhead_ratio=round(mean(traced_run) / mean(untraced) - 1, 4) if mean(untraced) else None,
        untraced_mean_ms=round(mean(untraced) * 1e3, 3), traced_mean_ms=round(mean(traced_run) * 1e3, 3),
        missing_targets=tracer.missing, unobserved_targets=sorted(tracer.unobserved),
        spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)),
        not_exercised=sorted(unreached), taken_from_cli_probe=sorted(probed),
        waiting=NOT_WAITING, sweep=points,
    )
    return outcome, metrics


# -- main -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bipan" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'bipan'}; run from a bipan checkout",
              file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / f"{cls.name}-{os.getpid()}"
    info = {"workload": cls.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "load_model": "closed loop, 1 client, no threads"}
    try:
        run = traced if args.trace else end_to_end
        outcome, metrics = run(cls, args, workdir, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for message in outcome.failures[:5]:
        print(f"FAILED: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
