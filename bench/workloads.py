"""The four benchmark workloads: inputs, requests and output checks.

Each workload builds its inputs from the seed in ``setup`` and then offers a
fixed ``cycle`` of requests. The runner sends them one at a time (a closed loop
with one client), calling ``prepare`` untimed, ``request`` timed, and ``check``
untimed; ``check`` raises ``CheckFailed`` or returns the payload bytes that go
into ``outputs_sha256``. Every request in a cycle leaves the inputs as the next
cycle expects them, so cycles are identical and per-request layer counts
repeat exactly.

Library calls go through module attributes (``io.load_model``), so the tracer's
wrappers see them. Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

import datetime
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
from checks import CheckFailed, Structure, expect

from bipan import canon, execute, io, pdt, plan

validation = importlib.import_module("bipan.validate")  # the package re-binds the name to the function

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = Path("tests") / "fixtures"


class Workload:
    name = ""
    probe = "cpu"  # the host-speed probe that scales its times (see speed.py)

    def __init__(self) -> None:
        self.cycle: list = []
        self.sizes: dict[str, int] = {}
        self.inputs = hashlib.sha256()  # over every generated input, to compare set-ups

    def validated(self, g: gen.Generated) -> Structure:
        """Load a generated model; it must validate without errors and re-save to the same bytes."""
        self.inputs.update(g.data)
        model = io.load_model(g.data)
        diags = validation.validate(model)
        expect(not diags.has_errors, f"{g.shape} model from seed {g.seed} fails validation: {diags.codes()}")
        expect(io.save_model(model) == g.data, f"{g.shape} model does not re-save byte-identically")
        return Structure.from_bytes(g.data)

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def prepare(self, req) -> None:
        """Untimed work before a request, such as restoring a twin file."""

    def request(self, req):
        raise NotImplementedError

    def traced_request(self, req, tracer):
        """The request, with ``tracer`` installed in this process."""
        return self.request(req)

    def check(self, req, out) -> bytes:
        raise NotImplementedError


# -- deep-chain -----------------------------------------------------------------


@dataclass
class ModelRequest:
    label: str
    data: bytes
    structure: Structure
    broken: list[str]
    replacements: dict[str, str]
    targets: list[tuple[str, bool]] = field(default_factory=list)  # (target, extract)


def _replacements(broken: list[str]) -> dict[str, str]:
    return {b: f"{b}.r" for b in broken}


class DeepChain(Workload):
    """Repair the deepest leaf and a few others, replay, then assemble and replay."""

    name = "deep-chain"
    NODES = (1050, 1150, 1260, 1385, 1520)

    def setup(self, seed: int, workdir: Path) -> None:
        for nodes in self.NODES:
            g = gen.generate("chain", seed, nodes)
            structure = self.validated(g)
            rng = random.Random(f"{self.name}:{seed}:{nodes}")
            broken = sorted({g.deepest_leaf(), *rng.sample(g.leaves, 3)})
            self.cycle.append(ModelRequest(f"chain-{g.nodes}", g.data, structure, broken, _replacements(broken)))
            self.sizes[f"chain-{g.nodes}"] = g.nodes

    def request(self, req: ModelRequest):
        model = io.load_model(req.data)
        repair = plan.repair_plan(model, req.broken, req.replacements)
        payload = io.save_plan(repair)
        start = execute.ExecState(frozenset({req.structure.final, *req.replacements.values()}), {})
        repaired = execute.run(repair, start, model).final
        assembly = plan.assembly_recipe(model)
        assembled = execute.run(assembly, execute.initial_inventory(model), model).final
        return payload, repaired, assembly, assembled

    def check(self, req: ModelRequest, out) -> bytes:
        payload, repaired, assembly, assembled = out
        s = req.structure
        checks.check_repair(s, checks.steps_from_doc(json.loads(payload)), req.replacements)
        checks.check_state(repaired.present, repaired.substitutions,
                           {s.final, *req.broken}, req.replacements, "repair run")
        asm_steps = checks.steps_from_plan(assembly)
        checks.check_assembly(s, asm_steps)
        checks.check_state(assembled.present, assembled.substitutions, {s.final}, {}, "assembly run")
        return payload + "\n".join(step.process for step in asm_steps).encode()


# -- shallow-wide ---------------------------------------------------------------


class ShallowWide(Workload):
    """Repair 50 parts, replay, and disassemble to a few targets on shallow models."""

    name = "shallow-wide"
    MODELS = (("bushy", 1100), ("wide", 1250), ("bushy", 1450), ("wide", 1700), ("bushy", 2000))
    BROKEN = 50

    def setup(self, seed: int, workdir: Path) -> None:
        for shape, nodes in self.MODELS:
            g = gen.generate(shape, seed, nodes)
            structure = self.validated(g)
            rng = random.Random(f"{self.name}:{seed}:{shape}:{nodes}")
            broken = sorted(rng.sample(g.leaves, self.BROKEN))
            targets = [(g.deepest_leaf(), True), (rng.choice(g.leaves), False), (rng.choice(g.leaves), True)]
            label = f"{shape}-{g.nodes}"
            self.cycle.append(ModelRequest(label, g.data, structure, broken, _replacements(broken), targets))
            self.sizes[label] = g.nodes

    def request(self, req: ModelRequest):
        model = io.load_model(req.data)
        repair = plan.repair_plan(model, req.broken, req.replacements)
        payload = io.save_plan(repair)
        start = execute.ExecState(frozenset({req.structure.final, *req.replacements.values()}), {})
        repaired = execute.run(repair, start, model).final
        modes = {True: plan.DisassemblyMode.EXTRACT, False: plan.DisassemblyMode.EXPOSE}
        partial = [plan.disassembly_to(model, target, modes[extract]) for target, extract in req.targets]
        return payload, repaired, partial

    def check(self, req: ModelRequest, out) -> bytes:
        payload, repaired, partial = out
        s = req.structure
        checks.check_repair(s, checks.steps_from_doc(json.loads(payload)), req.replacements)
        checks.check_state(repaired.present, repaired.substitutions,
                           {s.final, *req.broken}, req.replacements, "repair run")
        digest = [payload]
        for (target, extract), part in zip(req.targets, partial):
            steps = checks.steps_from_plan(part)
            checks.check_disassembly(s, steps, target, extract)
            digest.append(f"{target}:{','.join(step.process for step in steps)}".encode())
        return b"\n".join(digest)


# -- twin-log -------------------------------------------------------------------


HEALTHS = ("ok", "degraded", "broken", "unknown")
EPOCH = 1_700_000_000  # 2023-11-14T22:13:20Z; seeded logs count minutes from here


def _timestamp(minute: int) -> str:
    moment = datetime.datetime.fromtimestamp(EPOCH + 60 * minute, tz=datetime.timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class TwinRequest:
    twin: str
    reset: bool
    kind: str  # "health" or "plan"
    timestamp: str
    component: str = ""
    health: str = ""
    event: dict = field(default_factory=dict)  # expected appended event ("plan": filled from the plan)
    health_map: dict = field(default_factory=dict)  # expected health after the request
    broken: tuple[str, ...] = ()


class TwinLog(Workload):
    """Set-health round trips through twin files, with a repair plan every K-th request."""

    name = "twin-log"
    MODEL_NODES = 400
    LOG_LENGTHS = (1000, 1150, 1300, 1500, 1750, 2000)
    WINDOW = 5  # appends per twin before its file is restored to the seeded log
    K = 5
    PINNED_BROKEN = 2  # components kept Broken so every plan request has work

    def setup(self, seed: int, workdir: Path) -> None:
        g = gen.generate("bushy", seed, self.MODEL_NODES)
        self.structure = self.validated(g)
        self.dir = workdir / "twins"
        self.dir.mkdir()
        self.model_path = workdir / "twin-model.bipan.json"
        self.model_path.write_bytes(g.data)
        self.sizes = {"model": g.nodes}
        model = io.load_model(g.data)
        digest = canon.model_digest(model)
        rng = random.Random(f"{self.name}:{seed}")
        components = sorted(g.leaves)
        self.replacements = _replacements(components)
        pinned = rng.sample(components, self.PINNED_BROKEN)
        free = [c for c in components if c not in pinned]

        self.seeded: dict[str, tuple[bytes, list[dict]]] = {}
        health_now: dict[str, dict[str, str]] = {}
        for j, length in enumerate(self.LOG_LENGTHS):
            twin = f"T{j}"
            health = {c: "Unknown" for c in components}
            events = []
            for e in range(length):
                component = pinned[e] if e < len(pinned) else rng.choice(free)
                value = "Broken" if e < len(pinned) else rng.choice(HEALTHS).capitalize()
                health[component] = value
                events.append({"kind": "health-update", "payload": {"component": component, "health": value},
                               "timestamp": _timestamp(e)})
            doc = {"events": events, "health": health, "instance_id": twin,
                   "model_digest": digest, "model_id": json.loads(g.data)["id"]}
            data = gen.canonical(doc)
            self.inputs.update(data)
            expect(io.save_instance(io.load_instance(data)) == data, f"twin {twin} does not re-save identically")
            self.seeded[twin] = (data, events)
            health_now[twin] = health
            self.sizes[f"{twin}-events"] = length

        for r in range(len(self.LOG_LENGTHS) * self.WINDOW):
            j, appended = r % len(self.LOG_LENGTHS), r // len(self.LOG_LENGTHS)
            twin = f"T{j}"
            health = dict(health_now[twin])
            req = TwinRequest(twin, appended == 0, "plan" if r % self.K == self.K - 1 else "health",
                              _timestamp(self.LOG_LENGTHS[j] + appended))
            if req.kind == "health":
                req.component, req.health = rng.choice(free), rng.choice(HEALTHS)
                health[req.component] = req.health.capitalize()
                req.event = {"kind": "health-update", "timestamp": req.timestamp,
                             "payload": {"component": req.component, "health": req.health.capitalize()}}
            else:
                req.broken = tuple(sorted(c for c, h in health.items() if h == "Broken"))
            req.health_map = health_now[twin] = health
            self.cycle.append(req)
        self.log: dict[str, list[dict]] = {}

    def _file(self, twin: str) -> Path:
        return self.dir / f"{twin}.pdt.json"

    def prepare(self, req: TwinRequest) -> None:
        if req.reset:
            data, events = self.seeded[req.twin]
            self._file(req.twin).write_bytes(data)
            self.log[req.twin] = list(events)

    def request(self, req: TwinRequest):
        twin = io.read_instance_file(self.dir, req.twin)
        if req.kind == "health":
            updated = pdt.set_health(twin, req.component, pdt.Health(req.health.capitalize()), req.timestamp)
            io.write_instance_file(updated, self.dir)
            return None
        model = io.load_model(self.model_path.read_bytes())
        updated, repair = pdt.plan_repair_for(twin, model, self.replacements, req.timestamp)
        io.write_instance_file(updated, self.dir)
        return io.save_plan(repair)

    def check(self, req: TwinRequest, out) -> bytes:
        data = self._file(req.twin).read_bytes()
        doc = json.loads(data)
        event = req.event
        if req.kind == "plan":
            used = {b: self.replacements[b] for b in req.broken}
            steps = checks.steps_from_doc(json.loads(out))
            checks.check_repair(self.structure, steps, used)
            event = {"kind": "plan-created", "timestamp": req.timestamp, "payload": {
                "broken": ",".join(req.broken),
                "replacements": ",".join(f"{b}={r}" for b, r in used.items()),
                "steps": str(len(steps))}}
            data += out
        log = self.log[req.twin]
        expect(len(doc["events"]) == len(log) + 1, f"{req.twin}: expected exactly one more event")
        expect(doc["events"][-1] == event, f"{req.twin}: appended event differs")
        expect(doc["events"][:-1] == log, f"{req.twin}: earlier events changed")
        expect(doc["health"] == req.health_map, f"{req.twin}: health map differs")
        log.append(event)
        return data


# -- cli-small ------------------------------------------------------------------


@dataclass
class CliRequest:
    argv: list[str]
    fresh_twin: bool = False
    golden: bytes | None = None
    check: object = None  # extra check on the stdout of the first call


class CliSmall(Workload):
    """One ``python -m bipan.cli`` subprocess per request, cycling a fixed command mix."""

    name = "cli-small"
    probe = "spawn"
    TWIN = "VIN-1"

    def __init__(self) -> None:
        super().__init__()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        rel = workdir.relative_to(ROOT)
        f1, aml = str(FIXTURES / "f1.bipan.json"), str(FIXTURES / "battery.aml")
        repair = str(FIXTURES / "f1_repair_mod8.plan.json")
        f1_structure = Structure.from_bytes((ROOT / f1).read_bytes())
        models = {}
        for shape, nodes in (("bushy", 40), ("chain", 45)):
            g = gen.generate(shape, seed, nodes)
            path = workdir / f"{shape}.bipan.json"
            path.write_bytes(g.data)
            models[shape] = (str(rel / path.name), g, self.validated(g))
            self.sizes[f"{shape}-{g.nodes}"] = g.nodes
        rng = random.Random(f"{self.name}:{seed}")
        bushy, bushy_g, bushy_s = models["bushy"]
        chain, chain_g, chain_s = models["chain"]
        broken = rng.choice(bushy_g.leaves)
        target = chain_g.deepest_leaf()
        twins = str(rel / "twins")
        (workdir / "twins").mkdir()
        self.twin_file = workdir / "twins" / f"{self.TWIN}.pdt.json"

        def plan_check(structure, kind, *args):
            def run(stdout: bytes) -> None:
                steps = checks.steps_from_doc(json.loads(stdout))
                getattr(checks, f"check_{kind}")(structure, steps, *args)
            return run

        def exec_check(stdout: bytes) -> None:
            final = json.loads(stdout)["final"]
            checks.check_state(final["present"], final["substitutions"],
                               {"battery", "mod8"}, {"mod8": "mod8r"}, "exec")

        self.cycle = [
            CliRequest(["validate", f1]),
            CliRequest(["validate", bushy, "--format", "json"]),
            CliRequest(["plan", "assemble", f1], check=plan_check(f1_structure, "assembly")),
            CliRequest(["plan", "disassemble", chain, "--target", target, "--mode", "extract"],
                       check=plan_check(chain_s, "disassembly", target, True)),
            CliRequest(["plan", "repair", bushy, "--broken", broken, "--replace", f"{broken}={broken}.r"],
                       check=plan_check(bushy_s, "repair", {broken: f"{broken}.r"})),
            CliRequest(["exec", repair, f1, "--inventory", "final", "--format", "json"], check=exec_check),
            CliRequest(["export-dot", f1, "--plan", repair]),
            CliRequest(["import-aml", aml, "--merge", f1]),
            CliRequest(["pdt", "new", self.TWIN, f1, "--dir", twins], fresh_twin=True),
            CliRequest(["pdt", "set-health", self.TWIN, "mod8", "broken", "--at", "2024-05-01T10:00:00Z",
                        "--dir", twins]),
            CliRequest(["pdt", "plan-repair", self.TWIN, "--model", f1, "--replace", "mod8=mod8r",
                        "--at", "2024-05-01T11:00:00Z", "--dir", twins],
                       check=plan_check(f1_structure, "repair", {"mod8": "mod8r"})),
            CliRequest(["pdt", "log", self.TWIN, "--dir", twins, "--format", "json"]),
        ]

    def prepare(self, req: CliRequest) -> None:
        if req.fresh_twin and self.twin_file.exists():
            self.twin_file.unlink()

    def request(self, req: CliRequest):
        return subprocess.run([sys.executable, "-m", "bipan.cli", *req.argv], cwd=ROOT, env=self.env,
                              capture_output=True, timeout=60)

    def traced_request(self, req: CliRequest, tracer):
        """Run the command through ``cli_child.py``, which traces it and times its import."""
        trace_file = self.workdir / "child-trace.json"
        spawned = time.perf_counter()
        out = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(trace_file), *req.argv],
                             cwd=ROOT, env=self.env, capture_output=True, timeout=60)
        child = json.loads(trace_file.read_text(encoding="utf-8"))
        tracer.merge(child)
        tracer.counts["cli.interpreter_s"] += child["started"] - spawned
        tracer.counts["cli.import_s"] += child["import_s"]
        tracer.counts["cli.command_s"] += child["command_s"]
        return out

    def check(self, req: CliRequest, out) -> bytes:
        if out.returncode != 0:
            raise CheckFailed(f"{' '.join(req.argv[:2])}: exit {out.returncode}: {out.stderr.decode()[-300:]}")
        if req.golden is None:
            if req.check is not None:
                req.check(out.stdout)
            req.golden = out.stdout
        expect(out.stdout == req.golden, f"{' '.join(req.argv[:2])}: stdout differs from the warm-up call")
        return out.stdout


WORKLOADS = {cls.name: cls for cls in (DeepChain, ShallowWide, TwinLog, CliSmall)}
