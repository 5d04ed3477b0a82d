"""Tests of the benchmark itself: generator, checks, tracer, and a tiny run of each workload.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from bipan import io, plan  # noqa: E402
from bipan.fixtures import battery_model  # noqa: E402
from bipan.validate import validate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("model.spine_calls", "plan.steps_emitted", "execute.steps_applied", "validate.calls", "canon.digest_calls")
TINY = {
    workloads.DeepChain: {"NODES": (60, 120, 200)},
    workloads.ShallowWide: {"MODELS": (("bushy", 120), ("wide", 150), ("bushy", 200)), "BROKEN": 5},
    workloads.TwinLog: {"MODEL_NODES": 60, "LOG_LENGTHS": (5, 20), "WINDOW": 3},
}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every size so a full run takes seconds."""
    for cls, attrs in TINY.items():
        for name, value in attrs.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(run, "SWEEP_NODES", (60, 120, 240))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def bench(capsys, workload: str, trace: int, seed: int = 5):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("shape", gen.SHAPES)
def test_generator_is_deterministic_per_seed(shape):
    first = gen.generate(shape, 7, 300)
    assert first.data == gen.generate(shape, 7, 300).data
    assert first.data != gen.generate(shape, 8, 300).data


@pytest.mark.parametrize("shape", gen.SHAPES)
@pytest.mark.parametrize("nodes", [25, 400, 8000])
def test_generated_models_validate_cleanly(shape, nodes):
    g = gen.generate(shape, 3, nodes)
    model = io.load_model(g.data)
    assert validate(model).items == ()
    assert io.save_model(model) == g.data
    assert abs(g.nodes - nodes) <= max(10, nodes // 20)


def test_shallow_shapes_stay_shallow_and_chains_are_deep():
    assert max(gen.generate("bushy", 1, 8000).leaf_depth.values()) <= 7
    assert max(gen.generate("wide", 1, 8000).leaf_depth.values()) == 1
    assert max(gen.generate("chain", 1, 1000).leaf_depth.values()) == 200


def test_checks_reject_wrong_plans():
    g = gen.generate("chain", 1, 60)
    structure = checks.Structure.from_bytes(g.data)
    model = io.load_model(g.data)
    leaf = g.deepest_leaf()
    replacements = {leaf: f"{leaf}.r"}
    repair = checks.steps_from_plan(plan.repair_plan(model, [leaf], replacements))
    checks.check_repair(structure, repair, replacements)
    with pytest.raises(checks.CheckFailed):
        checks.check_repair(structure, repair[:-1], replacements)
    assembly = checks.steps_from_plan(plan.assembly_recipe(model))
    checks.check_assembly(structure, assembly)
    with pytest.raises(checks.CheckFailed):
        checks.check_assembly(structure, assembly[::-1])


def test_speed_scales_each_wall_time_by_the_probes_around_it():
    s = speed.Speed("cpu")
    s.probes = [s.nominal, 2 * s.nominal, 3 * s.nominal]
    assert s.scale([3.0, None]) == pytest.approx([1.5])  # the probes' median is 2x nominal
    assert s.factor() == pytest.approx(2.0)
    s.probes = [s.nominal] * 5 + [9 * s.nominal] * (2 * speed.WINDOW + 2) + [s.nominal] * 5
    scaled = s.scale([1.0] * (len(s.probes) - 1))
    assert scaled[0] == pytest.approx(1.0) and scaled[-1] == pytest.approx(1.0)
    assert scaled[len(scaled) // 2] == pytest.approx(1 / 9)  # a long slow phase is scaled away
    with pytest.raises(ValueError):
        s.scale([1.0])
    assert speed.cpu_probe() > 0


def test_tracer_tolerates_removed_targets_and_restores_originals(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "plan.gone", ("bipan.plan", "no_such_planner"))
    monkeypatch.setitem(tracer.TARGETS, "model.gone", ("bipan.model", "BiPanModel.no_such_method"))
    original = plan.assembly_recipe
    t = tracer.Tracer()
    t.install()
    try:
        plan.assembly_recipe(battery_model())
    finally:
        t.uninstall()
    totals = t.totals()
    assert {"plan.gone", "model.gone"} <= set(t.missing)
    assert totals["plan.gone"]["calls"] == 0
    assert totals["plan.assembly_recipe"]["calls"] == 1
    assert totals["validate.validate"]["calls"] == 1  # bound inside bipan.plan, still seen
    assert plan.assembly_recipe is original


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(tiny, capsys, workload, trace):
    code, info, result = bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in spec]
    for key in ("python", "nproc", "seed", "sizes", "outputs_sha256"):
        assert key in info
    if trace:
        assert [k for k, m in result["metrics"].items() if m["unit"] == "ms" and m["value"] == 0] == []
    else:
        assert info["samples"] >= 1 and "tail_percentile" in info


def test_traced_counts_repeat_exactly_and_spines_follow_depth(tiny, capsys):
    runs = [bench(capsys, "deep-chain", 1) for _ in range(2)]
    counts = [[r[2]["metrics"][name]["value"] for name in COUNTS] for r in runs]
    assert counts[0] == counts[1]
    assert runs[0][1]["outputs_sha256"] == runs[1][1]["outputs_sha256"]
    chain = [p["spine_calls"] for p in runs[0][1]["sweep"]["chain"]["points"]]
    assert chain == sorted(chain) and chain[0] < chain[-1]
    assert runs[0][1]["longest_spine"] == 40  # the 200-node chain has 40 stages
    _, info, _ = bench(capsys, "shallow-wide", 1)
    assert info["longest_spine"] <= 7


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
