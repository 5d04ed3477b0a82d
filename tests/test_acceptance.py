"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines even when everything passes.
"""

import functools
import time

from bipan import exchange, io
from bipan.execute import ExecState, initial_inventory, run
from bipan.fixtures import battery_model
from bipan.model import Direction, ProductKind
from bipan.pdt import Health, create_instance, plan_repair_for, set_health
from bipan.plan import (
    DisassemblyMode,
    assembly_recipe,
    check_feasibility,
    disassembly_to,
    full_disassembly,
    repair_plan,
)
from bipan.validate import validate
from conftest import FIXTURES
from mutations import MUTANTS
from strategies import acceptance_corpus

REPAIR_MOD8_SEQUENCE = (
    (Direction.REVERSE, "p5"),
    (Direction.REVERSE, "p4"),
    (Direction.REVERSE, "p3"),
    (Direction.SWAP, "p2"),
    (Direction.FORWARD, "p3"),
    (Direction.FORWARD, "p4"),
    (Direction.FORWARD, "p5"),
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


@functools.lru_cache(maxsize=1)
def corpus():
    return tuple(acceptance_corpus(200))


@criterion(1, "fixture fidelity")
def test_1_fixture_fidelity():
    started = time.perf_counter()
    shipped = (FIXTURES / "f1.bipan.json").read_bytes()
    model = io.load_model(shipped)

    assert model == battery_model()
    assert io.save_model(model) == shipped

    assert len(model.processes) == 5
    kinds = {}
    for product in model.products:
        kinds.setdefault(product.kind, []).append(product.id)
    assert len(kinds[ProductKind.STAGE]) == 4
    assert len(kinds[ProductKind.FINAL]) == 1
    assert len(model.leaf_products()) == 23

    plan = assembly_recipe(model)
    assert plan.process_sequence() == ("p1", "p2", "p3", "p4", "p5")
    by_process = {step.process: step.required_skills for step in plan.steps}
    assert by_process["p2"] == ("connecting-cables", "manipulation", "screwing")
    assert io.save_plan(plan) == (FIXTURES / "f1_assembly.plan.json").read_bytes()

    assert time.perf_counter() - started < 1.0


@criterion(2, "single-module repair sequence")
def test_2_repair_sequence():
    model = battery_model()
    plan = repair_plan(model, ["mod8"], {"mod8": "mod8r"})
    assert tuple((s.direction, s.process) for s in plan.steps) == REPAIR_MOD8_SEQUENCE
    assert len(plan.steps) == 7
    swap = plan.steps[3]
    assert swap.swap_target == "mod8" and swap.swap_replacement == "mod8r"


@criterion(3, "assembly/disassembly round trip x200")
def test_3_round_trip_property():
    for model in corpus():
        total_nodes = len(model.products) + len(model.processes) + len(model.skills)
        assert total_nodes <= 50
        start = initial_inventory(model)
        assembled = run(assembly_recipe(model), start, model).final
        assert assembled.present == frozenset(model.final_products())
        restored = run(full_disassembly(model), assembled, model).final
        assert restored.present == start.present


@criterion(4, "oracle soundness of every planner")
def test_4_oracle_soundness():
    for model in corpus():
        (final,) = model.final_products()
        final_state = ExecState(frozenset({final}), {})
        run(assembly_recipe(model), initial_inventory(model), model)
        run(full_disassembly(model), final_state, model)
        components = []
        for product in model.products:
            if product.kind is ProductKind.FINAL:
                continue
            for mode in DisassemblyMode:
                run(disassembly_to(model, product.id, mode), final_state, model)
            if product.kind is not ProductKind.STAGE:
                components.append(product.id)
        broken = components[: max(1, len(components) // 3)]
        replacements = {b: f"{b}.new" for b in broken}
        plan = repair_plan(model, broken, replacements)
        start = ExecState(frozenset({final, *replacements.values()}), {})
        end = run(plan, start, model).final
        assert end.present == frozenset({final, *broken})


@criterion(5, "validation mutation coverage V001-V008")
def test_5_validation_mutations():
    model = battery_model()
    assert validate(model).items == ()
    for code in (f"V{i:03d}" for i in range(1, 9)):
        mutate, _ = MUTANTS[code]
        findings = validate(mutate(model))
        assert findings.items, f"{code}: mutation produced zero findings"
        assert code in {d.code for d in findings.items}


@criterion(6, "skill inversion")
def test_6_skill_inversion():
    model = battery_model()
    reverse = full_disassembly(model)
    by_process = {step.process: step.required_skills for step in reverse.steps}
    assert by_process["p2"] == ("disconnecting-cables", "manipulation", "unscrewing")


@criterion(7, "resource feasibility gap")
def test_7_feasibility():
    model = battery_model()
    plan = assembly_recipe(model)
    missing = check_feasibility(plan, {"manipulation", "screwing"})
    assert any(missing)
    gaps = {i: m for i, m in enumerate(missing) if m}
    p2_index = plan.process_sequence().index("p2")
    assert gaps == {p2_index: ("connecting-cables",)}

    assert not any(check_feasibility(plan, {"manipulation", "screwing", "connecting-cables"}))


@criterion(8, "serialization identity and CAEX import")
def test_8_serialization():
    for model in corpus():
        data = io.save_model(model)
        assert io.load_model(data) == model
        assert io.save_model(io.load_model(data)) == data

    fragment = exchange.import_aml((FIXTURES / "battery.aml").read_bytes())
    assert len(fragment.products) == 10
    mod1 = next(p for p in fragment.products if p.id == "mod1")
    assert mod1.position == (1.0, 0.5, 0.1)

    model = battery_model()
    merged = exchange.merge(fragment, model)
    assert merged.flows == model.flows
    assert merged.processes == model.processes
    assert merged.skills == model.skills
    assert len(merged.products) == len(model.products)
    assert {p.id for p in merged.products if p.position is not None} == {
        f"mod{i}" for i in range(1, 9)
    }


@criterion(9, "twin-driven repair flow")
def test_9_pdt_flow(tmp_path):
    model = battery_model()
    twin = create_instance("VIN-001", model)
    twin = set_health(twin, "mod8", Health.BROKEN, "2024-05-01T10:00:00Z")
    twin, plan = plan_repair_for(twin, model, {"mod8": "mod8r"}, "2024-05-01T11:00:00Z")
    assert plan == repair_plan(model, ["mod8"], {"mod8": "mod8r"})
    assert tuple((s.direction, s.process) for s in plan.steps) == REPAIR_MOD8_SEQUENCE

    path = io.write_instance_file(twin, tmp_path)
    first = path.read_bytes()
    loaded = io.read_instance_file(tmp_path, "VIN-001")
    assert loaded == twin
    io.write_instance_file(loaded, tmp_path)
    assert path.read_bytes() == first
