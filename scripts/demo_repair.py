#!/usr/bin/env python3
"""End-to-end walkthrough: model a battery, break a module, plan and replay the repair.

Run with: python scripts/demo_repair.py
"""

from __future__ import annotations

from bipan.execute import ExecState, initial_inventory, run
from bipan.fixtures import battery_model
from bipan.pdt import Health, create_instance, plan_repair_for, set_health
from bipan.plan import assembly_recipe, check_feasibility
from bipan.validate import validate


def main() -> None:
    model = battery_model()
    diags = validate(model)
    print(f"model '{model.id}': {len(diags.items)} findings")

    assembly = assembly_recipe(model)
    trace = run(assembly, initial_inventory(model), model)
    print(f"assembled {len(assembly.steps)} steps -> present: {sorted(trace.final.present)}")

    twin = create_instance("VIN-001", model)
    twin = set_health(twin, "mod8", Health.BROKEN, "2024-05-01T10:00:00Z")
    twin, repair = plan_repair_for(twin, model, {"mod8": "mod8r"}, "2024-05-01T11:00:00Z")
    print(f"repair plan for {twin.broken_components()}:")
    for i, step in enumerate(repair.steps):
        print(f"  step {i}: {step.direction.value:7s} {step.process}  "
              f"skills: {', '.join(step.required_skills)}")

    flex_cell = {
        "manipulation",
        "screwing",
        "unscrewing",
        "connecting-cables",
        "disconnecting-cables",
    }
    missing = check_feasibility(repair, flex_cell)
    print(f"feasible on flex-cell-1: {not any(missing)}")

    start = ExecState(frozenset({"battery", "mod8r"}), {})
    replay = run(repair, start, model)
    print(f"after repair -> present: {sorted(replay.final.present)}, "
          f"substitutions: {replay.final.substitutions}")
    for event in twin.events:
        print(f"event {event.timestamp} {event.kind}")


if __name__ == "__main__":
    main()
