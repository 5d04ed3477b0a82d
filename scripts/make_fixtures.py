#!/usr/bin/env python3
"""Regenerate the generated golden files under tests/fixtures/.

Everything written here is deterministic; rerunning must be a no-op on a clean
checkout. battery.aml is a hand-authored input fixture and is not touched.
"""

from __future__ import annotations

from pathlib import Path

from bipan import canon, exchange, io
from bipan.fixtures import battery_model
from bipan.plan import assembly_recipe, repair_plan

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main() -> None:
    model = battery_model()
    FIXTURES.mkdir(parents=True, exist_ok=True)

    (FIXTURES / "f1.bipan.json").write_bytes(io.save_model(model))
    (FIXTURES / "f1_assembly.plan.json").write_bytes(io.save_plan(assembly_recipe(model)))
    (FIXTURES / "f1_repair_mod8.plan.json").write_bytes(
        io.save_plan(repair_plan(model, ["mod8"], {"mod8": "mod8r"}))
    )
    (FIXTURES / "f1.dot").write_bytes(exchange.export_dot(model).encode("utf-8"))

    registries = {
        "registry_full.json": {
            "id": "flex-cell-1",
            "skills": [
                "connecting-cables",
                "disconnecting-cables",
                "manipulation",
                "screwing",
                "unscrewing",
            ],
        },
        "registry_no_cables.json": {
            "id": "station-a",
            "skills": ["manipulation", "screwing", "unscrewing"],
        },
    }
    for name, resource in registries.items():
        (FIXTURES / name).write_bytes(canon.canonical_bytes({"resources": [resource]}))

    for name in sorted(p.name for p in FIXTURES.iterdir()):
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
