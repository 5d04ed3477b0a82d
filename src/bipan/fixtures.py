"""Built-in demonstration model: a simplified electric-vehicle battery.

Five chained processes assemble 23 leaf components through four intermediate
stages into the final battery: cooling system and screws into the box (stage 1);
bolts, BMS, cables and eight modules (stage 2); bolts and five braces (stage 3);
the isolation blanket (stage 4); screws and the cover close the battery.
"""

from __future__ import annotations

from bipan.model import (
    BiPanModel,
    FlowRole,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
)

_STRUCTURE: tuple[tuple[str, tuple[str, ...], str, tuple[str, ...]], ...] = (
    ("p1", ("screws1", "cooling", "box"), "stage1", ("manipulation", "screwing")),
    (
        "p2",
        ("stage1", "bolts1", "bms", "cables") + tuple(f"mod{i}" for i in range(1, 9)),
        "stage2",
        ("manipulation", "screwing", "connecting-cables"),
    ),
    ("p3", ("stage2", "bolts2") + tuple(f"brace{i}" for i in range(1, 6)), "stage3",
     ("manipulation", "screwing")),
    ("p4", ("stage3", "blanket"), "stage4", ("manipulation",)),
    ("p5", ("stage4", "screws2", "cover"), "battery", ("manipulation", "screwing")),
)


def battery_model() -> BiPanModel:
    """The simplified EV battery network used throughout tests and the demo."""
    products = [
        ProductNode("screws1", "Screws", ProductKind.FASTENER, type_ref="screw-set"),
        ProductNode("cooling", "Cooling system", ProductKind.SUB_PRODUCT),
        ProductNode("box", "Battery box", ProductKind.ELEMENTARY),
        ProductNode("stage1", "Stage 1", ProductKind.STAGE),
        ProductNode("bolts1", "Bolts", ProductKind.FASTENER, type_ref="bolt-set"),
        ProductNode("bms", "BMS", ProductKind.SUB_PRODUCT),
        ProductNode("cables", "Cables", ProductKind.SUB_PRODUCT),
        *[
            ProductNode(f"mod{i}", f"Module {i}", ProductKind.SUB_PRODUCT, type_ref="battery-module")
            for i in range(1, 9)
        ],
        ProductNode("stage2", "Stage 2", ProductKind.STAGE),
        ProductNode("bolts2", "Bolts", ProductKind.FASTENER, type_ref="bolt-set"),
        *[
            ProductNode(f"brace{i}", f"Brace {i}", ProductKind.ELEMENTARY, type_ref="brace")
            for i in range(1, 6)
        ],
        ProductNode("stage3", "Stage 3", ProductKind.STAGE),
        ProductNode("blanket", "Isolation blanket", ProductKind.ELEMENTARY),
        ProductNode("stage4", "Stage 4", ProductKind.STAGE),
        ProductNode("screws2", "Screws", ProductKind.FASTENER, type_ref="screw-set"),
        ProductNode("cover", "Cover", ProductKind.ELEMENTARY),
        ProductNode("battery", "EV battery", ProductKind.FINAL),
    ]
    processes = [
        ProcessNode(pid, f"Process {pid[1:]}") for pid, _, _, _ in _STRUCTURE
    ]
    skills = [
        SkillNode("connecting-cables", "connecting-cables"),
        SkillNode("manipulation", "manipulation"),
        SkillNode("screwing", "screwing"),
    ]
    flows: list[tuple[str, str, FlowRole]] = []
    skill_edges: list[tuple[str, str]] = []
    for pid, inputs, output, skill_ids in _STRUCTURE:
        flows.extend((product, pid, FlowRole.INPUT) for product in inputs)
        flows.append((output, pid, FlowRole.OUTPUT))
        skill_edges.extend((pid, skill) for skill in skill_ids)
    return BiPanModel(
        id="ev-battery",
        products=tuple(products),
        processes=tuple(processes),
        skills=tuple(skills),
        flows=tuple(flows),
        skill_edges=tuple(skill_edges),
    )
