"""Seeded single mutations of the battery fixture, one per validation error code."""

from __future__ import annotations

from bipan.model import BiPanModel, FlowRole, ProductKind, replace


def drop_flows(model: BiPanModel, *matches: tuple[str, str, FlowRole]) -> BiPanModel:
    gone = set(matches)
    flows = tuple(f for f in model.flows if f not in gone)
    return replace(model, flows=flows)


def add_flow(model: BiPanModel, product: str, process: str, role: FlowRole) -> BiPanModel:
    return replace(model, flows=(*model.flows, (product, process, role)))


def rekind(model: BiPanModel, product_id: str, kind: ProductKind) -> BiPanModel:
    products = tuple(
        replace(p, kind=kind) if p.id == product_id else p for p in model.products
    )
    return replace(model, products=products)


#: code -> (mutate, node expected to appear in that code's finding)
MUTANTS = {
    "V001": (lambda m: drop_flows(m, ("stage1", "p1", FlowRole.OUTPUT)), "p1"),
    "V002": (
        lambda m: drop_flows(
            m,
            ("screws1", "p1", FlowRole.INPUT),
            ("cooling", "p1", FlowRole.INPUT),
            ("box", "p1", FlowRole.INPUT),
        ),
        "p1",
    ),
    "V003": (lambda m: add_flow(m, "stage1", "p3", FlowRole.INPUT), "stage1"),
    "V004": (lambda m: rekind(m, "battery", ProductKind.STAGE), None),
    "V005": (lambda m: rekind(m, "box", ProductKind.FINAL), "box"),
    "V006": (lambda m: drop_flows(m, ("stage4", "p5", FlowRole.INPUT)), "stage4"),
    "V007": (lambda m: rekind(m, "stage1", ProductKind.ELEMENTARY), "stage1"),
    "V008": (lambda m: add_flow(m, "battery", "p1", FlowRole.INPUT), "battery"),
}
