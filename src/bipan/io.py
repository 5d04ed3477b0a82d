"""Serialization surfaces: native JSON documents, CAEX XML import, DOT export.

Native documents (model, plan, twin instance, inventory state) are canonical
JSON: sorted keys, two-space indent, UTF-8, LF, trailing newline. Loading is
lenient about ordering and formatting but strict about structure; saving always
re-emits canonical bytes, so save(load(x)) normalizes any equivalent document.

The CAEX importer reads a declared subset of AutomationML product structure:
``SystemUnitClassLib``/``SystemUnitClass``/``InternalElement`` trees, with a
``Position`` attribute (x, y, z in meters), a ``BiPanKind`` attribute naming
one of the five product kinds, and arbitrary further attributes as name/value
strings. Nested elements are flattened with a ``parent`` attribute entry.
Versions 2.x and 3.x are both accepted; namespaces are matched by local name.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from xml.etree import ElementTree

from bipan.canon import canonical_bytes, model_digest, model_to_obj, product_to_obj
from bipan.errors import BiPanError
from bipan.execute import ExecState, Trace
from bipan.model import (
    BiPanModel,
    FastensLink,
    FlowEdge,
    FlowRole,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillEdge,
    SkillNode,
    check_id,
)
from bipan.pdt import Event, Health, PdtInstance
from bipan.plan import Direction, Plan, PlanStep, ResourceRegistry

__all__ = [
    "AmlFragment",
    "export_dot",
    "import_aml",
    "load_instance",
    "load_model",
    "load_plan",
    "load_registry",
    "load_state",
    "merge",
    "model_digest",
    "read_instance_file",
    "save_instance",
    "save_model",
    "save_plan",
    "save_registry",
    "save_state",
    "trace_to_obj",
    "write_instance_file",
]


# -- structure helpers ---------------------------------------------------------


def _parse_json(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise BiPanError("parse-error", f"document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BiPanError(
            "parse-error", f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise BiPanError("parse-error", "document nests too deeply") from exc


def _as_dict(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise BiPanError("parse-error", f"{path} must be an object")
    return value


def _as_list(value: Any, path: str) -> list[Any]:
    if not isinstance(value, list):
        raise BiPanError("parse-error", f"{path} must be an array")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise BiPanError("parse-error", f"{path} must be a string")
    return value


def _opt_str(obj: dict[str, Any], key: str, path: str) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    return _as_str(value, f"{path}.{key}")


def _str_map(value: Any, path: str) -> dict[str, str]:
    mapping = _as_dict(value, path)
    for k, v in mapping.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise BiPanError("parse-error", f"{path} must map strings to strings")
    return dict(mapping)


def _enum_value(enum_cls: Any, value: Any, path: str) -> Any:
    try:
        return enum_cls(_as_str(value, path))
    except ValueError:
        allowed = ", ".join(member.value for member in enum_cls)
        raise BiPanError("parse-error", f"{path}: {value!r} is not one of {allowed}") from None


# -- native model format -------------------------------------------------------


def _product_from_obj(obj: Any, path: str) -> ProductNode:
    entry = _as_dict(obj, path)
    position = entry.get("position")
    if position is not None:
        items = _as_list(position, f"{path}.position")
        if len(items) != 3 or not all(isinstance(c, (int, float)) for c in items):
            raise BiPanError("parse-error", f"{path}.position must be three numbers")
        position = tuple(float(c) for c in items)
    return ProductNode(
        id=_as_str(entry.get("id"), f"{path}.id"),
        label=_as_str(entry.get("label", ""), f"{path}.label"),
        kind=_enum_value(ProductKind, entry.get("kind"), f"{path}.kind"),
        type_ref=_opt_str(entry, "type_ref", path),
        position=position,
        attributes=_str_map(entry.get("attributes", {}), f"{path}.attributes"),
    )


def model_from_obj(obj: Any) -> BiPanModel:
    doc = _as_dict(obj, "document")
    products = tuple(
        _product_from_obj(entry, f"products[{i}]")
        for i, entry in enumerate(_as_list(doc.get("products", []), "products"))
    )
    processes = tuple(
        ProcessNode(
            id=_as_str(_as_dict(e, f"processes[{i}]").get("id"), f"processes[{i}].id"),
            label=_as_str(_as_dict(e, f"processes[{i}]").get("label", ""), f"processes[{i}].label"),
        )
        for i, e in enumerate(_as_list(doc.get("processes", []), "processes"))
    )
    skills = tuple(
        SkillNode(
            id=_as_str(_as_dict(e, f"skills[{i}]").get("id"), f"skills[{i}].id"),
            label=_as_str(_as_dict(e, f"skills[{i}]").get("label", ""), f"skills[{i}].label"),
        )
        for i, e in enumerate(_as_list(doc.get("skills", []), "skills"))
    )
    flows = tuple(
        FlowEdge(
            product=_as_str(_as_dict(e, f"flows[{i}]").get("product"), f"flows[{i}].product"),
            process=_as_str(_as_dict(e, f"flows[{i}]").get("process"), f"flows[{i}].process"),
            role=_enum_value(FlowRole, _as_dict(e, f"flows[{i}]").get("role"), f"flows[{i}].role"),
        )
        for i, e in enumerate(_as_list(doc.get("flows", []), "flows"))
    )
    skill_edges = tuple(
        SkillEdge(
            process=_as_str(
                _as_dict(e, f"skill_edges[{i}]").get("process"), f"skill_edges[{i}].process"
            ),
            skill=_as_str(_as_dict(e, f"skill_edges[{i}]").get("skill"), f"skill_edges[{i}].skill"),
        )
        for i, e in enumerate(_as_list(doc.get("skill_edges", []), "skill_edges"))
    )
    fastens = tuple(
        FastensLink(
            fastener=_as_str(
                _as_dict(e, f"fastens[{i}]").get("fastener"), f"fastens[{i}].fastener"
            ),
            secures=frozenset(
                _as_str(s, f"fastens[{i}].secures[{j}]")
                for j, s in enumerate(_as_list(_as_dict(e, f"fastens[{i}]").get("secures", []),
                                               f"fastens[{i}].secures"))
            ),
        )
        for i, e in enumerate(_as_list(doc.get("fastens", []), "fastens"))
    )
    return BiPanModel(
        id=_as_str(doc.get("id", ""), "id"),
        products=products,
        processes=processes,
        skills=skills,
        flows=flows,
        skill_edges=skill_edges,
        fastens=fastens,
    )


def load_model(data: bytes) -> BiPanModel:
    """Parse and reference-check a model document; structural validation is separate."""
    return model_from_obj(_parse_json(data))


def save_model(model: BiPanModel) -> bytes:
    return canonical_bytes(model_to_obj(model))


# -- plan format -----------------------------------------------------------------


def plan_to_obj(plan: Plan) -> dict[str, Any]:
    steps = []
    for step in plan.steps:
        entry: dict[str, Any] = {
            "consumed": list(step.consumed),
            "direction": step.direction.value,
            "process": step.process,
            "produced": list(step.produced),
            "required_skills": list(step.required_skills),
        }
        if step.direction is Direction.SWAP:
            entry["swap_replacement"] = step.swap_replacement
            entry["swap_target"] = step.swap_target
        steps.append(entry)
    return {"model_digest": plan.model_digest, "model_id": plan.model_id, "steps": steps}


def plan_from_obj(obj: Any) -> Plan:
    doc = _as_dict(obj, "document")
    steps = []
    for i, entry_obj in enumerate(_as_list(doc.get("steps", []), "steps")):
        path = f"steps[{i}]"
        entry = _as_dict(entry_obj, path)
        direction = _enum_value(Direction, entry.get("direction"), f"{path}.direction")
        swap_target = _opt_str(entry, "swap_target", path)
        swap_replacement = _opt_str(entry, "swap_replacement", path)
        if direction is Direction.SWAP and (swap_target is None or swap_replacement is None):
            raise BiPanError("parse-error", f"{path}: swap step must name target and replacement")
        steps.append(
            PlanStep(
                process=_as_str(entry.get("process"), f"{path}.process"),
                direction=direction,
                consumed=tuple(
                    _as_str(c, f"{path}.consumed[{j}]")
                    for j, c in enumerate(_as_list(entry.get("consumed", []), f"{path}.consumed"))
                ),
                produced=tuple(
                    _as_str(c, f"{path}.produced[{j}]")
                    for j, c in enumerate(_as_list(entry.get("produced", []), f"{path}.produced"))
                ),
                required_skills=tuple(
                    _as_str(c, f"{path}.required_skills[{j}]")
                    for j, c in enumerate(
                        _as_list(entry.get("required_skills", []), f"{path}.required_skills")
                    )
                ),
                swap_target=swap_target,
                swap_replacement=swap_replacement,
            )
        )
    return Plan(
        model_id=_as_str(doc.get("model_id", ""), "model_id"),
        model_digest=_as_str(doc.get("model_digest", ""), "model_digest"),
        steps=tuple(steps),
    )


def load_plan(data: bytes) -> Plan:
    return plan_from_obj(_parse_json(data))


def save_plan(plan: Plan) -> bytes:
    return canonical_bytes(plan_to_obj(plan))


def load_registry(data: bytes) -> ResourceRegistry:
    return ResourceRegistry.from_obj(_parse_json(data))


def save_registry(registry: ResourceRegistry) -> bytes:
    return canonical_bytes(registry.to_obj())


# -- twin instance format ---------------------------------------------------------


def instance_to_obj(pdt: PdtInstance) -> dict[str, Any]:
    return {
        "events": [
            {"kind": e.kind, "payload": dict(sorted(e.payload.items())), "timestamp": e.timestamp}
            for e in pdt.events
        ],
        "health": {c: h.value for c, h in sorted(pdt.health.items())},
        "instance_id": pdt.instance_id,
        "model_digest": pdt.model_digest,
        "model_id": pdt.model_id,
    }


def instance_from_obj(obj: Any) -> PdtInstance:
    doc = _as_dict(obj, "document")
    health = {
        _as_str(k, "health key"): _enum_value(Health, v, f"health[{k}]")
        for k, v in _as_dict(doc.get("health", {}), "health").items()
    }
    events = tuple(
        Event(
            timestamp=_as_str(_as_dict(e, f"events[{i}]").get("timestamp"), f"events[{i}].timestamp"),
            kind=_as_str(_as_dict(e, f"events[{i}]").get("kind"), f"events[{i}].kind"),
            payload=_str_map(_as_dict(e, f"events[{i}]").get("payload", {}), f"events[{i}].payload"),
        )
        for i, e in enumerate(_as_list(doc.get("events", []), "events"))
    )
    return PdtInstance(
        instance_id=_as_str(doc.get("instance_id"), "instance_id"),
        model_id=_as_str(doc.get("model_id", ""), "model_id"),
        model_digest=_as_str(doc.get("model_digest", ""), "model_digest"),
        health=health,
        events=events,
    )


def load_instance(data: bytes) -> PdtInstance:
    return instance_from_obj(_parse_json(data))


def save_instance(pdt: PdtInstance) -> bytes:
    return canonical_bytes(instance_to_obj(pdt))


def write_instance_file(pdt: PdtInstance, directory: str | Path) -> Path:
    """Atomic write (temp file + rename) of ``<instance_id>.pdt.json``."""
    directory = Path(directory)
    target = directory / pdt.file_name()
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".pdt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(save_instance(pdt))
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return target


def read_instance_file(directory: str | Path, instance_id: str) -> PdtInstance:
    path = Path(directory) / f"{check_id(instance_id)}.pdt.json"
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise BiPanError("unreadable", f"{path}: {exc}") from exc
    return load_instance(data)


# -- inventory state / trace -------------------------------------------------------


def state_from_obj(obj: Any) -> ExecState:
    doc = _as_dict(obj, "document")
    present = frozenset(
        _as_str(p, f"present[{i}]")
        for i, p in enumerate(_as_list(doc.get("present", []), "present"))
    )
    return ExecState(present, _str_map(doc.get("substitutions", {}), "substitutions"))


def load_state(data: bytes) -> ExecState:
    return state_from_obj(_parse_json(data))


def save_state(state: ExecState) -> bytes:
    return canonical_bytes(state.to_obj())


def trace_to_obj(trace: Trace) -> dict[str, Any]:
    return {
        "final": trace.final.to_obj(),
        "initial": trace.initial.to_obj(),
        "steps": [{"index": e.index, "state": e.state.to_obj()} for e in trace.entries],
    }


# -- CAEX (AutomationML subset) import ----------------------------------------------


@dataclass(frozen=True)
class AmlFragment:
    """Products-only fragment from a CAEX file; never carries processes or flows.

    ``explicit_kinds`` holds ids whose kind came from a BiPanKind attribute, as
    opposed to the Elementary default; only explicit kinds conflict on merge.
    """

    products: tuple[ProductNode, ...]
    explicit_kinds: frozenset[str] = frozenset()

    def to_obj(self, fragment_id: str = "aml-fragment") -> dict[str, Any]:
        return {
            "fastens": [],
            "flows": [],
            "id": fragment_id,
            "processes": [],
            "products": [product_to_obj(p) for p in sorted(self.products, key=lambda p: p.id)],
            "skill_edges": [],
            "skills": [],
        }


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(element: ElementTree.Element, name: str) -> list[ElementTree.Element]:
    return [child for child in element if _local_name(child.tag) == name]


def _attribute_value(element: ElementTree.Element) -> str:
    values = _children(element, "Value")
    if not values:
        return ""
    return (values[0].text or "").strip()


def _parse_position(attr: ElementTree.Element, path: str) -> tuple[float, float, float]:
    components = {}
    for sub in _children(attr, "Attribute"):
        components[sub.get("Name", "")] = _attribute_value(sub)
    values = []
    for axis in ("x", "y", "z"):
        raw = components.get(axis)
        if raw is None:
            raise BiPanError(
                "non-numeric-position", f"{path}: Position lacks component '{axis}'"
            )
        try:
            value = float(raw)
        except ValueError:
            raise BiPanError(
                "non-numeric-position", f"{path}: Position {axis}={raw!r} is not numeric"
            ) from None
        if not math.isfinite(value):
            raise BiPanError(
                "non-numeric-position", f"{path}: Position {axis}={raw!r} is not finite"
            )
        values.append(value)
    return (values[0], values[1], values[2])


def _parse_internal_element(
    element: ElementTree.Element,
    path: str,
    parent_id: str | None,
    seen: set[str],
    products: list[ProductNode],
    explicit: set[str],
) -> str:
    """Append the product one element describes; return the element's path."""
    element_id = element.get("ID")
    name = element.get("Name")
    label = f"'{name}'" if name else "(unnamed)"
    here = f"{path}/InternalElement {label}"
    if not element_id:
        raise BiPanError("xml-parse-error", f"{here}: missing ID attribute")
    if element_id in seen:
        raise BiPanError("duplicate-id", f"{here}: duplicate id '{element_id}'")
    seen.add(element_id)

    kind = ProductKind.ELEMENTARY
    position: tuple[float, float, float] | None = None
    attributes: dict[str, str] = {}
    if parent_id is not None:
        attributes["parent"] = parent_id
    for attr in _children(element, "Attribute"):
        attr_name = attr.get("Name")
        if attr_name is None:
            raise BiPanError("xml-parse-error", f"{here}: Attribute lacks a Name")
        if attr_name == "Position":
            position = _parse_position(attr, here)
        elif attr_name == "BiPanKind":
            raw = _attribute_value(attr)
            try:
                kind = ProductKind(raw)
            except ValueError:
                raise BiPanError(
                    "xml-parse-error", f"{here}: BiPanKind {raw!r} is not a product kind"
                ) from None
            explicit.add(element_id)
        else:
            attributes[attr_name] = _attribute_value(attr)

    products.append(
        ProductNode(
            id=element_id,
            label=name if name is not None else element_id,
            kind=kind,
            position=position,
            attributes=attributes,
        )
    )
    return here


def import_aml(data: bytes) -> AmlFragment:
    """Read the declared CAEX subset into a products-only fragment."""
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        line, column = exc.position
        raise BiPanError("xml-parse-error", f"line {line}, column {column}: {exc.msg}") from exc
    if _local_name(root.tag) != "CAEXFile":
        raise BiPanError(
            "unsupported-root", f"expected CAEXFile root element, found '{_local_name(root.tag)}'"
        )
    products: list[ProductNode] = []
    explicit: set[str] = set()
    seen: set[str] = set()
    for lib in root.iter():
        if _local_name(lib.tag) != "SystemUnitClassLib":
            continue
        lib_path = f"CAEXFile/SystemUnitClassLib '{lib.get('Name', '?')}'"
        for suc in _children(lib, "SystemUnitClass"):
            suc_path = f"{lib_path}/SystemUnitClass '{suc.get('Name', '?')}'"
            # Pre-order over an explicit stack: nesting depth is not bounded by
            # the interpreter's recursion limit.
            top = reversed(_children(suc, "InternalElement"))
            stack: list[tuple[ElementTree.Element, str, str | None]] = [
                (element, suc_path, None) for element in top
            ]
            while stack:
                element, path, parent_id = stack.pop()
                here = _parse_internal_element(element, path, parent_id, seen, products, explicit)
                children = _children(element, "InternalElement")
                stack.extend((child, here, element.get("ID")) for child in reversed(children))
    return AmlFragment(tuple(products), frozenset(explicit))


def merge(fragment: AmlFragment, model: BiPanModel) -> BiPanModel:
    """Enrich model products from a fragment; unmatched fragment products are added.

    Positions and attributes are taken over from the fragment; differing labels,
    or differing explicitly-declared kinds, are conflicts.
    """
    kind_conflicts: list[str] = []
    label_conflicts: list[str] = []
    merged: dict[str, ProductNode] = {p.id: p for p in model.products}
    for frag in sorted(fragment.products, key=lambda p: p.id):
        existing = merged.get(frag.id)
        if existing is None:
            merged[frag.id] = frag
            continue
        if frag.id in fragment.explicit_kinds and frag.kind is not existing.kind:
            kind_conflicts.append(frag.id)
            continue
        if frag.label != existing.label:
            label_conflicts.append(frag.id)
            continue
        merged[frag.id] = ProductNode(
            id=existing.id,
            label=existing.label,
            kind=existing.kind,
            type_ref=existing.type_ref,
            position=frag.position if frag.position is not None else existing.position,
            attributes={**existing.attributes, **frag.attributes},
        )
    if kind_conflicts:
        raise BiPanError(
            "kind-conflict",
            f"fragment re-kinds existing products: {', '.join(kind_conflicts)}",
            tuple(kind_conflicts),
        )
    if label_conflicts:
        raise BiPanError(
            "label-conflict",
            f"fragment relabels existing products: {', '.join(label_conflicts)}",
            tuple(label_conflicts),
        )
    return BiPanModel(
        id=model.id,
        products=tuple(merged.values()),
        processes=model.processes,
        skills=model.skills,
        flows=model.flows,
        skill_edges=model.skill_edges,
        fastens=model.fastens,
    )


# -- DOT export ------------------------------------------------------------------


_KIND_FILL = {
    ProductKind.ELEMENTARY: "#f6beb8",
    ProductKind.SUB_PRODUCT: "#ef8a80",
    ProductKind.FASTENER: "#fbdbd6",
    ProductKind.STAGE: "#e86558",
    ProductKind.FINAL: "#c0392b",
}
_PROCESS_FILL = "#9fd6a1"
_SKILL_FILL = "#a9c8ef"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(model: BiPanModel, plan: Plan | None = None) -> str:
    """Deterministic Graphviz text; a plan overlays one numbered red edge per step."""
    lines = [
        "digraph bipan {",
        "  graph [rankdir=TB];",
        '  node [fontname="Helvetica"];',
    ]
    for product in model.products:
        lines.append(
            f'  "{product.id}" [shape=circle, style=filled, '
            f'fillcolor="{_KIND_FILL[product.kind]}", label="{_dot_escape(product.label)}"];'
        )
    for process in model.processes:
        lines.append(
            f'  "{process.id}" [shape=box, style=filled, '
            f'fillcolor="{_PROCESS_FILL}", label="{_dot_escape(process.label)}"];'
        )
    for skill in model.skills:
        lines.append(
            f'  "{skill.id}" [shape=box, style="rounded,filled", '
            f'fillcolor="{_SKILL_FILL}", label="{_dot_escape(skill.label)}"];'
        )
    # Open arrow end = assembly direction, full arrow end = disassembly direction.
    for flow in model.flows:
        if flow.role is FlowRole.INPUT:
            lines.append(
                f'  "{flow.product}" -> "{flow.process}" '
                "[dir=both, arrowhead=empty, arrowtail=normal];"
            )
        else:
            lines.append(
                f'  "{flow.process}" -> "{flow.product}" '
                "[dir=both, arrowhead=empty, arrowtail=normal];"
            )
    for edge in model.skill_edges:
        lines.append(f'  "{edge.process}" -> "{edge.skill}" [style=dashed, color=goldenrod];')

    if plan is not None:
        foreign: set[str] = set()
        for step in plan.steps:
            for node_id in (*step.consumed, *step.produced):
                if not model.has_node(node_id):
                    foreign.add(node_id)
        for node_id in sorted(foreign):
            lines.append(
                f'  "{node_id}" [shape=circle, style=dashed, color=red, '
                f'label="{_dot_escape(node_id)}"];'
            )
        for number, step in enumerate(plan.steps, start=1):
            if step.direction is Direction.FORWARD:
                tail, head = step.process, step.produced[0]
            elif step.direction is Direction.REVERSE:
                tail, head = step.consumed[0], step.process
            else:
                tail, head = step.swap_replacement, step.process
            lines.append(
                f'  "{tail}" -> "{head}" [color=red, fontcolor=red, '
                f'label="{number}", penwidth=2.0, constraint=false];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
