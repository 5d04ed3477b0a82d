"""Exchange formats: CAEX XML import and Graphviz DOT export.

The CAEX importer reads a declared subset of AutomationML product structure:
``SystemUnitClassLib``/``SystemUnitClass``/``InternalElement`` trees, with a
``Position`` attribute (x, y, z in meters), a ``BiPanKind`` attribute naming
one of the five product kinds, and arbitrary further attributes as name/value
strings. Nested elements are flattened with a ``parent`` attribute entry.
Versions 2.x and 3.x are both accepted; namespaces are matched by local name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from bipan.canon import model_bytes
from bipan.errors import BiPanError
from bipan.model import BiPanModel, Direction, Plan, ProductKind, ProductNode, Record, replace

if TYPE_CHECKING:
    from collections.abc import Iterable
    from xml.etree import ElementTree

__all__ = ["AmlFragment", "export_dot", "import_aml", "merge"]


# -- CAEX (AutomationML subset) import ----------------------------------------------


class AmlFragment(Record):
    """Products-only fragment from a CAEX file; never carries processes or flows.

    ``explicit_kinds`` holds ids whose kind came from a BiPanKind attribute, as
    opposed to the Elementary default; only explicit kinds conflict on merge.
    """

    __slots__ = ("products", "explicit_kinds")

    def __init__(self, products: Iterable[ProductNode],
                 explicit_kinds: Iterable[str] = frozenset()) -> None:
        set_products, set_explicit_kinds = self._stores
        set_products(self, tuple(products))
        set_explicit_kinds(self, frozenset(explicit_kinds))

    def to_bytes(self) -> bytes:
        return model_bytes(BiPanModel("aml-fragment", self.products))


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(element: ElementTree.Element, name: str) -> list[ElementTree.Element]:
    return [child for child in element if _local_name(child.tag) == name]


def _attribute_value(element: ElementTree.Element) -> str:
    values = _children(element, "Value")
    if not values:
        return ""
    return (values[0].text or "").strip()


def _parse_position(attr: ElementTree.Element, path: str) -> tuple[float, ...]:
    """The x, y and z of a CAEX ``Position``; ``ProductNode`` checks that they are finite."""
    components = {sub.get("Name", ""): _attribute_value(sub)
                  for sub in _children(attr, "Attribute")}
    values = []
    for axis in ("x", "y", "z"):
        raw = components.get(axis)
        if raw is None:
            raise BiPanError("invalid-position", f"{path}: Position lacks component '{axis}'")
        try:
            values.append(float(raw))
        except ValueError:
            raise BiPanError("invalid-position",
                             f"{path}: Position {axis}={raw!r} is not numeric") from None
    return tuple(values)


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
        raise BiPanError("parse-error", f"{here}: missing ID attribute")
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
            raise BiPanError("parse-error", f"{here}: Attribute lacks a Name")
        if attr_name == "Position":
            position = _parse_position(attr, here)
        elif attr_name == "BiPanKind":
            raw = _attribute_value(attr)
            try:
                kind = ProductKind(raw)
            except ValueError:
                raise BiPanError(
                    "parse-error", f"{here}: BiPanKind {raw!r} is not a product kind"
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
    from xml.etree import ElementTree  # only this command parses XML
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        line, column = exc.position  # ``msg`` ends with them too
        reason = exc.msg.removesuffix(f": line {line}, column {column}")
        raise BiPanError("parse-error", f"line {line}, column {column}: {reason}") from exc
    if _local_name(root.tag) != "CAEXFile":
        raise BiPanError(
            "parse-error", f"expected CAEXFile root element, found '{_local_name(root.tag)}'"
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
    return AmlFragment(products, explicit)


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
        merged[frag.id] = replace(
            existing,
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
    return replace(model, products=tuple(merged.values()))


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


def _dot_node(node_id: str, attrs: str, label: str) -> str:
    return f'  "{_dot_escape(node_id)}" [{attrs}, label="{_dot_escape(label)}"];'


def _dot_edge(tail: str, head: str, attrs: str) -> str:
    return f'  "{_dot_escape(tail)}" -> "{_dot_escape(head)}" [{attrs}];'


def export_dot(model: BiPanModel, plan: Plan | None = None) -> str:
    """Deterministic Graphviz text; a plan overlays one numbered red edge per step.

    The plan must have been extracted from this model version (``digest-mismatch``
    otherwise). An overlay edge is read from the model: from a Forward step's process to
    its output, back for a Reverse step, and from a Swap's replacement to its site. Every
    id and label is quoted and escaped, so no text from a model or plan can end its quotes
    and add statements.
    """
    lines = [
        "digraph bipan {",
        "  graph [rankdir=TB];",
        '  node [fontname="Helvetica"];',
    ]
    for product in model.products:
        attrs = f'shape=circle, style=filled, fillcolor="{_KIND_FILL[product.kind]}"'
        lines.append(_dot_node(product.id, attrs, product.label))
    for process in model.processes:
        attrs = f'shape=box, style=filled, fillcolor="{_PROCESS_FILL}"'
        lines.append(_dot_node(process.id, attrs, process.label))
    for skill in model.skills:
        attrs = f'shape=box, style="rounded,filled", fillcolor="{_SKILL_FILL}"'
        lines.append(_dot_node(skill.id, attrs, skill.label))
    # Open arrow end = assembly direction, full arrow end = disassembly direction.
    inputs, outputs, _, _, skill_ids = model.adjacency
    for pid in inputs:  # the flows in canonical order
        for tail, head in (*((product, pid) for product in inputs[pid]),
                           *((pid, product) for product in outputs[pid])):
            lines.append(_dot_edge(tail, head, "dir=both, arrowhead=empty, arrowtail=normal"))
    for pid, skills in skill_ids.items():
        lines.extend(_dot_edge(pid, skill, "style=dashed, color=goldenrod") for skill in skills)

    if plan is not None:
        model.ensure_digest(plan.model_digest, "plan was built for")
        foreign = {s.swap_replacement for s in plan.steps
                   if s.direction is Direction.SWAP and not model.has_node(s.swap_replacement)}
        for node_id in sorted(foreign):
            lines.append(_dot_node(node_id, "shape=circle, style=dashed, color=red", node_id))
        for number, step in enumerate(plan.steps, start=1):
            where = f"step {number - 1} ({step.direction.value} '{step.process}')"
            made = outputs.get(step.process)  # the process maps' keys are the processes
            if made is None:
                raise BiPanError("unknown-process",
                                 f"{where}: no process '{step.process}' in model '{model.id}'")
            if step.direction is Direction.SWAP:
                tail, head = step.swap_replacement, step.process
            elif not made:
                raise BiPanError("step-mismatch", f"{where}: its process has no output to draw")
            elif step.direction is Direction.FORWARD:
                tail, head = step.process, made[0]
            else:
                tail, head = made[0], step.process
            attrs = f'color=red, fontcolor=red, label="{number}", penwidth=2.0, constraint=false'
            lines.append(_dot_edge(tail, head, attrs))
    lines.append("}")
    return "\n".join(lines) + "\n"
