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
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Any

from bipan.canon import canonical_bytes, model_to_obj
from bipan.errors import BiPanError
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

if TYPE_CHECKING:
    from xml.etree import ElementTree

    from bipan.execute import ExecState, Trace
    from bipan.pdt import PdtInstance
    from bipan.plan import Plan

__all__ = [
    "AmlFragment",
    "export_dot",
    "import_aml",
    "instance_lock",
    "instance_path",
    "load_instance",
    "load_model",
    "load_plan",
    "load_registry",
    "load_state",
    "merge",
    "read_file",
    "read_instance_file",
    "save_instance",
    "save_model",
    "save_plan",
    "save_state",
    "trace_to_obj",
    "write_instance_file",
]


# -- field-spec decoders ----------------------------------------------------------
#
# A converter takes ``(value, path)`` and returns the decoded value or raises
# ``parse-error`` naming ``path``. ``_record`` calls a record type (or any
# callable taking the decoded fields as keywords) from a spec of
# ``field=(converter, default)``: a missing key decodes as its default, and the
# fields are decoded in spec order, which fixes the error a document with one
# fault reports.

Converter = Callable[[Any, str], Any]


def read_file(path: str | Path) -> bytes:
    """The bytes of ``path``; a failed read is ``unreadable``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise BiPanError("unreadable", f"{path}: {exc}") from exc


def _parse_json(data: bytes) -> Any:
    try:
        text = data.decode("utf-8")
        obj = json.loads(text)
        if "\\ud" in text or "\\uD" in text:
            # A \ud800-\udfff escape without its pair decodes to a string that no
            # UTF-8 output (plan, digest, twin file) can hold.
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        return obj
    except UnicodeDecodeError as exc:
        raise BiPanError("parse-error", f"document is not UTF-8: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise BiPanError("parse-error", "document escapes an unpaired UTF-16 surrogate") from exc
    except json.JSONDecodeError as exc:
        raise BiPanError(
            "parse-error", f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise BiPanError("parse-error", str(exc)) from exc
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


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise BiPanError("parse-error", f"{path} must be a string")
    return value


def _str_map(value: Any, path: str) -> dict[str, str]:
    mapping = _as_dict(value, path)
    if not all(isinstance(v, str) for v in mapping.values()):
        raise BiPanError("parse-error", f"{path} must map strings to strings")
    return mapping


def _position(value: Any, path: str) -> tuple[Any, ...]:
    """Shape and type only; :class:`ProductNode` converts the components to floats.

    ``true`` decodes to a ``bool``, an ``int`` subclass, so the type test is exact.
    """
    items = _as_list(value, path)
    if len(items) != 3 or not all(type(c) in (int, float) for c in items):
        raise BiPanError("parse-error", f"{path} must be three numbers")
    return tuple(items)


def _optional(convert: Converter) -> Converter:
    return lambda value, path: None if value is None else convert(value, path)


def _enum(enum_cls: Any) -> Converter:
    members = {member.value: member for member in enum_cls}
    allowed = ", ".join(members)

    def decode(value: Any, path: str) -> Any:
        member = members.get(_string(value, path))
        if member is None:
            raise BiPanError("parse-error", f"{path}: {value!r} is not one of {allowed}")
        return member

    return decode


def _list_of(convert: Converter) -> Converter:
    return lambda value, path: tuple(
        [convert(item, f"{path}[{i}]") for i, item in enumerate(_as_list(value, path))]
    )


def _map_of(convert: Converter) -> Converter:
    return lambda value, path: {
        key: convert(item, f"{path}[{key}]") for key, item in _as_dict(value, path).items()
    }


def _record(cls: Any, **spec: tuple[Converter, Any]) -> Converter:
    """Converter for a JSON object whose keys are the fields of ``cls``.

    The path ``""`` is the document root: its fields are named bare (``id``,
    not ``.id``).
    """
    fields = tuple((name, convert, default) for name, (convert, default) in spec.items())

    def decode(value: Any, path: str) -> Any:
        obj = _as_dict(value, path or "document")
        prefix = f"{path}." if path else ""
        kwargs = {}
        for name, convert, default in fields:
            kwargs[name] = convert(obj.get(name, default), prefix + name)
        return cls(**kwargs)

    return decode


def _edge(cls: Any, *endpoints: str) -> Callable[..., Any]:
    """``cls``, built after ``check_id`` on the ids in its ``endpoints`` fields.

    ``BiPanModel`` checks only an edge id that names no node; checking each
    record's ids here reports a bad one before any later fault in the document.
    """

    def build(**fields: Any) -> Any:
        for name in endpoints:
            ids = fields[name]
            for node_id in (ids,) if isinstance(ids, str) else ids:
                check_id(node_id)
        return cls(**fields)

    return build


def _records(cls: Any, **spec: tuple[Converter, Any]) -> tuple[Converter, Any]:
    """Spec entry for an array of ``cls`` records that may be left out."""
    return (_list_of(_record(cls, **spec)), [])


def _on_first_use(build: Callable[[], Converter]) -> Converter:
    """The converter ``build`` returns, built on its first call: it imports the records' module."""
    build = cache(build)
    return lambda value, path: build()(value, path)


_STR = (_string, None)
_STRINGS = (_list_of(_string), [])
_NODE = {"id": _STR, "label": (_string, "")}

_model = _record(
    BiPanModel,
    products=_records(
        ProductNode,
        position=(_optional(_position), None),
        **_NODE,
        kind=(_enum(ProductKind), None),
        type_ref=(_optional(_string), None),
        attributes=(_str_map, {}),
    ),
    processes=_records(ProcessNode, **_NODE),
    skills=_records(SkillNode, **_NODE),
    flows=_records(
        _edge(FlowEdge, "product", "process"),
        product=_STR, process=_STR, role=(_enum(FlowRole), None),
    ),
    skill_edges=_records(_edge(SkillEdge, "process", "skill"), process=_STR, skill=_STR),
    fastens=_records(_edge(FastensLink, "fastener", "secures"), fastener=_STR, secures=_STRINGS),
    id=(_string, ""),
)


@_on_first_use
def _plan() -> Converter:
    from bipan.plan import Direction, Plan, PlanStep
    step_fields = _record(
        PlanStep,
        direction=(_enum(Direction), None),
        swap_target=(_optional(_string), None),
        swap_replacement=(_optional(_string), None),
        process=_STR,
        consumed=_STRINGS,
        produced=_STRINGS,
        required_skills=_STRINGS,
    )

    def decode_step(value: Any, path: str) -> PlanStep:
        step = step_fields(value, path)
        if step.direction is Direction.SWAP and None in (step.swap_target, step.swap_replacement):
            raise BiPanError("parse-error", f"{path}: swap step must name target and replacement")
        return step

    steps = (_list_of(decode_step), [])
    return _record(Plan, steps=steps, model_id=(_string, ""), model_digest=(_string, ""))


@_on_first_use
def _instance() -> Converter:
    from bipan.pdt import Event, Health, PdtInstance
    return _record(
        PdtInstance,
        health=(_map_of(_enum(Health)), {}),
        events=_records(Event, timestamp=_STR, kind=_STR, payload=(_str_map, {})),
        instance_id=_STR,
        model_id=(_string, ""),
        model_digest=(_string, ""),
    )


@_on_first_use
def _state() -> Converter:
    from bipan.execute import ExecState
    return _record(ExecState, present=_STRINGS, substitutions=(_str_map, {}))


def _pooled_skills(resources: tuple[dict[str, Any], ...]) -> frozenset[str]:
    """The union of the resources' skills; a resource id given twice is ``duplicate-id``."""
    ids: set[str] = set()
    for resource in resources:
        if resource["id"] in ids:
            raise BiPanError("duplicate-id", f"duplicate resource id '{resource['id']}'")
        ids.add(resource["id"])
    return frozenset().union(*(resource["skills"] for resource in resources))


_registry = _record(
    _pooled_skills, resources=(_list_of(_record(dict, id=_STR, skills=_STRINGS)), None)
)


# -- native documents ----------------------------------------------------------------


_KINDS = {kind.value: kind for kind in ProductKind}
_ROLES = {role.value: role for role in FlowRole}


def _rows(doc: dict[str, Any], key: str) -> list[dict[str, Any]]:
    """The array under ``key``; a row that is not an object fails at its first key lookup."""
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise ValueError(key)
    return rows


def _label(row: dict[str, Any]) -> str:
    label = row.get("label", "")
    if not isinstance(label, str):
        raise ValueError("label")
    return label


def _direct_model(doc: Any) -> BiPanModel:
    """The model of a well-formed document, built without per-field paths.

    It accepts only what ``_model`` accepts and builds an equal model. Node ids
    are checked by the node constructors, which take only strings, and the
    model resolves each edge endpoint to one of those nodes. Any fault raises,
    and :func:`load_model` then decodes the document again with ``_model``,
    which names it.
    """
    if not isinstance(doc, dict):
        raise ValueError("document")
    products = []
    for row in _rows(doc, "products"):
        type_ref, position = row.get("type_ref"), row.get("position")
        attributes = row.get("attributes", {})
        if type_ref is not None and not isinstance(type_ref, str):
            raise ValueError("type_ref")
        if position is not None:
            if not isinstance(position, list) or len(position) != 3 or not all(
                type(c) in (int, float) for c in position
            ):
                raise ValueError("position")
            position = tuple(position)
        if not isinstance(attributes, dict) or (
            attributes and not all(isinstance(v, str) for v in attributes.values())
        ):
            raise ValueError("attributes")
        kind = _KINDS[row["kind"]]
        products.append(ProductNode(row["id"], _label(row), kind, type_ref, position, attributes))
    fastens = []
    for row in _rows(doc, "fastens"):
        secures = row.get("secures", [])
        if not isinstance(secures, list):
            raise ValueError("secures")
        fastens.append(FastensLink(row["fastener"], secures))
    model_id = doc.get("id", "")
    if not isinstance(model_id, str):
        raise ValueError("id")
    return BiPanModel(
        model_id,
        tuple(products),
        tuple(ProcessNode(row["id"], _label(row)) for row in _rows(doc, "processes")),
        tuple(SkillNode(row["id"], _label(row)) for row in _rows(doc, "skills")),
        tuple(
            FlowEdge(row["product"], row["process"], _ROLES[row["role"]])
            for row in _rows(doc, "flows")
        ),
        tuple(SkillEdge(row["process"], row["skill"]) for row in _rows(doc, "skill_edges")),
        tuple(fastens),
    )


def _direct_instance(doc: Any) -> PdtInstance:
    """The twin of a well-formed document, built without per-field paths.

    It accepts only what ``_instance`` accepts and builds an equal twin. Some
    faults fail where the value is used: a health map or payload that is not an
    object has no items or values, a timestamp that is not a string fails in
    ``parse_timestamp``, and a bad instance id in ``PdtInstance``.
    """
    from bipan.pdt import Event, Health, PdtInstance
    ids = (doc["instance_id"], doc.get("model_id", ""), doc.get("model_digest", ""))
    if not all(isinstance(value, str) for value in ids):
        raise ValueError("id")
    events = []
    for row in _rows(doc, "events"):
        kind, payload = row["kind"], row.get("payload", {})
        if not isinstance(kind, str) or not all(isinstance(v, str) for v in payload.values()):
            raise ValueError("event")
        events.append(Event(row["timestamp"], kind, payload))
    states = {health.value: health for health in Health}
    health = {c: states[h] for c, h in doc.get("health", {}).items()}
    return PdtInstance(*ids, health, tuple(events))


def _decode(data: bytes, direct: Callable[[Any], Any], spec: Converter) -> Any:
    """Parse ``data`` and build it with ``direct``; on any fault, decode it with ``spec``.

    ``direct`` accepts only what the field-spec decoder ``spec`` accepts and
    builds an equal value, so it decides only what succeeds: ``spec`` stays the
    one source of every error, code and detail.
    """
    doc = _parse_json(data)
    try:
        return direct(doc)
    except Exception:  # whatever the fault, ``spec`` reports it, or builds the value
        return spec(doc, "")


def load_model(data: bytes) -> BiPanModel:
    """Parse and reference-check a model document; structural validation is separate."""
    return _decode(data, _direct_model, _model)


def save_model(model: BiPanModel) -> bytes:
    return canonical_bytes(model_to_obj(model))


def plan_to_obj(plan: Plan) -> dict[str, Any]:
    from bipan.plan import Direction
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


def load_plan(data: bytes) -> Plan:
    return _plan(_parse_json(data), "")


def save_plan(plan: Plan) -> bytes:
    return canonical_bytes(plan_to_obj(plan))


def load_registry(data: bytes) -> frozenset[str]:
    """The skills a registry document's resources pool: a plan checks against their union."""
    return _registry(_parse_json(data), "")


def instance_to_obj(pdt: PdtInstance) -> dict[str, Any]:
    return {
        "events": [
            {"kind": e.kind, "payload": e.payload, "timestamp": e.timestamp}
            for e in pdt.events
        ],
        "health": {c: h.value for c, h in pdt.health.items()},
        "instance_id": pdt.instance_id,
        "model_digest": pdt.model_digest,
        "model_id": pdt.model_id,
    }


def load_instance(data: bytes) -> PdtInstance:
    return _decode(data, _direct_instance, _instance)


def save_instance(pdt: PdtInstance) -> bytes:
    return canonical_bytes(instance_to_obj(pdt))


def instance_path(directory: str | Path, instance_id: str) -> Path:
    """``<instance_id>.pdt.json`` in ``directory``; the id is checked, so it cannot leave it."""
    return Path(directory) / f"{check_id(instance_id)}.pdt.json"


@contextmanager
def instance_lock(directory: str | Path, instance_id: str) -> Iterator[None]:
    """Hold an exclusive lock on ``<instance_id>.pdt.lock`` in ``directory``; POSIX only.

    A caller that reads a twin, changes it and writes it back holds the lock
    throughout, so a concurrent writer waits and then reads the new twin. The
    twin file cannot carry the lock: each write replaces it with a new file.
    """
    import fcntl  # only the commands that change twins lock
    with open(instance_path(directory, instance_id).with_suffix(".lock"), "ab") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


def write_instance_file(pdt: PdtInstance, directory: str | Path) -> Path:
    """Atomic, durable write of ``<instance_id>.pdt.json``: temp file, fsync, rename.

    The temp file is synced before the rename, so the name never points at
    unwritten bytes, and the directory after it, so the rename itself survives
    a crash. POSIX only, as :func:`instance_lock` is.
    """
    import tempfile  # only the commands that write twins need it
    target = instance_path(directory, pdt.instance_id)
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".pdt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(save_instance(pdt))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return target


def read_instance_file(directory: str | Path, instance_id: str) -> PdtInstance:
    """Load ``<instance_id>.pdt.json``; the id stored inside must be ``instance_id``.

    A twin is written back under its stored id, so a file storing another id
    would overwrite a different twin.
    """
    path = instance_path(directory, instance_id)
    pdt = load_instance(read_file(path))
    if pdt.instance_id != instance_id:
        raise BiPanError(
            "instance-mismatch", f"{path}: stores instance '{pdt.instance_id}', not '{instance_id}'"
        )
    return pdt


def load_state(data: bytes) -> ExecState:
    return _state(_parse_json(data), "")


def save_state(state: ExecState) -> bytes:
    return canonical_bytes(state.to_obj())


def trace_to_obj(trace: Trace) -> dict[str, Any]:
    return {
        "final": trace.final.to_obj(),
        "initial": trace.initial.to_obj(),
        "steps": [{"index": i, "state": state.to_obj()} for i, state in enumerate(trace.entries)],
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

    def to_obj(self) -> dict[str, Any]:
        return model_to_obj(BiPanModel("aml-fragment", self.products))


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
    from xml.etree import ElementTree  # only this command parses XML
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

    Every id and label is quoted and escaped, so no text from a model or plan
    can end its quotes and add statements.
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
    for flow in model.flows:
        if flow.role is FlowRole.INPUT:
            tail, head = flow.product, flow.process
        else:
            tail, head = flow.process, flow.product
        lines.append(_dot_edge(tail, head, "dir=both, arrowhead=empty, arrowtail=normal"))
    for edge in model.skill_edges:
        lines.append(_dot_edge(edge.process, edge.skill, "style=dashed, color=goldenrod"))

    if plan is not None:
        from bipan.plan import Direction
        foreign: set[str] = set()
        for step in plan.steps:
            for node_id in (*step.consumed, *step.produced):
                if not model.has_node(node_id):
                    foreign.add(node_id)
        for node_id in sorted(foreign):
            lines.append(_dot_node(node_id, "shape=circle, style=dashed, color=red", node_id))
        for number, step in enumerate(plan.steps, start=1):
            if step.direction is Direction.SWAP:
                tail, head = step.swap_replacement, step.process
            elif step.direction is Direction.FORWARD and step.produced:
                tail, head = step.process, step.produced[0]
            elif step.direction is Direction.REVERSE and step.consumed:
                tail, head = step.consumed[0], step.process
            else:
                raise BiPanError(
                    "malformed-step",
                    f"step {number - 1} ({step.direction.value} '{step.process}') "
                    "names no item to draw",
                )
            attrs = f'color=red, fontcolor=red, label="{number}", penwidth=2.0, constraint=false'
            lines.append(_dot_edge(tail, head, attrs))
    lines.append("}")
    return "\n".join(lines) + "\n"
