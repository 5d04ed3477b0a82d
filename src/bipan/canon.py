"""Canonical JSON form shared by all serialized documents, plus the model digest."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring as _escape  # the C escaper when _json is built
from typing import TYPE_CHECKING, Any

from bipan.model import BiPanModel, ProductNode

if TYPE_CHECKING:
    from collections.abc import Callable, Collection, Iterable, Mapping

    from bipan.execute import ExecState, Trace
    from bipan.pdt import Event, PdtInstance
    from bipan.plan import Plan


def canonical_bytes(obj: Any) -> bytes:
    """Two-space indent, sorted keys, LF line ends, UTF-8, trailing newline.

    This is the byte contract itself. It writes the small documents: diagnostics,
    feasibility reports and registries. The ones that grow with the model or the log
    (models, plans, twins, states, traces and the event lists of ``pdt log``) are
    written to the same bytes by the templates below.
    """
    return (json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


#: A field's line start and the closing line of a record in a top-level array.
_FIELD, _END = "\n      ", "\n    }"


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded ``items``, its closing bracket at ``indent``."""
    return f"[\n  {indent}" + f",\n  {indent}".join(items) + f"\n{indent}]" if items else "[]"


def _object(mapping: Mapping[str, Any], indent: str, encode: Callable[[Any], str] = _escape) -> str:
    """A JSON object of ``mapping``, sorted by key, its closing brace at ``indent``."""
    items = [f"{_escape(key)}: {encode(value)}" for key, value in sorted(mapping.items())]
    return f"{{\n  {indent}" + f",\n  {indent}".join(items) + f"\n{indent}}}" if items else "{}"


def _number(x: float) -> str:
    """``float.__repr__`` of a finite float, as ``json`` writes it; ``json.dumps`` of the rest."""
    return float.__repr__(x) if type(x) is float and math.isfinite(x) else json.dumps(x)


def _strings(values: Collection[str], indent: str = "      ") -> str:
    return _array([*map(_escape, values)], indent)


def _product(node: ProductNode) -> str:
    text = "{"
    if node.attributes:
        text += f'{_FIELD}"attributes": {_object(node.attributes, "      ")},'
    text += (f'{_FIELD}"id": {_escape(node.id)},{_FIELD}"kind": "{node.kind._value_}",'
             f'{_FIELD}"label": {_escape(node.label)}')
    if node.position is not None:
        text += f',{_FIELD}"position": {_array([*map(_number, node.position)], "      ")}'
    if node.type_ref is not None:
        text += f',{_FIELD}"type_ref": {_escape(node.type_ref)}'
    return text + _END


def model_bytes(model: BiPanModel) -> bytes:
    """:func:`canonical_bytes` of the model's document, written straight from its records.

    Each record family spells its keys out in sorted order, so no dict is built and sorted
    again. An enum gives ``_value_``: in Python 3.11, ``.value`` is a descriptor call.
    """
    processes, skills = (
        [f'{{{_FIELD}"id": {_escape(n.id)},{_FIELD}"label": {_escape(n.label)}{_END}'
         for n in nodes]
        for nodes in (model.processes, model.skills)
    )
    flows = [f'{{{_FIELD}"process": {_escape(f.process)},{_FIELD}"product": {_escape(f.product)},'
             f'{_FIELD}"role": "{f.role._value_}"{_END}' for f in model.flows]
    skill_edges = [f'{{{_FIELD}"process": {_escape(e.process)},{_FIELD}"skill": {_escape(e.skill)}'
                   f'{_END}' for e in model.skill_edges]
    fastens = [f'{{{_FIELD}"fastener": {_escape(l.fastener)},'
               f'{_FIELD}"secures": {_strings(sorted(l.secures))}{_END}' for l in model.fastens]
    products = [_product(node) for node in model.products]
    return (
        f'{{\n  "fastens": {_array(fastens, "  ")},\n  "flows": {_array(flows, "  ")},'
        f'\n  "id": {_escape(model.id)},\n  "processes": {_array(processes, "  ")},'
        f'\n  "products": {_array(products, "  ")},\n  "skill_edges": {_array(skill_edges, "  ")},'
        f'\n  "skills": {_array(skills, "  ")}\n}}\n'
    ).encode("utf-8")


def plan_bytes(plan: Plan) -> bytes:
    """:func:`canonical_bytes` of the plan's document; a swap step adds the two ids it names."""
    steps = []
    for step in plan.steps:
        text = (f'{{{_FIELD}"consumed": {_strings(step.consumed)},'
                f'{_FIELD}"direction": "{step.direction._value_}",{_FIELD}"process": '
                f'{_escape(step.process)},{_FIELD}"produced": {_strings(step.produced)},'
                f'{_FIELD}"required_skills": {_strings(step.required_skills)}')
        if step.swap_target is not None:
            text += (f',{_FIELD}"swap_replacement": {_escape(step.swap_replacement)},'
                     f'{_FIELD}"swap_target": {_escape(step.swap_target)}')
        steps.append(text + _END)
    return (
        f'{{\n  "model_digest": {_escape(plan.model_digest)},'
        f'\n  "model_id": {_escape(plan.model_id)},\n  "steps": {_array(steps, "  ")}\n}}\n'
    ).encode("utf-8")


def _events(events: Iterable[Event], indent: str) -> str:
    """A JSON array of twin events in log order, its closing bracket at ``indent``."""
    inner, field, end = indent + "    ", f"\n{indent}    ", f"\n{indent}  }}"
    return _array([f'{{{field}"kind": {_escape(e.kind)},{field}"payload": '
                   f'{_object(e.payload, inner)},{field}"timestamp": {_escape(e.timestamp)}{end}'
                   for e in events], indent)


def events_bytes(events: Iterable[Event]) -> bytes:
    """:func:`canonical_bytes` of a list of twin events, as ``pdt log --format json`` prints it."""
    return (_events(events, "") + "\n").encode("utf-8")


def twin_bytes(twin: PdtInstance) -> bytes:
    """:func:`canonical_bytes` of the twin's document: its events in log order, then its health."""
    health = _object(twin.health, "  ", lambda h: f'"{h._value_}"')
    return (
        f'{{\n  "events": {_events(twin.events, "  ")},\n  "health": {health},'
        f'\n  "instance_id": {_escape(twin.instance_id)},'
        f'\n  "model_digest": {_escape(twin.model_digest)},'
        f'\n  "model_id": {_escape(twin.model_id)}\n}}\n'
    ).encode("utf-8")


def _state(state: ExecState, indent: str) -> str:
    """An inventory state's object, its closing brace at ``indent``."""
    inner = indent + "  "
    return (f'{{\n{inner}"present": {_strings(sorted(state.present), inner)},'
            f'\n{inner}"substitutions": {_object(state.substitutions, inner)}\n{indent}}}')


def state_bytes(state: ExecState) -> bytes:
    """:func:`canonical_bytes` of an inventory state: its sorted items and its substitutions."""
    return (_state(state, "") + "\n").encode("utf-8")


def trace_bytes(trace: Trace) -> bytes:
    """:func:`canonical_bytes` of a replay: its end and start states, and each step's state."""
    steps = [f'{{{_FIELD}"index": {i},{_FIELD}"state": {_state(state, "      ")}{_END}'
             for i, state in enumerate(trace.entries)]
    return (
        f'{{\n  "final": {_state(trace.final, "  ")},\n  "initial": {_state(trace.initial, "  ")},'
        f'\n  "steps": {_array(steps, "  ")}\n}}\n'
    ).encode("utf-8")


def model_digest(model: BiPanModel) -> str:
    """SHA-256 hex digest of :func:`model_bytes`."""
    import hashlib  # not every command takes a digest
    return hashlib.sha256(model_bytes(model)).hexdigest()
