"""Canonical JSON form shared by all serialized documents, plus the model digest.

:func:`canonical_bytes` is the byte contract. Templates write documents of records, which grow
with the model or the log, 3.3-7.9x faster: models, plans, twins and ``pdt log``'s event lists.
``canonical_bytes`` writes the rest: diagnostics, feasibility reports, registries, inventory
states and replay traces, whose flat id lists a template wrote only 1.4-1.6x faster.
"""

from __future__ import annotations

import json
from functools import cache
from json.encoder import encode_basestring as _escape  # the C escaper when _json is built
from typing import TYPE_CHECKING, Any

from bipan.model import BiPanModel, Plan, ProductNode

if TYPE_CHECKING:
    from collections.abc import Callable, Collection, Iterable, Mapping

    from bipan.pdt import Event, PdtInstance


def canonical_bytes(obj: Any) -> bytes:
    """Two-space indent, sorted keys, LF line ends, UTF-8, trailing newline.

    This is the byte contract itself. It writes every document but those made of
    records, which the templates below write to the same bytes.
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


def _strings(values: Collection[str]) -> str:
    return _array([*map(_escape, values)], "      ")


def _product(node: ProductNode) -> str:
    text = "{"
    if node.attributes:
        text += f'{_FIELD}"attributes": {_object(node.attributes, "      ")},'
    text += (f'{_FIELD}"id": {_escape(node.id)},{_FIELD}"kind": "{node.kind._value_}",'
             f'{_FIELD}"label": {_escape(node.label)}')
    if node.position is not None:  # three finite floats, which ``json`` writes by ``repr``
        text += f',{_FIELD}"position": {_array([*map(float.__repr__, node.position)], "      ")}'
    if node.type_ref is not None:
        text += f',{_FIELD}"type_ref": {_escape(node.type_ref)}'
    return text + _END


def model_bytes(model: BiPanModel) -> bytes:
    """:func:`canonical_bytes` of the model's document, written straight from its records.

    Each record family spells its keys out in sorted order, so no dict is built and sorted
    again; edges come from ``model.adjacency``, with no record built. An enum gives
    ``_value_``: in Python 3.11, ``.value`` is a descriptor call.
    """
    processes, skills = (
        [f'{{{_FIELD}"id": {_escape(n.id)},{_FIELD}"label": {_escape(n.label)}{_END}'
         for n in nodes]
        for nodes in (model.processes, model.skills)
    )
    inputs, outputs, _, _, skill_ids = model.adjacency
    flows = [f'{{{_FIELD}"process": {_escape(pid)},{_FIELD}"product": {_escape(product)},'
             f'{_FIELD}"role": "{role}"{_END}' for pid in inputs
             for role, ids in (("Input", inputs), ("Output", outputs)) for product in ids[pid]]
    skill_edges = [f'{{{_FIELD}"process": {_escape(pid)},{_FIELD}"skill": {_escape(skill)}{_END}'
                   for pid, skills in skill_ids.items() for skill in skills]
    fastens = [f'{{{_FIELD}"fastener": {_escape(l.fastener)},'
               f'{_FIELD}"secures": {_strings(l.secures)}{_END}' for l in model.fastens]
    products = [_product(node) for node in model.products]
    return (
        f'{{\n  "fastens": {_array(fastens, "  ")},\n  "flows": {_array(flows, "  ")},'
        f'\n  "id": {_escape(model.id)},\n  "processes": {_array(processes, "  ")},'
        f'\n  "products": {_array(products, "  ")},\n  "skill_edges": {_array(skill_edges, "  ")},'
        f'\n  "skills": {_array(skills, "  ")}\n}}\n'
    ).encode("utf-8")


def plan_bytes(plan: Plan) -> bytes:
    """:func:`canonical_bytes` of the plan's document; a swap step adds the two ids it names."""
    lists, steps = cache(_strings), []  # a plan's id lists recur: each is encoded once per call
    for step in plan.steps:
        text = (f'{{{_FIELD}"consumed": {lists(step.consumed)},'
                f'{_FIELD}"direction": "{step.direction._value_}",{_FIELD}"process": '
                f'{_escape(step.process)},{_FIELD}"produced": {lists(step.produced)},'
                f'{_FIELD}"required_skills": {lists(step.required_skills)}')
        if step.swap_target is not None:
            text += (f',{_FIELD}"swap_replacement": {_escape(step.swap_replacement)},'
                     f'{_FIELD}"swap_target": {_escape(step.swap_target)}')
        steps.append(text + _END)
    return (
        f'{{\n  "model_digest": {_escape(plan.model_digest)},'
        f'\n  "model_id": {_escape(plan.model_id)},\n  "steps": {_array(steps, "  ")}\n}}\n'
    ).encode("utf-8")


def _events(events: Iterable[Event], indent: str, before: str, after: str) -> bytes:
    """UTF-8 of ``before``, a JSON array of twin events in log order (its closing bracket at
    ``indent``) and ``after``. A log runs to thousands of events, so each event's text, its
    payload written in place, is one item of a list, which is joined and encoded once."""
    field, line, close = f"\n{indent}    ", f"\n{indent}      ", f"\n{indent}    }}"
    start, then, sep, pieces = f"[\n  {indent}{{", f",\n  {indent}{{", "," + line, [before]
    for event in events:
        text = f'{start}{field}"kind": {_escape(event.kind)},{field}"payload": {{'
        start, lead = then, line
        for key, value in sorted(event.payload.items()):
            text += f"{lead}{_escape(key)}: {_escape(value)}"
            lead = sep  # a payload with members closes on a line of its own
        pieces.append(f'{text}{close if lead is sep else "}"},{field}"timestamp": '
                      f'{_escape(event.timestamp)}\n{indent}  }}')
    pieces.append(f"\n{indent}]{after}" if start is then else f"[]{after}")  # no event: []
    return "".join(pieces).encode("utf-8")


def events_bytes(events: Iterable[Event]) -> bytes:
    """:func:`canonical_bytes` of a list of twin events, as ``pdt log --format json`` prints it."""
    return _events(events, "", "", "\n")


def twin_bytes(twin: PdtInstance) -> bytes:
    """:func:`canonical_bytes` of the twin's document: its events in log order, then its health."""
    health = _object(twin.health, "  ", lambda h: f'"{h._value_}"')
    return _events(twin.events, "  ", '{\n  "events": ',
                   f',\n  "health": {health},\n  "instance_id": {_escape(twin.instance_id)},'
                   f'\n  "model_digest": {_escape(twin.model_digest)},'
                   f'\n  "model_id": {_escape(twin.model_id)}\n}}\n')


def model_digest(model: BiPanModel) -> str:
    """SHA-256 hex digest of :func:`model_bytes`."""
    import hashlib  # not every command takes a digest
    return hashlib.sha256(model_bytes(model)).hexdigest()
