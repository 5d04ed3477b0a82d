"""Canonical JSON form shared by all serialized documents, plus the model digest."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring as _escape  # the C escaper when _json is built
from typing import TYPE_CHECKING, Any

from bipan.model import BiPanModel, ProductNode

if TYPE_CHECKING:
    from collections.abc import Collection

    from bipan.plan import Plan


def canonical_bytes(obj: Any) -> bytes:
    """Two-space indent, sorted keys, LF line ends, UTF-8, trailing newline.

    The bytes are exactly the UTF-8 of ``json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False) + "\n"``. That call is the tests' oracle, not the
    implementation: with ``indent`` set, CPython 3.11 runs its pure-Python
    encoder, about twice as slow as :func:`_encode`. Object keys must be strings.
    """
    return (_encode(obj, "", {}) + "\n").encode("utf-8")


def _encode(value: Any, indent: str, heads: dict[str, str]) -> str:
    """``value`` as indented JSON whose first line sits at ``indent``.

    Strings go through ``json``'s C escaper, and are escaped in place inside
    containers, without a call per item. ``heads`` holds each object key met so
    far, escaped and followed by ``": "``, since a document repeats its field
    names in every record. A finite float is ``float.__repr__``, the function
    ``json`` formats it with; every other scalar (ints, ``NaN``, ``Infinity``,
    ``true``, ``null``) goes to ``json.dumps``.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in sorted(value.items()):
            head = heads.get(key)
            if head is None:
                head = heads[key] = _escape(key) + ": "
            text = _escape(item) if type(item) is str else _encode(item, inner, heads)
            items.append(head + text)
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [
            _escape(item) if type(item) is str else _encode(item, inner, heads) for item in value
        ]
        opening, closing = "[", "]"
    elif isinstance(value, str):
        return _escape(value)
    elif type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    else:
        return json.dumps(value)
    separator = ",\n" + inner
    return f"{opening}\n{inner}{separator.join(items)}\n{indent}{closing}"


#: A field's line start and the closing line of a record in a top-level array.
_FIELD, _END = "\n      ", "\n    }"


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded ``items``, its closing bracket at ``indent``."""
    return f"[\n  {indent}" + f",\n  {indent}".join(items) + f"\n{indent}]" if items else "[]"


def _strings(values: Collection[str]) -> str:
    return _array([*map(_escape, values)], "      ")


def _product(node: ProductNode) -> str:
    text = "{"
    if node.attributes:
        text += f'{_FIELD}"attributes": {_encode(node.attributes, "      ", {})},'
    text += (f'{_FIELD}"id": {_escape(node.id)},{_FIELD}"kind": "{node.kind._value_}",'
             f'{_FIELD}"label": {_escape(node.label)}')
    if node.position is not None:
        text += f',{_FIELD}"position": {_encode(node.position, "      ", {})}'
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
    """:func:`canonical_bytes` of the plan's document; a swap step adds its two swap fields."""
    from bipan.plan import Direction  # only the commands that plan load the planners
    steps = []
    for step in plan.steps:
        text = (f'{{{_FIELD}"consumed": {_strings(step.consumed)},'
                f'{_FIELD}"direction": "{step.direction._value_}",{_FIELD}"process": '
                f'{_escape(step.process)},{_FIELD}"produced": {_strings(step.produced)},'
                f'{_FIELD}"required_skills": {_strings(step.required_skills)}')
        if step.direction is Direction.SWAP:  # ``null`` where a hand-built step leaves one unset
            text += (f',{_FIELD}"swap_replacement": {_encode(step.swap_replacement, "", {})},'
                     f'{_FIELD}"swap_target": {_encode(step.swap_target, "", {})}')
        steps.append(text + _END)
    return (
        f'{{\n  "model_digest": {_escape(plan.model_digest)},'
        f'\n  "model_id": {_escape(plan.model_id)},\n  "steps": {_array(steps, "  ")}\n}}\n'
    ).encode("utf-8")


def model_digest(model: BiPanModel) -> str:
    """SHA-256 hex digest of :func:`model_bytes`."""
    import hashlib  # not every command takes a digest
    return hashlib.sha256(model_bytes(model)).hexdigest()
