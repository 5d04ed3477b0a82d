"""Canonical JSON form shared by all serialized documents, plus the model digest."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring as _escape  # the C escaper when _json is built
from typing import Any

from bipan.model import BiPanModel, ProductNode


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


def product_to_obj(node: ProductNode) -> dict[str, Any]:
    entry: dict[str, Any] = {"id": node.id, "kind": node.kind._value_, "label": node.label}
    if node.type_ref is not None:
        entry["type_ref"] = node.type_ref
    if node.position is not None:
        entry["position"] = list(node.position)
    if node.attributes:
        entry["attributes"] = node.attributes
    return entry


def model_to_obj(model: BiPanModel) -> dict[str, Any]:
    """JSON object for a model; collection order comes from model normalization.

    Enum members give their value as ``_value_``: in Python 3.11, ``.value`` is a
    descriptor call in Python, and it was half the cost of this function.
    """
    return {
        "id": model.id,
        "products": [product_to_obj(p) for p in model.products],
        "processes": [{"id": p.id, "label": p.label} for p in model.processes],
        "skills": [{"id": s.id, "label": s.label} for s in model.skills],
        "flows": [
            {"process": f.process, "product": f.product, "role": f.role._value_}
            for f in model.flows
        ],
        "skill_edges": [{"process": e.process, "skill": e.skill} for e in model.skill_edges],
        "fastens": [
            {"fastener": l.fastener, "secures": sorted(l.secures)} for l in model.fastens
        ],
    }


def model_digest(model: BiPanModel) -> str:
    """SHA-256 hex digest of the canonical model document bytes."""
    import hashlib  # not every command takes a digest
    return hashlib.sha256(canonical_bytes(model_to_obj(model))).hexdigest()
