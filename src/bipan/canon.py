"""Canonical JSON form shared by all serialized documents, plus the model digest."""

from __future__ import annotations

import hashlib
import json
from typing import Any

from bipan.model import BiPanModel, ProductNode


def canonical_bytes(obj: Any) -> bytes:
    """Two-space indent, sorted keys, LF line ends, UTF-8, trailing newline."""
    return (json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8")


def product_to_obj(node: ProductNode) -> dict[str, Any]:
    entry: dict[str, Any] = {"id": node.id, "kind": node.kind.value, "label": node.label}
    if node.type_ref is not None:
        entry["type_ref"] = node.type_ref
    if node.position is not None:
        entry["position"] = list(node.position)
    if node.attributes:
        entry["attributes"] = dict(node.attributes)
    return entry


def model_to_obj(model: BiPanModel) -> dict[str, Any]:
    """JSON object for a model; collection order comes from model normalization."""
    return {
        "id": model.id,
        "products": [product_to_obj(p) for p in model.products],
        "processes": [{"id": p.id, "label": p.label} for p in model.processes],
        "skills": [{"id": s.id, "label": s.label} for s in model.skills],
        "flows": [
            {"process": f.process, "product": f.product, "role": f.role.value}
            for f in model.flows
        ],
        "skill_edges": [{"process": e.process, "skill": e.skill} for e in model.skill_edges],
        "fastens": [
            {"fastener": l.fastener, "secures": sorted(l.secures)} for l in model.fastens
        ],
    }


def model_digest(model: BiPanModel) -> str:
    """SHA-256 hex digest of the canonical model document bytes."""
    return hashlib.sha256(canonical_bytes(model_to_obj(model))).hexdigest()
