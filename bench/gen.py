"""Seeded generator of benchmark models, written as canonical model documents.

``_build`` turns a process tree into a model document; three shapes feed it:

* ``chain``: a deep chain, one process per stage with 3 leaves each, so every
  spine is as long as the model is deep;
* ``wide``: one process whose inputs are all the leaves, so spines have length 1;
* ``bushy``: a 4-ary in-tree of processes with 0-3 leaves each, so spines stay
  about log4(processes) long.

The documents are built here from plain dicts and serialized with the
canonical JSON rules (sorted keys, two-space indent, UTF-8, trailing newline)
and the model's own collection order, so ``save_model(load_model(b)) == b``.
Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SKILL_POOL = ("connecting-cables", "gluing", "manipulation", "riveting", "screwing")
LEAF_KINDS = ("Elementary", "SubProduct", "Fastener")
FINAL = "final"
SHAPES = ("chain", "wide", "bushy")


@dataclass(frozen=True)
class Generated:
    """A generated model: its document bytes plus the structure checks rely on."""

    shape: str
    seed: int
    data: bytes
    nodes: int
    leaves: tuple[str, ...]
    leaf_depth: dict[str, int]  # leaf -> number of processes from its consumer to the root

    def deepest_leaf(self) -> str:
        return max(self.leaves, key=lambda leaf: (self.leaf_depth[leaf], leaf))


def canonical(obj: object) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _build(
    rng: random.Random, model_id: str, parent: list[int | None], n_leaves: list[int]
) -> tuple[dict, dict[str, int]]:
    """Model document for a process tree; ``parent[i]`` is the consumer of process i's output."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)
    depth = [0] * n
    for i in range(n):  # parents always precede children
        depth[i] = 0 if parent[i] is None else depth[parent[i]] + 1

    products = [{"id": FINAL, "kind": "Final", "label": "Final assembly"}]
    processes, flows, skill_edges, fastens = [], [], [], []
    used_skills: set[str] = set()
    leaf_depth: dict[str, int] = {}

    for i in range(n):
        pid = f"p{i:05d}"
        processes.append({"id": pid, "label": f"Process {i}"})
        output = FINAL if parent[i] is None else f"s{i:05d}"
        if parent[i] is not None:
            products.append({"id": output, "kind": "Stage", "label": f"Stage {i}"})
            flows.append({"process": f"p{parent[i]:05d}", "product": output, "role": "Input"})
        flows.append({"process": pid, "product": output, "role": "Output"})

        inputs = [f"s{c:05d}" for c in children[i]]
        fasteners = []
        for j in range(n_leaves[i]):
            leaf = f"c{i:05d}_{j}"
            kind = rng.choice(LEAF_KINDS)
            entry = {"id": leaf, "kind": kind, "label": f"Part {i}.{j}"}
            if rng.random() < 0.3:
                entry["type_ref"] = f"type-{j}"
            if rng.random() < 0.25:
                entry["position"] = [round(rng.uniform(-2, 2), 3) for _ in range(2)] + [
                    round(rng.uniform(0, 1), 3)
                ]
            if kind == "Fastener":
                fasteners.append(leaf)
                if rng.random() < 0.5:
                    entry["attributes"] = {"skill": rng.choice(("screwing", "riveting"))}
            products.append(entry)
            flows.append({"process": pid, "product": leaf, "role": "Input"})
            inputs.append(leaf)
            leaf_depth[leaf] = depth[i] + 1

        for label in sorted(rng.sample(SKILL_POOL, rng.randint(1, 3))):
            skill_edges.append({"process": pid, "skill": label})
            used_skills.add(label)

        if fasteners and len(inputs) > 1 and rng.random() < 0.3:
            fastener = rng.choice(fasteners)
            others = sorted(x for x in inputs if x != fastener)
            secured = rng.sample(others, rng.randint(1, min(len(others), 4)))
            fastens.append({"fastener": fastener, "secures": sorted(secured)})

    doc = {
        "id": model_id,
        "products": sorted(products, key=lambda e: e["id"]),
        "processes": processes,
        "skills": [{"id": s, "label": s} for s in sorted(used_skills)],
        "flows": sorted(flows, key=lambda f: (f["process"], f["role"], f["product"])),
        "skill_edges": sorted(skill_edges, key=lambda e: (e["process"], e["skill"])),
        "fastens": sorted(fastens, key=lambda l: (l["fastener"], l["secures"])),
    }
    return doc, leaf_depth


def generate(shape: str, seed: int, nodes: int) -> Generated:
    """A valid model of the given shape with roughly ``nodes`` nodes, fixed by ``seed``."""
    rng = random.Random(f"{shape}:{seed}:{nodes}")
    if shape == "chain":  # 5 nodes per stage: process, stage, 3 leaves
        n = max(1, nodes // 5)
        parent: list[int | None] = [None] + list(range(n - 1))
        n_leaves = [3] * n
    elif shape == "wide":
        parent = [None]
        n_leaves = [max(1, nodes - 7)]
    elif shape == "bushy":  # about 4 nodes per process
        n = max(1, nodes // 4)
        parent = [None] + [(i - 1) // 4 for i in range(1, n)]
        n_leaves = [rng.randint(0 if 4 * i + 1 < n else 1, 3) for i in range(n)]
    else:
        raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
    doc, leaf_depth = _build(rng, f"{shape}-{seed}-{nodes}", parent, n_leaves)
    count = len(doc["products"]) + len(doc["processes"]) + len(doc["skills"])
    return Generated(shape, seed, canonical(doc), count, tuple(leaf_depth), leaf_depth)
