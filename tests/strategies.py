"""Random valid model generation, for property tests and the acceptance corpus."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from bipan.model import (
    BiPanModel,
    FastensLink,
    FlowRole,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
)

SKILL_POOL = ("manipulation", "screwing", "connecting-cables", "gluing", "riveting")
LEAF_KINDS = (ProductKind.ELEMENTARY, ProductKind.SUB_PRODUCT, ProductKind.FASTENER)


def build_random_model(
    rng: random.Random, max_processes: int = 6, chain: bool = False
) -> BiPanModel:
    """A random in-tree of processes that always passes validation without errors.

    Stays under 50 nodes for max_processes <= 6: at most 6 processes, 6 stage or
    final outputs, 18 leaves and 5 skills. With ``chain``, the tree is one spine
    of exactly ``max_processes`` processes, each feeding the next.
    """
    n_processes = max_processes if chain else rng.randint(1, max_processes)
    parent = {i: i - 1 if chain else rng.randrange(i) for i in range(1, n_processes)}
    children: dict[int, list[int]] = {i: [] for i in range(n_processes)}
    for child, par in parent.items():
        children[par].append(child)

    products: list[ProductNode] = [ProductNode("final", "Final assembly", ProductKind.FINAL)]
    processes: list[ProcessNode] = []
    flows: list[tuple[str, str, FlowRole]] = []
    skill_edges: list[tuple[str, str]] = []
    fastens: list[FastensLink] = []
    used_skills: set[str] = set()

    for i in range(n_processes):
        pid = f"proc_{i:02d}"
        processes.append(ProcessNode(pid, f"Step {i}"))
        output = "final" if i == 0 else f"stage_{i:02d}"
        if i > 0:
            products.append(ProductNode(output, f"Stage {i}", ProductKind.STAGE))
            flows.append((output, f"proc_{parent[i]:02d}", FlowRole.INPUT))
        flows.append((output, pid, FlowRole.OUTPUT))

        min_leaves = 0 if children[i] else 1
        leaf_ids = []
        for j in range(rng.randint(min_leaves, 3)):
            leaf_id = f"part_{i:02d}_{j}"
            kind = rng.choice(LEAF_KINDS)
            position = None
            if rng.random() < 0.25:
                position = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1))
            attributes = {"skill": rng.choice(SKILL_POOL)} if rng.random() < 0.2 else {}
            products.append(
                ProductNode(
                    leaf_id,
                    f"Part {i}.{j}",
                    kind,
                    type_ref=f"type-{j}" if rng.random() < 0.3 else None,
                    position=position,
                    attributes=attributes,
                )
            )
            flows.append((leaf_id, pid, FlowRole.INPUT))
            leaf_ids.append((leaf_id, kind))

        for label in rng.sample(SKILL_POOL, rng.randint(0, 3)):
            skill_edges.append((pid, label))
            used_skills.add(label)

        fastener_ids = [lid for lid, kind in leaf_ids if kind is ProductKind.FASTENER]
        siblings = [lid for lid, _ in leaf_ids] + [f"stage_{c:02d}" for c in children[i]]
        if fastener_ids and len(siblings) > 1 and rng.random() < 0.4:
            fastener = rng.choice(fastener_ids)
            secured = [s for s in siblings if s != fastener]
            fastens.append(
                FastensLink(fastener, frozenset(rng.sample(secured, rng.randint(1, len(secured)))))
            )

    skills = tuple(SkillNode(label, label) for label in sorted(used_skills))
    return BiPanModel(
        id=f"random-{rng.randint(0, 10**9)}",
        products=tuple(products),
        processes=tuple(processes),
        skills=skills,
        flows=tuple(flows),
        skill_edges=tuple(skill_edges),
        fastens=tuple(fastens),
    )


def models(max_processes: int = 6) -> st.SearchStrategy[BiPanModel]:
    return st.builds(
        lambda rng: build_random_model(rng, max_processes),
        st.randoms(use_true_random=False),
    )


def acceptance_corpus(count: int = 200) -> list[BiPanModel]:
    """Deterministic corpus: one model per seed 0..count-1."""
    return [build_random_model(random.Random(seed)) for seed in range(count)]
