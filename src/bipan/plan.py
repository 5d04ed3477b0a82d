"""Directional plan extraction from a bidirectional model, plus resource feasibility.

One model yields assembly, full or partial disassembly, and component-swap
repair plans. Every plan is a pure view: the model is never mutated, and
identical inputs always produce identical plans (ties broken by ascending id).
Plans replay in :mod:`bipan.execute`, which acts as the independent oracle and
deliberately shares no traversal code with the planners here.

Repair plans descend from the final product, swapping each broken component the
moment its enclosing stage is the topmost present assembly, and reassemble on
the way back up. Once a component has been swapped, later steps consume and
produce its replacement id instead of the original.

Swap steps need a skill scope. If a fastens link names the broken component,
the scope is "manipulation" plus the skills attributable to its securing
fasteners: a fastener's ``skill`` attribute when set, otherwise all of the
process's direction-changing skills. Without fastens coverage the scope is
every skill of the consuming process (a safe over-approximation). Either way
each scoped skill contributes both its forward and its inverted label.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Iterable, Mapping
from enum import Enum

from bipan import validate  # registered unloaded; runs only when a planner validates a model
from bipan.errors import BiPanError
from bipan.model import COMPONENT_KINDS, BiPanModel, FrozenMap, ProductKind, Record, _set, check_id


class Direction(Enum):
    FORWARD = "Forward"
    REVERSE = "Reverse"
    SWAP = "Swap"


class DisassemblyMode(Enum):
    EXPOSE = "Expose"
    EXTRACT = "Extract"


#: The assembly-to-disassembly skill relabeling; unmapped labels invert to themselves.
#: Read-only, as every planner and the replay oracle read it.
INVERSION: Mapping[str, str] = FrozenMap(
    {
        "screwing": "unscrewing",
        "connecting-cables": "disconnecting-cables",
        "manipulation": "manipulation",
    }
)


def _inverted(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted({INVERSION.get(label, label) for label in labels}))


class PlanStep(Record):
    """One directed process application with resolved inventory effect and skills.

    A Swap consumes one id, its ``swap_replacement``, and produces one, its
    ``swap_target`` (``malformed-step`` otherwise); both are None on other steps.
    """

    __slots__ = ("process", "direction", "consumed", "produced", "required_skills", "swap_target",
                 "swap_replacement")

    def __init__(self, process: str, direction: Direction, consumed: Iterable[str],
                 produced: Iterable[str], required_skills: Iterable[str]) -> None:
        consumed, produced = tuple(consumed), tuple(produced)
        swap = direction is Direction.SWAP
        if swap and (len(consumed), len(produced)) != (1, 1):
            raise BiPanError(
                "malformed-step", f"swap step at '{process}' must consume one id and produce one"
            )
        _set(self, "process", process)
        _set(self, "direction", direction)
        _set(self, "consumed", consumed)
        _set(self, "produced", produced)
        _set(self, "required_skills", tuple(required_skills))
        _set(self, "swap_target", produced[0] if swap else None)
        _set(self, "swap_replacement", consumed[0] if swap else None)


class Plan(Record):
    """Ordered steps bound to one model version via its digest."""

    __slots__ = ("model_id", "model_digest", "steps")

    def __init__(self, model_id: str, model_digest: str, steps: Iterable[PlanStep]) -> None:
        _set(self, "model_id", model_id)
        _set(self, "model_digest", model_digest)
        _set(self, "steps", tuple(steps))

    def process_sequence(self) -> tuple[str, ...]:
        return tuple(step.process for step in self.steps)

    def replacement_ids(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                {
                    step.swap_replacement
                    for step in self.steps
                    if step.swap_replacement is not None
                }
            )
        )


# -- plan extraction ---------------------------------------------------------


def _site(model: BiPanModel, product: str) -> str:
    """The process consuming ``product``, a product that is not the final one."""
    consumers = model.adjacency.consumers[product]
    if not consumers:
        raise BiPanError(
            "detached-node", f"product '{product}' has no consumer and is not the final product"
        )
    return consumers[0]


def _parent(model: BiPanModel, process_id: str) -> str | None:
    """The process consuming ``process_id``'s one output (V001); None at the root."""
    adjacency = model.adjacency
    consumers = adjacency.consumers[adjacency.outputs[process_id][0]]
    return consumers[0] if consumers else None


def assembly_order(model: BiPanModel) -> tuple[str, ...]:
    """Topological order of processes in assembly direction, least id first among ready.

    Every process is ordered: callers validate first, and V008 rejects every cycle.
    """
    adjacency = model.adjacency
    dependents: dict[str, list[str]] = {p.id: [] for p in model.processes}
    indegree: dict[str, int] = {p.id: 0 for p in model.processes}
    for proc in model.processes:
        for inp in adjacency.inputs[proc.id]:
            for upstream in adjacency.producers[inp]:
                dependents[upstream].append(proc.id)
                indegree[proc.id] += 1
    ready = [pid for pid, deg in sorted(indegree.items()) if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        pid = heapq.heappop(ready)
        order.append(pid)
        for follower in dependents[pid]:
            indegree[follower] -= 1
            if indegree[follower] == 0:
                heapq.heappush(ready, follower)
    return tuple(order)


def _forward_step(model: BiPanModel, process_id: str, inputs: tuple[str, ...]) -> PlanStep:
    """The process run forward, consuming ``inputs``: its own, or a repair's resolved ones."""
    return PlanStep(
        process=process_id,
        direction=Direction.FORWARD,
        consumed=inputs,
        produced=model.adjacency.outputs[process_id],  # exactly one, by V001
        required_skills=model.skill_labels_of(process_id),
    )


def _reverse_step(model: BiPanModel, process_id: str, inputs: tuple[str, ...]) -> PlanStep:
    """The process undone, producing ``inputs``: its own, or a repair's resolved ones."""
    return PlanStep(
        process=process_id,
        direction=Direction.REVERSE,
        consumed=model.adjacency.outputs[process_id],
        produced=inputs,
        required_skills=_inverted(model.skill_labels_of(process_id)),
    )


def assembly_recipe(model: BiPanModel) -> Plan:
    """Forward steps over all processes, in assembly topological order."""
    validate.ensure_valid(model)
    inputs = model.adjacency.inputs
    steps = tuple(_forward_step(model, pid, inputs[pid]) for pid in assembly_order(model))
    return Plan(model.id, model.digest, steps)


def full_disassembly(model: BiPanModel) -> Plan:
    """Reverse steps over all processes: assembly order backwards, skills inverted."""
    validate.ensure_valid(model)
    inputs = model.adjacency.inputs
    steps = tuple(_reverse_step(model, pid, inputs[pid]) for pid in reversed(assembly_order(model)))
    return Plan(model.id, model.digest, steps)


def disassembly_to(model: BiPanModel, target: str, mode: DisassemblyMode) -> Plan:
    """Partial disassembly toward one product.

    Expose reverses from the root down to (excluding) the target's consuming
    process, so the stage containing the target becomes a free inventory item;
    Extract additionally reverses that process, freeing the target itself.
    """
    validate.ensure_valid(model)
    if model.product(target).kind is ProductKind.FINAL:
        raise BiPanError("target-is-final", f"cannot plan disassembly to final product '{target}'")
    chain = [_site(model, target)]
    while (parent := _parent(model, chain[-1])) is not None:
        chain.append(parent)
    selected = chain if mode is DisassemblyMode.EXTRACT else chain[1:]
    inputs = model.adjacency.inputs
    steps = tuple(_reverse_step(model, pid, inputs[pid]) for pid in reversed(selected))
    return Plan(model.id, model.digest, steps)


def _swap_skills(model: BiPanModel, site: str, securing: Collection[str]) -> tuple[str, ...]:
    labels = model.skill_labels_of(site)
    if securing:
        scope = {"manipulation"}
        directional = {label for label in labels if INVERSION.get(label, label) != label}
        for fastener_id in securing:
            declared = model.product(fastener_id).attributes.get("skill")
            if declared:
                scope.add(declared)
            else:
                scope |= directional
    else:
        scope = set(labels)
    return tuple(sorted(scope | {INVERSION.get(label, label) for label in scope}))


def repair_plan(model: BiPanModel, broken: Iterable[str], replacements: Mapping[str, str]) -> Plan:
    """Single descend/ascend pass replacing every broken component.

    The plan reverses each process strictly above a swap site (root first),
    emits the swap the moment the site's output stage is topmost, then runs the
    reversed processes forward again. Swap steps consume the replacement and
    produce the broken component as a free, removed item.
    """
    validate.ensure_valid(model)
    broken_set = set(broken)
    broken_ids = sorted(broken_set)

    used_replacements: dict[str, str] = {}
    for component in broken_ids:
        node = model.product(component)  # raises unknown-node
        if node.kind not in COMPONENT_KINDS:
            raise BiPanError(
                "broken-kind-not-replaceable",
                f"cannot replace '{component}' of kind {node.kind.value}",
            )
        if component not in replacements:
            raise BiPanError("missing-replacement", f"no replacement id for '{component}'")
        replacement = check_id(replacements[component])
        if model.has_node(replacement):
            raise BiPanError(
                "replacement-exists",
                f"replacement id '{replacement}' already names a node in model '{model.id}'",
            )
        if replacement in used_replacements:
            raise BiPanError(
                "replacement-exists",
                f"replacement id '{replacement}' assigned to more than one broken component",
            )
        used_replacements[replacement] = component

    # One walk up from each swap site, stopping at the first process an earlier
    # walk reached, gives the process whose reversal frees the site's output (None
    # when it is already topmost) and the distance from the root of every process
    # strictly above a site. Each process is visited once.
    sites: dict[str, list[str]] = {}
    for component in broken_ids:
        sites.setdefault(_site(model, component), []).append(component)
    freed_by: dict[str | None, set[str]] = {}
    depth: dict[str, int] = {}
    for site in sites:
        walk: list[str] = []
        above = _parent(model, site)
        freed_by.setdefault(above, set()).add(site)
        while above is not None and above not in depth:
            walk.append(above)
            above = _parent(model, above)
        base = 0 if above is None else depth[above] + 1
        depth.update((pid, base + d) for d, pid in enumerate(reversed(walk)))
    reversal = sorted(depth, key=lambda pid: (depth[pid], pid))

    # The fasteners securing each broken component. Validation (V003, V011) makes
    # each an input of the component's one consumer, its swap site.
    securing: dict[str, set[str]] = {}
    for link in model.fastens:
        for component in link.secures & broken_set:
            securing.setdefault(component, set()).add(link.fastener)

    substitution: dict[str, str] = {}
    steps: list[PlanStep] = []

    def emit_swaps_freed_by(process_id: str | None) -> None:
        for site in sorted(freed_by.get(process_id, ())):
            for component in sites[site]:
                replacement = replacements[component]
                skills = _swap_skills(model, site, securing.get(component, ()))
                steps.append(PlanStep(site, Direction.SWAP, (replacement,), (component,), skills))
                substitution[component] = replacement

    def resolve(ids: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(substitution.get(i, i) for i in ids))

    inputs = model.adjacency.inputs
    emit_swaps_freed_by(None)
    for process_id in reversal:
        steps.append(_reverse_step(model, process_id, resolve(inputs[process_id])))
        emit_swaps_freed_by(process_id)
    for process_id in reversed(reversal):
        steps.append(_forward_step(model, process_id, resolve(inputs[process_id])))

    return Plan(model.id, model.digest, steps)


def check_feasibility(plan: Plan, skills: Collection[str]) -> tuple[tuple[str, ...], ...]:
    """Each step's required skills missing from ``skills``, sorted, in step order.

    The plan is feasible when every entry is empty.
    """
    return tuple(tuple(sorted(set(step.required_skills).difference(skills))) for step in plan.steps)
