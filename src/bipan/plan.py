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
from dataclasses import dataclass
from enum import Enum

from bipan.errors import BiPanError
from bipan.model import COMPONENT_KINDS, BiPanModel, FrozenMap, ProductKind, check_id
from bipan.validate import ensure_valid


class Direction(Enum):
    FORWARD = "Forward"
    REVERSE = "Reverse"
    SWAP = "Swap"


class DisassemblyMode(Enum):
    EXPOSE = "Expose"
    EXTRACT = "Extract"


#: Default assembly-to-disassembly skill relabeling; unmapped labels invert to themselves.
#: Read-only, as it is the shared default of every planner's ``inv``; pass ``{}`` for none.
DEFAULT_INVERSION: Mapping[str, str] = FrozenMap(
    {
        "screwing": "unscrewing",
        "connecting-cables": "disconnecting-cables",
        "manipulation": "manipulation",
    }
)


def _inverted(labels: Iterable[str], inv: Mapping[str, str]) -> tuple[str, ...]:
    return tuple(sorted({inv.get(label, label) for label in labels}))


@dataclass(frozen=True)
class PlanStep:
    """One directed process application with resolved inventory effect and skills."""

    process: str
    direction: Direction
    consumed: tuple[str, ...]
    produced: tuple[str, ...]
    required_skills: tuple[str, ...]
    swap_target: str | None = None
    swap_replacement: str | None = None


@dataclass(frozen=True)
class Plan:
    """Ordered steps bound to one model version via its digest."""

    model_id: str
    model_digest: str
    steps: tuple[PlanStep, ...]

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


def assembly_order(model: BiPanModel) -> tuple[str, ...]:
    """Topological order of processes in assembly direction, least id first among ready.

    Every process is ordered: callers validate first, and V008 rejects every cycle.
    """
    dependents: dict[str, list[str]] = {p.id: [] for p in model.processes}
    indegree: dict[str, int] = {p.id: 0 for p in model.processes}
    for proc in model.processes:
        for inp in model.inputs_of(proc.id):
            upstream = model.producer_of(inp)
            if upstream is not None:
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
    output = model.output_of(process_id)
    assert output is not None  # guaranteed by validation (V001)
    return PlanStep(
        process=process_id,
        direction=Direction.FORWARD,
        consumed=inputs,
        produced=(output,),
        required_skills=model.skill_labels_of(process_id),
    )


def _reverse_step(
    model: BiPanModel, process_id: str, inputs: tuple[str, ...], inv: Mapping[str, str]
) -> PlanStep:
    """The process undone, producing ``inputs``: its own, or a repair's resolved ones."""
    output = model.output_of(process_id)
    assert output is not None
    return PlanStep(
        process=process_id,
        direction=Direction.REVERSE,
        consumed=(output,),
        produced=inputs,
        required_skills=_inverted(model.skill_labels_of(process_id), inv),
    )


def assembly_recipe(model: BiPanModel) -> Plan:
    """Forward steps over all processes, in assembly topological order."""
    ensure_valid(model)
    steps = tuple(_forward_step(model, pid, model.inputs_of(pid)) for pid in assembly_order(model))
    return Plan(model.id, model.digest, steps)


def full_disassembly(model: BiPanModel, inv: Mapping[str, str] = DEFAULT_INVERSION) -> Plan:
    """Reverse steps over all processes: assembly order backwards, skills inverted."""
    ensure_valid(model)
    order = reversed(assembly_order(model))
    steps = tuple(_reverse_step(model, pid, model.inputs_of(pid), inv) for pid in order)
    return Plan(model.id, model.digest, steps)


def disassembly_to(
    model: BiPanModel,
    target: str,
    mode: DisassemblyMode,
    inv: Mapping[str, str] = DEFAULT_INVERSION,
) -> Plan:
    """Partial disassembly toward one product.

    Expose reverses from the root down to (excluding) the target's consuming
    process, so the stage containing the target becomes a free inventory item;
    Extract additionally reverses that process, freeing the target itself.
    """
    ensure_valid(model)
    if model.product(target).kind is ProductKind.FINAL:
        raise BiPanError("target-is-final", f"cannot plan disassembly to final product '{target}'")
    spine = model.spine(target)
    root_first = tuple(reversed(spine))
    selected = root_first if mode is DisassemblyMode.EXTRACT else root_first[:-1]
    steps = tuple(_reverse_step(model, pid, model.inputs_of(pid), inv) for pid in selected)
    return Plan(model.id, model.digest, steps)


def _swap_skills(
    model: BiPanModel, site: str, securing: Collection[str], inv: Mapping[str, str]
) -> tuple[str, ...]:
    labels = model.skill_labels_of(site)
    if securing:
        scope = {"manipulation"}
        directional = {label for label in labels if inv.get(label, label) != label}
        for fastener_id in securing:
            declared = model.product(fastener_id).attributes.get("skill")
            if declared:
                scope.add(declared)
            else:
                scope |= directional
    else:
        scope = set(labels)
    return tuple(sorted(scope | {inv.get(label, label) for label in scope}))


def repair_plan(
    model: BiPanModel,
    broken: Iterable[str],
    replacements: Mapping[str, str],
    inv: Mapping[str, str] = DEFAULT_INVERSION,
) -> Plan:
    """Single descend/ascend pass replacing every broken component.

    The plan reverses each process strictly above a swap site (root first),
    emits the swap the moment the site's output stage is topmost, then runs the
    reversed processes forward again. Swap steps consume the replacement and
    produce the broken component as a free, removed item.
    """
    ensure_valid(model)
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
        site = model.consumer_of(component)
        if site is None:
            model.spine(component)  # raises detached-node
        sites.setdefault(site, []).append(component)
    freed_by: dict[str | None, set[str]] = {}
    depth: dict[str, int] = {}
    for site in sites:
        walk: list[str] = []
        above = model.consumer_of(model.output_of(site))
        freed_by.setdefault(above, set()).add(site)
        while above is not None and above not in depth:
            walk.append(above)
            above = model.consumer_of(model.output_of(above))
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
                skills = _swap_skills(model, site, securing.get(component, ()), inv)
                steps.append(PlanStep(site, Direction.SWAP, (replacement,), (component,), skills,
                                      swap_target=component, swap_replacement=replacement))
                substitution[component] = replacement

    def resolve(ids: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(substitution.get(i, i) for i in ids))

    emit_swaps_freed_by(None)
    for process_id in reversal:
        steps.append(_reverse_step(model, process_id, resolve(model.inputs_of(process_id)), inv))
        emit_swaps_freed_by(process_id)
    for process_id in reversed(reversal):
        steps.append(_forward_step(model, process_id, resolve(model.inputs_of(process_id))))

    return Plan(model.id, model.digest, tuple(steps))


def check_feasibility(plan: Plan, skills: Collection[str]) -> tuple[tuple[str, ...], ...]:
    """Each step's required skills missing from ``skills``, sorted, in step order.

    The plan is feasible when every entry is empty.
    """
    return tuple(tuple(sorted(set(step.required_skills).difference(skills))) for step in plan.steps)
