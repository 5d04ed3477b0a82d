"""Plan interpreter over an inventory state machine.

This is the independent oracle for every planner: a dumb multiset machine that
applies a step's declared consumed/produced effect and knows nothing about how
plans are derived. It checks each step against the model's flows: Forward
consumes the process's inputs (under the substitutions so far), produces its
output and requires the process's skill labels, and Reverse is the converse,
requiring those labels inverted through ``model.INVERSION`` (each label set once per
replay, through a ``functools.cache`` made for that replay). A Swap's lists are its
replacement and its target, one id each, as ``PlanStep`` builds it; it requires the
swap site's output assembly to be present, a target that is one of the site's inputs
and a replacement that names no model node; its skills are unchecked. It records the
broken-to-replacement substitution. A checked step's effect is its own lists, so a
``Trace`` holds only the start state, the steps and the end state: the state after any
step is the start state with the lists of the steps up to it applied.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from functools import cache
from typing import Any

from bipan.errors import BiPanError
from bipan.model import INVERSION, BiPanModel, Direction, FrozenMap, Plan, PlanStep, Record

_SWAP, _FORWARD = Direction.SWAP, Direction.FORWARD  # a member read from its class is a call


class ExecState(Record):
    """Free items and topmost assemblies, plus substitutions applied so far.

    ``substitutions`` is a read-only copy of the mapping given. Every id is a string
    (``parse-error`` otherwise), as a state document holds it.
    """

    __slots__ = ("present", "substitutions")

    def __init__(self, present: frozenset[str],
                 substitutions: Mapping[str, str] = FrozenMap()) -> None:
        present, substitutions = frozenset(present), FrozenMap(substitutions)
        if not {str}.issuperset(map(type, present)):
            raise BiPanError("parse-error", "present must hold strings only")
        if not {str}.issuperset(map(type, (*substitutions, *substitutions.values()))):
            raise BiPanError("parse-error", "substitutions must map strings to strings")
        set_present, set_substitutions = self._stores
        set_present(self, present)
        set_substitutions(self, substitutions)

    def to_obj(self) -> dict[str, Any]:
        return {"present": sorted(self.present), "substitutions": dict(self.substitutions)}


class Trace(Record):
    """One replay: its start state, the steps it applied, and its end state."""

    __slots__ = ("initial", "steps", "final")

    def __init__(self, initial: ExecState, steps: Iterable[PlanStep], final: ExecState) -> None:
        set_initial, set_steps, set_final = self._stores
        set_initial(self, initial)
        set_steps(self, tuple(steps))
        set_final(self, final)

    def __len__(self) -> int:
        return len(self.steps)

    def to_obj(self) -> dict[str, Any]:
        return {"final": self.final.to_obj(), "initial": self.initial.to_obj()}


def initial_inventory(model: BiPanModel) -> ExecState:
    """All leaf products (no producer) free, nothing substituted."""
    model.ensure_valid()
    return ExecState(model.leaf_products())


def final_inventory(model: BiPanModel, plan: Plan) -> ExecState:
    """The final products plus every replacement the plan swaps in, nothing substituted."""
    replacements = (step.swap_replacement for step in plan.steps if step.direction is _SWAP)
    return ExecState((*model.final_products(), *replacements))


def _inverted(labels: tuple[str, ...]) -> tuple[str, ...]:
    """``labels`` inverted, sorted; each replay memoizes it in a ``cache`` of its own."""
    return tuple(sorted({INVERSION.get(label, label) for label in labels}))


def _apply(present: set[str], substitutions: dict[str, str], step: PlanStep, model: BiPanModel,
           invert: Callable[[tuple[str, ...]], tuple[str, ...]]) -> None:
    """Check one step against the working set, then apply it in place.

    Raises as :func:`apply_step` does, before changing anything. A check that passes
    builds nothing: the offending ids are gathered only for the error.
    """
    adjacency = model.adjacency
    outputs = adjacency.outputs.get(step.process)  # the process maps' keys are the processes
    if outputs is None:
        raise BiPanError("unknown-process", f"no process '{step.process}' in model '{model.id}'")
    swap = step.direction is _SWAP
    if swap:
        if len(outputs) != 1:
            raise BiPanError(
                "missing-input", f"swap site '{step.process}' has no unique output assembly"
            )
        needed = (outputs[0], *step.consumed)
    else:
        needed = step.consumed
    if not present.issuperset(needed):
        missing = tuple(item for item in needed if item not in present)
        raise BiPanError("missing-input", f"missing inputs: {', '.join(missing)}", missing)
    if not present.isdisjoint(step.produced):
        # A swap's target must be absent, even when it equals its replacement.
        reusable = () if swap else step.consumed
        clashes = tuple(p for p in step.produced if p in present and p not in reusable)
        if clashes:
            raise BiPanError("double-produce", f"already present: {', '.join(clashes)}", clashes)
    if swap:
        # The site among the target's consumers: one lookup, where the site may have many inputs.
        if step.process not in adjacency.consumers.get(step.swap_target, ()):
            raise BiPanError("step-mismatch", f"swap target '{step.swap_target}' is not an input "
                             f"of '{step.process}'", step.produced)
        if model.has_node(step.swap_replacement):
            raise BiPanError("step-mismatch", f"replacement '{step.swap_replacement}' already "
                             f"names a node in model '{model.id}'", step.consumed)
    else:
        inputs = adjacency.inputs[step.process]
        if substitutions and not substitutions.keys().isdisjoint(inputs):  # a swap renamed one
            inputs = tuple(sorted(substitutions.get(i, i) for i in inputs))
        skills = model.skill_labels_of(step.process)
        if step.direction is _FORWARD:
            consumed, produced = inputs, outputs
        else:
            consumed, produced = outputs, inputs
            skills = invert(skills)
        if step.consumed != consumed or step.produced != produced:
            raise BiPanError("step-mismatch", f"must consume [{', '.join(consumed)}] "
                             f"and produce [{', '.join(produced)}]")
        if step.required_skills != skills:
            raise BiPanError("step-mismatch", f"must require skills [{', '.join(skills)}]")
    present.difference_update(step.consumed)
    present.update(step.produced)
    if swap:
        substitutions[step.swap_target] = step.swap_replacement


def apply_step(state: ExecState, step: PlanStep, model: BiPanModel) -> ExecState:
    """One transition.

    Raises `missing-input`, `double-produce`, `step-mismatch` or `unknown-process`.
    """
    present, substitutions = set(state.present), dict(state.substitutions)
    _apply(present, substitutions, step, model, _inverted)
    return ExecState(present, substitutions)


def run(plan: Plan, state: ExecState, model: BiPanModel) -> Trace:
    """Apply the plan's steps in order to one working set; fails at the first erroring step.

    The plan must have been extracted from exactly this model version
    (``digest-mismatch`` otherwise). Step errors are re-raised with their index.
    """
    model.ensure_digest(plan.model_digest, "plan was built for")
    present, substitutions = set(state.present), dict(state.substitutions)
    invert = cache(_inverted)
    for i, step in enumerate(plan.steps):
        try:
            _apply(present, substitutions, step, model, invert)
        except BiPanError as exc:
            raise BiPanError(
                exc.code,
                f"step {i} ({step.direction.value} '{step.process}'): {exc.detail}",
                exc.nodes,
            ) from exc
    return Trace(state, plan.steps, ExecState(present, substitutions))
