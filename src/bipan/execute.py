"""Plan interpreter over an inventory state machine.

This is the independent oracle for every planner: a dumb multiset machine that
applies a step's declared consumed/produced effect and knows nothing about how
plans are derived. It checks each step against the model's flows: Forward
consumes the process's inputs (under the substitutions so far), produces its
output and requires the process's skill labels, and Reverse is the converse,
requiring those labels inverted through ``plan.INVERSION``. A Swap's lists are its
replacement and its target, one id each, as ``PlanStep`` builds it; it requires the
swap site's output assembly to be present, a target that is one of the site's inputs
and a replacement that names no model node; its skills are unchecked. It records the
broken-to-replacement substitution. A checked step's effect is its own lists, so a
``Trace`` rebuilds its per-step states from its steps alone, without the model.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property

from bipan import validate  # registered unloaded; runs only when a start state is validated
from bipan.errors import BiPanError
from bipan.model import BiPanModel, FrozenMap, Record, _set
from bipan.plan import INVERSION, Direction, Plan, PlanStep


class ExecState(Record):
    """Free items and topmost assemblies, plus substitutions applied so far.

    ``substitutions`` is a read-only copy of the mapping given.
    """

    __slots__ = ("present", "substitutions")

    def __init__(self, present: frozenset[str],
                 substitutions: Mapping[str, str] = FrozenMap()) -> None:
        _set(self, "present", frozenset(present))
        _set(self, "substitutions", FrozenMap(substitutions))


class Trace(Record):
    """One replay: its start state, the steps it applied, and its end state.

    ``entries``, the state after each step (step ``i``'s at position ``i``), is
    rebuilt on first use by applying each step's own lists: ``run`` has checked them.
    """

    __slots__ = ("initial", "steps", "final", "__dict__")  # a dict for ``entries``

    def __init__(self, initial: ExecState, steps: Iterable[PlanStep], final: ExecState) -> None:
        _set(self, "initial", initial)
        _set(self, "steps", tuple(steps))
        _set(self, "final", final)

    @cached_property
    def entries(self) -> tuple[ExecState, ...]:
        present, substitutions = set(self.initial.present), dict(self.initial.substitutions)
        entries = []
        for step in self.steps:
            _effect(present, substitutions, step)
            entries.append(ExecState(present, substitutions))
        return tuple(entries)

    def __len__(self) -> int:
        return len(self.steps)


def initial_inventory(model: BiPanModel) -> ExecState:
    """All leaf products (no producer) free, nothing substituted."""
    validate.ensure_valid(model)
    return ExecState(model.leaf_products())


def _apply(
    present: set[str], substitutions: dict[str, str], step: PlanStep, model: BiPanModel
) -> None:
    """Check one step against the working set, then apply it in place.

    Raises as :func:`apply_step` does, before changing anything.
    """
    if not model.has_process(step.process):
        raise BiPanError("unknown-process", f"no process '{step.process}' in model '{model.id}'")
    adjacency = model.adjacency  # ``has_process`` held, so each process map has ``step.process``
    if step.direction is Direction.SWAP:
        outputs = adjacency.outputs[step.process]
        if len(outputs) != 1:
            raise BiPanError(
                "missing-input", f"swap site '{step.process}' has no unique output assembly"
            )
        # A swap's target must be absent, even when it equals its replacement.
        needed, reusable = (outputs[0], *step.consumed), set()
    else:
        needed, reusable = step.consumed, set(step.consumed)
    missing = tuple(item for item in needed if item not in present)
    if missing:
        raise BiPanError("missing-input", f"missing inputs: {', '.join(missing)}", missing)
    clashes = tuple(p for p in step.produced if p in present and p not in reusable)
    if clashes:
        raise BiPanError("double-produce", f"already present: {', '.join(clashes)}", clashes)
    if step.direction is Direction.SWAP:
        # The site among the target's consumers: one lookup, where the site may have many inputs.
        if step.process not in adjacency.consumers.get(step.swap_target, ()):
            raise BiPanError("step-mismatch", f"swap target '{step.swap_target}' is not an input "
                             f"of '{step.process}'", step.produced)
        if model.has_node(step.swap_replacement):
            raise BiPanError("step-mismatch", f"replacement '{step.swap_replacement}' already "
                             f"names a node in model '{model.id}'", step.consumed)
    else:
        inputs, outputs = adjacency.inputs[step.process], adjacency.outputs[step.process]
        if substitutions and not substitutions.keys().isdisjoint(inputs):  # a swap renamed one
            inputs = tuple(sorted(substitutions.get(i, i) for i in inputs))
        skills = model.skill_labels_of(step.process)
        if step.direction is Direction.FORWARD:
            expected = (inputs, outputs)
        else:
            expected = (outputs, inputs)
            skills = tuple(sorted({INVERSION.get(label, label) for label in skills}))
        if (step.consumed, step.produced) != expected:
            raise BiPanError("step-mismatch", f"must consume [{', '.join(expected[0])}] "
                             f"and produce [{', '.join(expected[1])}]")
        if step.required_skills != skills:
            raise BiPanError("step-mismatch", f"must require skills [{', '.join(skills)}]")
    _effect(present, substitutions, step)


def _effect(present: set[str], substitutions: dict[str, str], step: PlanStep) -> None:
    """Apply a checked step's own lists, and a swap's substitution, in place."""
    present.difference_update(step.consumed)
    present.update(step.produced)
    if step.direction is Direction.SWAP:
        substitutions[step.swap_target] = step.swap_replacement


def apply_step(state: ExecState, step: PlanStep, model: BiPanModel) -> ExecState:
    """One transition.

    Raises `missing-input`, `double-produce`, `step-mismatch` or `unknown-process`.
    """
    present, substitutions = set(state.present), dict(state.substitutions)
    _apply(present, substitutions, step, model)
    return ExecState(present, substitutions)


def run(plan: Plan, state: ExecState, model: BiPanModel) -> Trace:
    """Apply the plan's steps in order to one working set; fails at the first erroring step.

    The plan must have been extracted from exactly this model version
    (``digest-mismatch`` otherwise). Step errors are re-raised with their index.
    """
    digest = model.digest
    if plan.model_digest != digest:
        raise BiPanError(
            "digest-mismatch",
            f"plan was built for digest {plan.model_digest[:12]}..., "
            f"model '{model.id}' has {digest[:12]}...",
        )
    present, substitutions = set(state.present), dict(state.substitutions)
    for i, step in enumerate(plan.steps):
        try:
            _apply(present, substitutions, step, model)
        except BiPanError as exc:
            raise BiPanError(
                exc.code,
                f"step {i} ({step.direction.value} '{step.process}'): {exc.detail}",
                exc.nodes,
            ) from exc
    return Trace(state, plan.steps, ExecState(present, substitutions))
