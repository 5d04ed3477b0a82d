"""Plan interpreter over an inventory state machine.

This is the independent oracle for every planner: a dumb multiset machine that
applies a step's declared consumed/produced effect and knows nothing about how
plans are derived. Forward and Reverse differ only in what their lists contain;
Swap additionally requires the swap site's output assembly to be present and
records the broken-to-replacement substitution.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from bipan.errors import BiPanError
from bipan.model import BiPanModel, FrozenMap
from bipan.plan import Direction, Plan, PlanStep
from bipan.validate import ensure_valid


@dataclass(frozen=True)
class ExecState:
    """Free items and topmost assemblies, plus substitutions applied so far.

    ``substitutions`` is a read-only copy of the mapping given, left out of the
    hash as ``ProductNode.attributes`` is.
    """

    present: frozenset[str]
    substitutions: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "present", frozenset(self.present))
        object.__setattr__(self, "substitutions", FrozenMap(self.substitutions))

    def to_obj(self) -> dict[str, Any]:
        return {
            "present": sorted(self.present),
            "substitutions": self.substitutions,
        }


@dataclass(frozen=True)
class Trace:
    """One replay: its start state, the steps it applied to ``model``, and its end state.

    ``entries``, the state after each step (step ``i``'s at position ``i``), is
    replayed from these on first use.
    """

    initial: ExecState
    steps: tuple[PlanStep, ...]
    final: ExecState
    model: BiPanModel = field(repr=False, compare=False)

    @cached_property
    def entries(self) -> tuple[ExecState, ...]:
        present, substitutions = set(self.initial.present), dict(self.initial.substitutions)
        entries = []
        for step in self.steps:
            _apply(present, substitutions, step, self.model)
            entries.append(ExecState(present, substitutions))
        return tuple(entries)

    def __len__(self) -> int:
        return len(self.steps)


def initial_inventory(model: BiPanModel) -> ExecState:
    """All leaf products (no producer) free, nothing substituted."""
    ensure_valid(model)
    return ExecState(frozenset(model.leaf_products()), {})


def _apply(
    present: set[str], substitutions: dict[str, str], step: PlanStep, model: BiPanModel
) -> None:
    """Check one step against the working set, then apply it in place.

    Raises as :func:`apply_step` does, before changing anything.
    """
    if not model.has_process(step.process):
        raise BiPanError("unknown-process", f"no process '{step.process}' in model '{model.id}'")
    if step.direction is Direction.SWAP:
        if step.swap_target is None or step.swap_replacement is None:
            raise BiPanError(
                "malformed-step", f"swap step at '{step.process}' lacks target/replacement ids"
            )
        outputs = model.outputs_of(step.process)
        if len(outputs) != 1:
            raise BiPanError(
                "missing-input", f"swap site '{step.process}' has no unique output assembly"
            )
        consumed, produced = (step.swap_replacement,), (step.swap_target,)
        # A swap's target must be absent, even when it equals its replacement.
        needed, reusable = (outputs[0], *consumed), set()
    else:
        consumed, produced = step.consumed, step.produced
        needed, reusable = consumed, set(consumed)
    missing = tuple(item for item in needed if item not in present)
    if missing:
        raise BiPanError("missing-input", f"missing inputs: {', '.join(missing)}", missing)
    clashes = tuple(p for p in produced if p in present and p not in reusable)
    if clashes:
        raise BiPanError("double-produce", f"already present: {', '.join(clashes)}", clashes)
    present.difference_update(consumed)
    present.update(produced)
    if step.direction is Direction.SWAP:
        substitutions[step.swap_target] = step.swap_replacement


def apply_step(state: ExecState, step: PlanStep, model: BiPanModel) -> ExecState:
    """One transition; raises `missing-input`, `double-produce` or `unknown-process`."""
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
    return Trace(state, plan.steps, ExecState(present, substitutions), model)
