"""Plan interpreter over an inventory state machine.

This is the independent oracle for every planner: a dumb multiset machine that
applies a step's declared consumed/produced effect and knows nothing about how
plans are derived. Forward and Reverse differ only in what their lists contain;
Swap additionally requires the swap site's output assembly to be present and
records the broken-to-replacement substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from bipan.errors import BiPanError
from bipan.model import BiPanModel
from bipan.plan import Direction, Plan, PlanStep
from bipan.validate import ensure_valid


@dataclass(frozen=True)
class ExecState:
    """Free items and topmost assemblies, plus substitutions applied so far."""

    present: frozenset[str]
    substitutions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "present", frozenset(self.present))
        object.__setattr__(self, "substitutions", dict(self.substitutions))

    def to_obj(self) -> dict[str, Any]:
        return {
            "present": sorted(self.present),
            "substitutions": dict(sorted(self.substitutions.items())),
        }


@dataclass(frozen=True)
class TraceEntry:
    index: int
    state: ExecState


@dataclass(frozen=True)
class Trace:
    """Per-step state snapshots of one replay; length equals applied steps."""

    initial: ExecState
    entries: tuple[TraceEntry, ...]

    @property
    def final(self) -> ExecState:
        return self.entries[-1].state if self.entries else self.initial

    def __len__(self) -> int:
        return len(self.entries)


def initial_inventory(model: BiPanModel) -> ExecState:
    """All leaf products (no producer) free, nothing substituted."""
    ensure_valid(model)
    return ExecState(frozenset(model.leaf_products()), {})


def _apply_exchange(state: ExecState, step: PlanStep) -> ExecState:
    missing = tuple(c for c in step.consumed if c not in state.present)
    if missing:
        raise BiPanError(
            "missing-input", f"missing inputs: {', '.join(missing)}", missing
        )
    remaining = set(state.present) - set(step.consumed)
    clashes = tuple(p for p in step.produced if p in remaining)
    if clashes:
        raise BiPanError(
            "double-produce", f"already present: {', '.join(clashes)}", clashes
        )
    remaining.update(step.produced)
    return ExecState(frozenset(remaining), state.substitutions)


def _apply_swap(state: ExecState, step: PlanStep, model: BiPanModel) -> ExecState:
    if step.swap_target is None or step.swap_replacement is None:
        raise BiPanError(
            "malformed-step", f"swap step at '{step.process}' lacks target/replacement ids"
        )
    outputs = model.outputs_of(step.process)
    if len(outputs) != 1:
        raise BiPanError(
            "missing-input",
            f"swap site '{step.process}' has no unique output assembly",
        )
    site_output = outputs[0]
    missing = tuple(
        item for item in (site_output, step.swap_replacement) if item not in state.present
    )
    if missing:
        raise BiPanError("missing-input", f"missing inputs: {', '.join(missing)}", missing)
    if step.swap_target in state.present:
        raise BiPanError(
            "double-produce", f"already present: {step.swap_target}", (step.swap_target,)
        )
    remaining = set(state.present)
    remaining.discard(step.swap_replacement)
    remaining.add(step.swap_target)
    substitutions = dict(state.substitutions)
    substitutions[step.swap_target] = step.swap_replacement
    return ExecState(frozenset(remaining), substitutions)


def apply_step(state: ExecState, step: PlanStep, model: BiPanModel) -> ExecState:
    """One transition; raises `missing-input`, `double-produce` or `unknown-process`."""
    if not model.has_process(step.process):
        raise BiPanError("unknown-process", f"no process '{step.process}' in model '{model.id}'")
    if step.direction is Direction.SWAP:
        return _apply_swap(state, step, model)
    return _apply_exchange(state, step)


def run(plan: Plan, state: ExecState, model: BiPanModel) -> Trace:
    """Fold ``apply_step`` over the plan; fails at the first erroring step.

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
    entries: list[TraceEntry] = []
    current = state
    for i, step in enumerate(plan.steps):
        try:
            current = apply_step(current, step, model)
        except BiPanError as exc:
            raise BiPanError(
                exc.code,
                f"step {i} ({step.direction.value} '{step.process}'): {exc.detail}",
                exc.nodes,
            ) from exc
        entries.append(TraceEntry(i, current))
    return Trace(state, tuple(entries))
