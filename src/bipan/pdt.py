"""Per-physical-instance product twin: health map plus append-only event log.

An instance binds a serial number to one model version (by digest) and records
component health at model-node granularity. Instances are immutable values;
mutating operations return an updated copy with an event appended. No operation
reads the clock: timestamps always arrive from the caller, which keeps twins
reproducible.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from datetime import datetime, timezone
from enum import Enum
from typing import TYPE_CHECKING

from bipan.errors import BiPanError
from bipan.model import COMPONENT_KINDS, BiPanModel, FrozenMap, Record, _set, check_id, replace

if TYPE_CHECKING:
    from bipan.plan import Plan


class Health(Enum):
    OK = "Ok"
    DEGRADED = "Degraded"
    BROKEN = "Broken"
    UNKNOWN = "Unknown"


def parse_timestamp(value: str) -> datetime:
    """Strict ISO-8601 UTC timestamp ('...Z' or '...+00:00').

    ``fromisoformat`` gives every zero offset the ``timezone.utc`` singleton,
    so an identity test is the whole UTC check: it rejects naive times and
    every non-zero offset.
    """
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError as exc:
        raise BiPanError("invalid-timestamp", f"not an ISO-8601 timestamp: {value!r}") from exc
    if parsed.tzinfo is not timezone.utc:
        raise BiPanError("invalid-timestamp", f"timestamp must be UTC: {value!r}")
    return parsed


class Event(Record):
    """One log entry; ``when`` is ``timestamp`` parsed once, at construction.

    ``payload`` is a read-only copy of the mapping given.
    """

    __slots__ = ("timestamp", "kind", "payload", "when")

    def __init__(self, timestamp: str, kind: str,
                 payload: Mapping[str, str] = FrozenMap()) -> None:
        _set(self, "when", parse_timestamp(timestamp))
        _set(self, "timestamp", timestamp)
        _set(self, "kind", kind)
        _set(self, "payload", FrozenMap(payload))


class PdtInstance(Record):
    """Digital twin of one physical product, bound to a model version.

    ``health`` is a read-only copy of the mapping given.
    """

    __slots__ = ("instance_id", "model_id", "model_digest", "health", "events")

    def __init__(self, instance_id: str, model_id: str, model_digest: str,
                 health: Mapping[str, Health], events: Iterable[Event] = ()) -> None:
        # The id names the twin's file, so it must not carry a path separator.
        check_id(instance_id)
        health, events = FrozenMap(health), tuple(events)
        for earlier, event in zip(events, events[1:]):
            if event.when < earlier.when:
                raise BiPanError(
                    "time-regression",
                    f"event log timestamps decrease at {event.timestamp!r}",
                )
        _set(self, "instance_id", instance_id)
        _set(self, "model_id", model_id)
        _set(self, "model_digest", model_digest)
        _set(self, "health", health)
        _set(self, "events", events)

    def broken_components(self) -> tuple[str, ...]:
        return tuple(sorted(c for c, h in self.health.items() if h is Health.BROKEN))


def create_instance(instance_id: str, model: BiPanModel) -> PdtInstance:
    """Fresh twin: every replaceable component Unknown, event log empty."""
    from bipan.validate import ensure_valid  # twin reads and appends need no validation
    ensure_valid(model)
    health = {p.id: Health.UNKNOWN for p in model.products if p.kind in COMPONENT_KINDS}
    return PdtInstance(
        instance_id=instance_id,
        model_id=model.id,
        model_digest=model.digest,
        health=health,
        events=(),
    )


def _check_tracked(pdt: PdtInstance, component: str) -> None:
    if component not in pdt.health:
        raise BiPanError(
            "unknown-component",
            f"'{component}' is not a tracked component of instance '{pdt.instance_id}'",
        )


def set_health(pdt: PdtInstance, component: str, health: Health, timestamp: str) -> PdtInstance:
    """Record a component health observation; always appends to the audit log."""
    _check_tracked(pdt, component)
    event = Event(timestamp, "health-update", {"component": component, "health": health.value})
    return replace(pdt, health={**pdt.health, component: health}, events=(*pdt.events, event))


def plan_repair_for(
    pdt: PdtInstance,
    model: BiPanModel,
    replacements: dict[str, str],
    timestamp: str,
) -> tuple[PdtInstance, Plan]:
    """Repair plan for all currently Broken components; logs a plan-created event.

    Returns the updated instance together with the plan (instances are values,
    so the event-carrying copy must be handed back to the caller). A replacement
    for an id the twin does not track is ``unknown-component``.
    """
    from bipan.plan import repair_plan  # only this twin operation plans
    digest = model.digest
    if digest != pdt.model_digest:
        raise BiPanError(
            "digest-mismatch",
            f"instance '{pdt.instance_id}' is bound to digest {pdt.model_digest[:12]}..., "
            f"model '{model.id}' has {digest[:12]}...",
        )
    for component in replacements:
        _check_tracked(pdt, component)
    broken = pdt.broken_components()
    if not broken:
        raise BiPanError("nothing-broken", f"instance '{pdt.instance_id}' has no Broken component")
    plan = repair_plan(model, broken, replacements)
    payload = {
        "broken": ",".join(broken),
        "replacements": ",".join(f"{b}={replacements[b]}" for b in broken),
        "steps": str(len(plan.steps)),
    }
    event = Event(timestamp, "plan-created", payload)
    return replace(pdt, events=(*pdt.events, event)), plan
