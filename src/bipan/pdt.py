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

from bipan.errors import BiPanError
from bipan.model import COMPONENT_KINDS, BiPanModel, FrozenMap, Plan, Record, check_id, replace


_fromisoformat, _UTC = datetime.fromisoformat, timezone.utc  # read once, not per event


class Health(Enum):
    OK = "Ok"
    DEGRADED = "Degraded"
    BROKEN = "Broken"
    UNKNOWN = "Unknown"


def parse_timestamp(value: str) -> datetime:
    """Strict ISO-8601 UTC timestamp ('...Z' or '...+00:00'); any other string is
    ``invalid-timestamp``, and a value that is not a string ``parse-error``.

    ``fromisoformat`` gives every zero offset the ``timezone.utc`` singleton,
    so an identity test is the whole UTC check: it rejects naive times and
    every non-zero offset.
    """
    try:
        parsed = _fromisoformat(value[:-1] + "+00:00" if value[-1:] == "Z" else value)
    except (TypeError, ValueError) as exc:
        raise BiPanError("invalid-timestamp" if isinstance(value, str) else "parse-error",
                         f"not an ISO-8601 timestamp: {value!r}") from exc
    if parsed.tzinfo is not _UTC:
        raise BiPanError("invalid-timestamp", f"timestamp must be UTC: {value!r}")
    return parsed


def _not_a_health(component: str, state: object) -> BiPanError:
    return BiPanError("parse-error", f"component '{component}': health {state!r} is not a Health")


class Event(Record):
    """One log entry; ``when`` is ``timestamp`` parsed once, at construction.

    ``payload`` is a read-only copy of the mapping given.
    """

    __slots__ = ("timestamp", "kind", "payload", "when")

    def __init__(self, timestamp: str, kind: str,
                 payload: Mapping[str, str] = FrozenMap()) -> None:
        set_timestamp, set_kind, set_payload, set_when = self._stores
        set_when(self, parse_timestamp(timestamp))
        if not isinstance(kind, str):
            raise BiPanError("parse-error", f"event kind {kind!r} is not a string")
        set_timestamp(self, timestamp)
        set_kind(self, kind)
        set_payload(self, FrozenMap(payload))


class PdtInstance(Record):
    """Digital twin of one physical product, bound to a model version.

    ``health`` is a read-only copy of the mapping given.
    """

    __slots__ = ("instance_id", "model_id", "model_digest", "health", "events")

    def __init__(self, instance_id: str, model_id: str, model_digest: str,
                 health: Mapping[str, Health], events: Iterable[Event] = ()) -> None:
        # The id names the twin's file, so it must not carry a path separator.
        check_id(instance_id)
        for name, value in (("model_id", model_id), ("model_digest", model_digest)):
            if not isinstance(value, str):
                raise BiPanError("parse-error", f"{name} must be a string")
        health, events = FrozenMap(health), tuple(events)
        if not {str}.issuperset(map(type, health)):  # ``check_id`` names the offender
            for component in health:
                if not isinstance(component, str):
                    check_id(component)
        if not {Health}.issuperset(map(type, health.values())):
            component = next(c for c, state in health.items() if type(state) is not Health)
            raise _not_a_health(component, health[component])
        for earlier, event in zip(events, events[1:]):
            if event.when < earlier.when:
                raise BiPanError("time-regression",
                                 f"event log timestamps decrease at {event.timestamp!r}")
        set_instance_id, set_model_id, set_model_digest, set_health, set_events = self._stores
        set_instance_id(self, instance_id)
        set_model_id(self, model_id)
        set_model_digest(self, model_digest)
        set_health(self, health)
        set_events(self, events)

    def broken_components(self) -> tuple[str, ...]:
        return tuple(sorted(c for c, h in self.health.items() if h is Health.BROKEN))


def create_instance(instance_id: str, model: BiPanModel) -> PdtInstance:
    """Fresh twin: every replaceable component Unknown, event log empty."""
    model.ensure_valid()
    health = {p.id: Health.UNKNOWN for p in model.products if p.kind in COMPONENT_KINDS}
    return PdtInstance(instance_id, model.id, model.digest, health)


def _check_tracked(pdt: PdtInstance, component: str) -> None:
    if component not in pdt.health:
        raise BiPanError("unknown-component", f"'{component}' is not a tracked component of "
                         f"instance '{pdt.instance_id}'")


def set_health(pdt: PdtInstance, component: str, health: Health, timestamp: str) -> PdtInstance:
    """Record a component health observation; always appends to the audit log."""
    _check_tracked(pdt, component)
    if type(health) is not Health:
        raise _not_a_health(component, health)
    event = Event(timestamp, "health-update", {"component": component, "health": health.value})
    return replace(pdt, health={**pdt.health, component: health}, events=(*pdt.events, event))


def plan_repair_for(pdt: PdtInstance, model: BiPanModel, replacements: dict[str, str],
                    timestamp: str) -> tuple[PdtInstance, Plan]:
    """Repair plan for all currently Broken components; logs a plan-created event.

    Returns the updated instance together with the plan (instances are values,
    so the event-carrying copy must be handed back to the caller). A replacement
    for an id the twin does not track is ``unknown-component``.
    """
    from bipan.plan import repair_plan  # only this twin operation plans
    model.ensure_digest(pdt.model_digest, f"instance '{pdt.instance_id}' is bound to")
    for component in replacements:
        _check_tracked(pdt, component)
    broken = pdt.broken_components()
    if not broken:
        raise BiPanError("nothing-broken", f"instance '{pdt.instance_id}' has no Broken component")
    plan = repair_plan(model, broken, replacements)
    payload = {"broken": ",".join(broken),
               "replacements": ",".join(f"{b}={replacements[b]}" for b in broken),
               "steps": str(len(plan.steps))}
    event = Event(timestamp, "plan-created", payload)
    return replace(pdt, events=(*pdt.events, event)), plan
