"""Field-spec decoders: every native document's structure, and the one source of its errors.

A converter takes ``(value, path)`` and returns the decoded value or raises
``parse-error`` naming ``path``. ``_record`` calls a record type (or any
callable taking the decoded fields as keywords) from a spec of
``field=(converter, default)``: a missing key decodes as its default, and the
fields are decoded in spec order, which fixes the error a document with one
fault reports. Each record checks its own values as it is built, and
``BiPanModel`` alone checks the edge endpoints, once every record is built: a
model document reports what a Python caller building the same records gets. A
plan step's swap keys must agree with its lists, which ``PlanStep`` reads them from.

``bipan.io`` decodes plans, inventory states and registries here, and a model
or twin document here only when its direct decoder refuses it.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from typing import Any

from bipan.errors import BiPanError
from bipan.model import (
    BiPanModel,
    FastensLink,
    FlowEdge,
    FlowRole,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillEdge,
    SkillNode,
)

Converter = Callable[[Any, str], Any]


def _as_dict(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise BiPanError("parse-error", f"{path} must be an object")
    return value


def _as_list(value: Any, path: str) -> list[Any]:
    if not isinstance(value, list):
        raise BiPanError("parse-error", f"{path} must be an array")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise BiPanError("parse-error", f"{path} must be a string")
    return value


def _str_map(value: Any, path: str) -> dict[str, str]:
    mapping = _as_dict(value, path)
    if not all(isinstance(v, str) for v in mapping.values()):
        raise BiPanError("parse-error", f"{path} must map strings to strings")
    return mapping


def _position(value: Any, path: str) -> tuple[Any, ...]:
    """Shape and type only; :class:`ProductNode` converts the components to floats.

    ``true`` decodes to a ``bool``, an ``int`` subclass, so the type test is exact.
    """
    items = _as_list(value, path)
    if len(items) != 3 or not all(type(c) in (int, float) for c in items):
        raise BiPanError("parse-error", f"{path} must be three numbers")
    return tuple(items)


def _optional(convert: Converter) -> Converter:
    return lambda value, path: None if value is None else convert(value, path)


def _enum(enum_cls: Any) -> Converter:
    members = {member.value: member for member in enum_cls}
    allowed = ", ".join(members)

    def decode(value: Any, path: str) -> Any:
        member = members.get(_string(value, path))
        if member is None:
            raise BiPanError("parse-error", f"{path}: {value!r} is not one of {allowed}")
        return member

    return decode


def _list_of(convert: Converter) -> Converter:
    return lambda value, path: tuple(
        [convert(item, f"{path}[{i}]") for i, item in enumerate(_as_list(value, path))]
    )


def _map_of(convert: Converter) -> Converter:
    return lambda value, path: {
        key: convert(item, f"{path}[{key}]") for key, item in _as_dict(value, path).items()
    }


def _record(cls: Any, **spec: tuple[Converter, Any]) -> Converter:
    """Converter for a JSON object whose keys are the fields of ``cls``.

    The path ``""`` is the document root: its fields are named bare (``id``,
    not ``.id``).
    """
    fields = tuple((name, convert, default) for name, (convert, default) in spec.items())

    def decode(value: Any, path: str) -> Any:
        obj = _as_dict(value, path or "document")
        prefix = f"{path}." if path else ""
        kwargs = {}
        for name, convert, default in fields:
            kwargs[name] = convert(obj.get(name, default), prefix + name)
        return cls(**kwargs)

    return decode


def _records(cls: Any, **spec: tuple[Converter, Any]) -> tuple[Converter, Any]:
    """Spec entry for an array of ``cls`` records that may be left out."""
    return (_list_of(_record(cls, **spec)), [])


def _on_first_use(build: Callable[[], Converter]) -> Converter:
    """The converter ``build`` returns, built on its first call: it imports the records' module."""
    build = cache(build)
    return lambda value, path: build()(value, path)


_STR = (_string, None)
_STRINGS = (_list_of(_string), [])
_NODE = {"id": _STR, "label": (_string, "")}

model = _record(
    BiPanModel,
    products=_records(
        ProductNode,
        position=(_optional(_position), None),
        **_NODE,
        kind=(_enum(ProductKind), None),
        type_ref=(_optional(_string), None),
        attributes=(_str_map, {}),
    ),
    processes=_records(ProcessNode, **_NODE),
    skills=_records(SkillNode, **_NODE),
    flows=_records(FlowEdge, product=_STR, process=_STR, role=(_enum(FlowRole), None)),
    skill_edges=_records(SkillEdge, process=_STR, skill=_STR),
    fastens=_records(FastensLink, fastener=_STR, secures=_STRINGS),
    id=(_string, ""),
)


@_on_first_use
def plan() -> Converter:
    from bipan.plan import Direction, Plan, PlanStep
    step_fields = _record(
        dict,
        direction=(_enum(Direction), None),
        **dict.fromkeys(("swap_target", "swap_replacement"), (_optional(_string), None)),
        process=_STR,
        consumed=_STRINGS,
        produced=_STRINGS,
        required_skills=_STRINGS,
    )

    def decode_step(value: Any, path: str) -> PlanStep:
        fields = step_fields(value, path)
        ids = ((fields.pop("swap_replacement"),), (fields.pop("swap_target"),))
        swap = fields["direction"] is Direction.SWAP
        if ids != ((fields["consumed"], fields["produced"]) if swap else ((None,), (None,))):
            raise BiPanError("parse-error", f"{path}: swap_replacement and swap_target must be a "
                             "Swap's one consumed and one produced id, and null on other steps")
        return PlanStep(**fields)

    steps = (_list_of(decode_step), None)
    return _record(Plan, model_id=(_string, ""), model_digest=(_string, ""), steps=steps)


@_on_first_use
def instance() -> Converter:
    from bipan.pdt import Event, Health, PdtInstance
    return _record(
        PdtInstance,
        health=(_map_of(_enum(Health)), {}),
        events=_records(Event, timestamp=_STR, kind=_STR, payload=(_str_map, {})),
        instance_id=_STR,
        model_id=(_string, ""),
        model_digest=(_string, ""),
    )


@_on_first_use
def state() -> Converter:
    from bipan.execute import ExecState
    return _record(ExecState, substitutions=(_str_map, {}), present=(_list_of(_string), None))


def _pooled_skills(resources: tuple[dict[str, Any], ...]) -> frozenset[str]:
    """The union of the resources' skills; a resource id given twice is ``duplicate-id``."""
    ids: set[str] = set()
    for resource in resources:
        if resource["id"] in ids:
            raise BiPanError("duplicate-id", f"duplicate resource id '{resource['id']}'")
        ids.add(resource["id"])
    return frozenset().union(*(resource["skills"] for resource in resources))


registry = _record(
    _pooled_skills, resources=(_list_of(_record(dict, id=_STR, skills=_STRINGS)), None)
)
