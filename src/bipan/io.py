"""Native JSON documents: models, plans, twin instances, inventory states, registries.

Native documents are canonical JSON: sorted keys, two-space indent, UTF-8, LF,
trailing newline. Loading is lenient about ordering and formatting but strict
about structure: each document kind has one decoder here, which checks every
field in one pass, names the first fault it meets, and refuses a key that
:data:`KEYS` does not list. Saving always re-emits canonical bytes, so
save(load(x)) normalizes any equivalent document. The CAEX import and the DOT
export are in :mod:`bipan.exchange`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

from bipan.canon import canonical_bytes, model_bytes, plan_bytes, twin_bytes
from bipan.errors import BiPanError
from bipan.model import (
    BiPanModel,
    Direction,
    FastensLink,
    FlowRole,
    Plan,
    PlanStep,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
    check_id,
)

if TYPE_CHECKING:
    from collections.abc import Iterator

    from bipan.execute import ExecState
    from bipan.pdt import PdtInstance

__all__ = [
    "KEYS",
    "instance_lock",
    "instance_path",
    "load_instance",
    "load_model",
    "load_plan",
    "load_registry",
    "load_state",
    "read_file",
    "read_instance_file",
    "renamed",
    "save_instance",
    "save_model",
    "save_plan",
    "save_state",
    "write_instance_file",
]


def read_file(path: str | Path) -> bytes:
    """The bytes of ``path``; a failed read is ``unreadable``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise BiPanError("unreadable", f"{path}: {exc}") from exc


def _parse_json(data: bytes) -> dict[str, Any]:
    """The object a document holds; every native document is one."""
    try:
        text = data.decode("utf-8")
        obj = json.loads(text)
        if "\\" in text and ("\\ud" in text or "\\uD" in text):
            # A \ud800-\udfff escape without its pair decodes to a string that no
            # UTF-8 output (plan, digest, twin file) can hold. A one-character search
            # is a memchr; the two-character ones scan far slower, so they run only
            # on text that escapes something.
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeDecodeError as exc:
        raise BiPanError("parse-error", f"document is not UTF-8: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise BiPanError("parse-error", "document escapes an unpaired UTF-16 surrogate") from exc
    except json.JSONDecodeError as exc:
        raise BiPanError("parse-error",
                         f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise BiPanError("parse-error", str(exc)) from exc
    except RecursionError as exc:
        raise BiPanError("parse-error", "document nests too deeply") from exc
    if type(obj) is not dict:
        raise _fault("document", "must be an object")
    return obj

# -- native documents ----------------------------------------------------------------
#
# A decoder checks an array and each of its rows to be objects, then a row's fields in
# one fixed order, its keys and its record. Records check their own values, so a document
# reports what a Python caller building the same records and rows gets.

#: The keys each object of a native document may hold: each kind's root and each kind
#: of row in its arrays. The ``canon`` writers write exactly these.
KEYS: dict[str, frozenset[str]] = {
    "model": frozenset({"id", "products", "processes", "skills", "flows", "skill_edges",
                        "fastens"}),
    "product": frozenset({"id", "label", "kind", "type_ref", "position", "attributes"}),
    "process": frozenset({"id", "label"}),
    "skill": frozenset({"id", "label"}),
    "flow": frozenset({"product", "process", "role"}),
    "skill_edge": frozenset({"process", "skill"}),
    "fastens": frozenset({"fastener", "secures"}),
    "plan": frozenset({"model_id", "model_digest", "steps"}),
    "step": frozenset({"process", "direction", "consumed", "produced", "required_skills",
                       "swap_target", "swap_replacement"}),
    "twin": frozenset({"instance_id", "model_id", "model_digest", "health", "events"}),
    "event": frozenset({"timestamp", "kind", "payload"}),
    "state": frozenset({"present", "substitutions"}),
    "registry": frozenset({"resources"}),
    "resource": frozenset({"id", "skills"}),
}

_KINDS = {kind.value: kind for kind in ProductKind}
_ROLES = {role.value: role for role in FlowRole}
_DIRECTIONS = {direction.value: direction for direction in Direction}
_DICT, _STR = frozenset({dict}), frozenset({str})
_NO_ROWS: list[Any] = []  # an array left out; never changed
_NO_MAP: dict[str, Any] = {}  # an object left out; never changed


def _fault(path: str, what: str) -> BiPanError:
    return BiPanError("parse-error", f"{path} {what}")


def _fault_of(obj: dict[str, Any], level: str, where: str,
              **fields: tuple[Any, Any]) -> BiPanError | None:
    """The fault of ``obj``, a ``level`` object at ``where``: the first of ``fields``, in the
    order given, whose value is not of its form, else its least key outside ``KEYS[level]``
    (``_NO_MAP`` has none). A form is ``str``; ``None``, a string or null; ``list``, an array
    of strings; ``dict``, an object of strings; or an enum's members by value. Rows come by
    the thousand, so each is tested inline first; a registry's few rows call this alone.
    """
    for name, (value, form) in fields.items():
        path = f"{where}.{name}" if where else name
        if form is list or form is dict:
            if type(value) is not form:
                return _fault(path, "must be an array" if form is list else "must be an object")
            bad = [i for i, item in enumerate(value if form is list else value.values())
                   if type(item) is not str]
            if bad:
                return _fault(f"{path}[{bad[0]}]" if form is list else path,
                              "must be a string" if form is list else "must map strings to strings")
        elif type(value) is not str and (form is not None or value is not None):
            return _fault(path, "must be a string")
        elif type(form) is dict and value not in form:
            return BiPanError("parse-error", f"{path}: {value!r} is not one of {', '.join(form)}")
    unknown = obj.keys() - KEYS[level]
    return _fault(f"{where or 'document'}:", f"unknown key {min(unknown)!r}") if unknown else None


def _rows(doc: dict[str, Any], key: str, default: Any = _NO_ROWS) -> list[dict[str, Any]]:
    """The array under ``key``, or ``default`` if it is left out, once each row is an object."""
    rows = doc.get(key, default)
    if type(rows) is not list:
        raise _fault(key, "must be an array")
    if not _DICT.issuperset(map(type, rows)):
        raise _fault(f"{key}[{next(i for i, row in enumerate(rows) if type(row) is not dict)}]",
                     "must be an object")
    return rows


def _model_from(doc: dict[str, Any]) -> BiPanModel:
    """The model of a parsed document. Edge rows go to it as plain rows, their ids checked
    to be strings, and it resolves each endpoint to a node."""
    products, keys = [], KEYS["product"]
    for i, row in enumerate(_rows(doc, "products")):
        node_id, label, kind = row.get("id"), row.get("label", ""), row.get("kind")
        type_ref, attributes = row.get("type_ref"), row.get("attributes", _NO_MAP)
        member = _KINDS.get(kind) if type(kind) is str else None
        if (type(node_id) is not str or type(label) is not str or member is None
                or type_ref is not None and type(type_ref) is not str
                or attributes is not _NO_MAP and type(attributes) is not dict
                or attributes and not _STR.issuperset(map(type, attributes.values()))
                or not keys.issuperset(row)):
            raise _fault_of(row, "product", f"products[{i}]", id=(node_id, str),
                            label=(label, str), kind=(kind, _KINDS), type_ref=(type_ref, None),
                            attributes=(attributes, dict))
        products.append(ProductNode(node_id, label, member, type_ref, row.get("position"),
                                    attributes))
    nodes: dict[str, list[Any]] = {}
    for key, level, node in (("processes", "process", ProcessNode), ("skills", "skill", SkillNode)):
        nodes[key], keys = [], KEYS[level]
        for i, row in enumerate(_rows(doc, key)):
            node_id, label = row.get("id"), row.get("label", "")
            if type(node_id) is not str or type(label) is not str or not keys.issuperset(row):
                raise _fault_of(row, level, f"{key}[{i}]", id=(node_id, str), label=(label, str))
            nodes[key].append(node(node_id, label))
    flows = []
    for i, row in enumerate(_rows(doc, "flows")):
        product, process, role = row.get("product"), row.get("process"), row.get("role")
        member = _ROLES.get(role) if type(role) is str else None
        # Once all three are strings, all three keys are there.
        if type(product) is not str or type(process) is not str or member is None or len(row) != 3:
            raise _fault_of(row, "flow", f"flows[{i}]", product=(product, str),
                            process=(process, str), role=(role, _ROLES))
        flows.append((product, process, member))
    skill_edges = []
    for i, row in enumerate(_rows(doc, "skill_edges")):
        process, skill = row.get("process"), row.get("skill")
        if type(process) is not str or type(skill) is not str or len(row) != 2:
            raise _fault_of(row, "skill_edge", f"skill_edges[{i}]", process=(process, str),
                            skill=(skill, str))
        skill_edges.append((process, skill))
    fastens, keys = [], KEYS["fastens"]
    for i, row in enumerate(_rows(doc, "fastens")):
        fastener, secures = row.get("fastener"), row.get("secures", _NO_ROWS)
        if (type(fastener) is not str or type(secures) is not list
                or not _STR.issuperset(map(type, secures)) or not keys.issuperset(row)):
            raise _fault_of(row, "fastens", f"fastens[{i}]", fastener=(fastener, str),
                            secures=(secures, list))
        fastens.append(FastensLink(fastener, secures))
    model_id = doc.get("id", "")
    if fault := _fault_of(doc, "model", "", id=(model_id, str)):
        raise fault
    return BiPanModel(model_id, products, nodes["processes"], nodes["skills"], flows, skill_edges,
                      fastens)


def load_model(data: bytes) -> BiPanModel:
    """Parse and reference-check a model document; structural validation is separate."""
    return _model_from(_parse_json(data))


def save_model(model: BiPanModel) -> bytes:
    return model_bytes(model)


def load_plan(data: bytes) -> Plan:
    """The plan a document holds. A step's swap keys must agree with its lists, which
    ``PlanStep`` reads them from."""
    doc = _parse_json(data)
    model_id, digest = doc.get("model_id", ""), doc.get("model_digest", "")
    if fault := _fault_of(_NO_MAP, "plan", "", model_id=(model_id, str),
                          model_digest=(digest, str)):
        raise fault
    steps, keys, swap = [], KEYS["step"], Direction.SWAP  # a member read from its class is a call
    for i, row in enumerate(_rows(doc, "steps", None)):
        direction, process = row.get("direction"), row.get("process")
        target, replacement = row.get("swap_target"), row.get("swap_replacement")
        consumed, produced = row.get("consumed", _NO_ROWS), row.get("produced", _NO_ROWS)
        skills = row.get("required_skills", _NO_ROWS)
        member = _DIRECTIONS.get(direction) if type(direction) is str else None
        if (member is None or type(process) is not str
                or target is not None and type(target) is not str
                or replacement is not None and type(replacement) is not str
                or type(consumed) is not list or type(produced) is not list
                or type(skills) is not list
                or not _STR.issuperset(map(type, [*consumed, *produced, *skills]))):
            raise _fault_of(row, "step", f"steps[{i}]", direction=(direction, _DIRECTIONS),
                            swap_target=(target, None), swap_replacement=(replacement, None),
                            process=(process, str), consumed=(consumed, list),
                            produced=(produced, list), required_skills=(skills, list))
        if ((consumed != [replacement] or produced != [target]) if member is swap
                else target is not None or replacement is not None):
            raise _fault(f"steps[{i}]:", "swap_replacement and swap_target must be a Swap's one "
                         "consumed and one produced id, and null on other steps")
        if not keys.issuperset(row):
            raise _fault_of(row, "step", f"steps[{i}]")
        steps.append(PlanStep(process, member, consumed, produced, skills))
    if fault := _fault_of(doc, "plan", ""):
        raise fault
    return Plan(model_id, digest, steps)


def save_plan(plan: Plan) -> bytes:
    return plan_bytes(plan)


def load_registry(data: bytes) -> frozenset[str]:
    """The skills a registry's resources pool; a resource id given twice is ``duplicate-id``."""
    doc = _parse_json(data)
    ids, skills = [], set()
    for i, row in enumerate(_rows(doc, "resources", None)):
        resource, pooled = row.get("id"), row.get("skills", _NO_ROWS)
        if fault := _fault_of(row, "resource", f"resources[{i}]", id=(resource, str),
                              skills=(pooled, list)):
            raise fault
        ids.append(resource)
        skills.update(pooled)
    if fault := _fault_of(doc, "registry", ""):
        raise fault
    seen: set[str] = set()
    for resource in ids:
        if resource in seen:
            raise BiPanError("duplicate-id", f"duplicate resource id '{resource}'")
        seen.add(resource)
    return frozenset(skills)


def load_instance(data: bytes) -> PdtInstance:
    """The twin a document holds; each event parses its timestamp as it is built."""
    from bipan.pdt import Event, Health, PdtInstance  # only the twin commands run ``pdt``
    doc = _parse_json(data)
    states, health = {state.value: state for state in Health}, doc.get("health", _NO_MAP)
    if type(health) is not dict:
        raise _fault("health", "must be an object")
    for component, state in health.items():
        if type(state) is not str or state not in states:
            raise _fault_of(_NO_MAP, "twin", "", **{f"health[{component}]": (state, states)})
    events = []
    for row in _rows(doc, "events"):
        timestamp, kind = row.get("timestamp"), row.get("kind")
        payload = row.get("payload", _NO_MAP)
        # Once all three have their types, the row's length tells whether it has another key.
        if (type(timestamp) is not str or type(kind) is not str or type(payload) is not dict
                or not _STR.issuperset(map(type, payload.values()))
                or len(row) != 3 - (payload is _NO_MAP)):
            raise _fault_of(row, "event", f"events[{len(events)}]", timestamp=(timestamp, str),
                            kind=(kind, str), payload=(payload, dict))
        events.append(Event(timestamp, kind, payload))
    instance_id, model_id = doc.get("instance_id"), doc.get("model_id", "")
    digest = doc.get("model_digest", "")
    if fault := _fault_of(doc, "twin", "", instance_id=(instance_id, str),
                          model_id=(model_id, str), model_digest=(digest, str)):
        raise fault
    return PdtInstance(instance_id, model_id, digest,
                       {component: states[state] for component, state in health.items()}, events)


def save_instance(pdt: PdtInstance) -> bytes:
    return twin_bytes(pdt)


def instance_path(directory: str | Path, instance_id: str) -> Path:
    """``<instance_id>.pdt.json`` in ``directory``; the id is checked, so it cannot leave it."""
    return Path(directory) / f"{check_id(instance_id)}.pdt.json"


@contextmanager
def instance_lock(directory: str | Path, instance_id: str) -> Iterator[None]:
    """Hold an exclusive lock on ``<instance_id>.pdt.lock`` in ``directory``; POSIX only.

    A caller that reads a twin, changes it and writes it back holds the lock
    throughout, so a concurrent writer waits and then reads the new twin. The
    twin file cannot carry the lock: each write replaces it with a new file. A lock
    file that is a symbolic link is refused, so nothing outside ``directory`` is made.
    """
    import fcntl  # only the commands that change twins lock
    path = instance_path(directory, instance_id).with_suffix(".lock")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW, 0o666), "wb") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


@contextmanager
def renamed(target: str, data: bytes, mode: int | None = None) -> Iterator[None]:
    """Write ``data`` to a temp file beside ``target``; rename it onto ``target`` once the block succeeds.

    Both the file and, after the rename, the directory are synced, so a crash leaves
    the old bytes or the new; a failure leaves ``target`` untouched and no temp file.
    The file gets ``mode``, or 0o600 if it is None. POSIX only.
    """
    import tempfile  # only the commands that write files need it
    directory = os.path.dirname(target) or "."
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".bipan-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        yield
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_instance_file(pdt: PdtInstance, directory: str | Path) -> Path:
    """Atomic, durable write of ``<instance_id>.pdt.json``, through :func:`renamed`."""
    target = instance_path(directory, pdt.instance_id)
    with renamed(str(target), save_instance(pdt)):
        pass
    return target


def read_instance_file(directory: str | Path, instance_id: str) -> PdtInstance:
    """Load ``<instance_id>.pdt.json``; the id stored inside must be ``instance_id``.

    A twin is written back under its stored id, so a file storing another id
    would overwrite a different twin.
    """
    path = instance_path(directory, instance_id)
    pdt = load_instance(read_file(path))
    if pdt.instance_id != instance_id:
        raise BiPanError("instance-mismatch",
                         f"{path}: stores instance '{pdt.instance_id}', not '{instance_id}'")
    return pdt


def load_state(data: bytes) -> ExecState:
    from bipan.execute import ExecState  # only ``exec`` reads a state
    doc = _parse_json(data)
    substitutions, present = doc.get("substitutions", _NO_MAP), doc.get("present")
    if fault := _fault_of(doc, "state", "", substitutions=(substitutions, dict),
                          present=(present, list)):
        raise fault
    return ExecState(frozenset(present), substitutions)


def save_state(state: ExecState) -> bytes:
    return canonical_bytes(state.to_obj())
