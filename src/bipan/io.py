"""Native JSON documents: models, plans, twin instances, inventory states, registries.

Native documents are canonical JSON: sorted keys, two-space indent, UTF-8, LF,
trailing newline. Loading is lenient about ordering and formatting but strict
about structure; saving always re-emits canonical bytes, so save(load(x))
normalizes any equivalent document. The field-spec decoders are in
:mod:`bipan.schema`; the CAEX import and the DOT export are in
:mod:`bipan.exchange`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

from bipan import schema  # registered unloaded; runs only when a decoder needs a spec
from bipan.canon import model_bytes, plan_bytes, state_bytes, twin_bytes
from bipan.errors import BiPanError
from bipan.model import (
    BiPanModel,
    FastensLink,
    FlowRole,
    Plan,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
    check_id,
)

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

    from bipan.execute import ExecState
    from bipan.pdt import PdtInstance

__all__ = [
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


def _parse_json(data: bytes) -> Any:
    try:
        text = data.decode("utf-8")
        obj = json.loads(text)
        if "\\" in text and ("\\ud" in text or "\\uD" in text):
            # A \ud800-\udfff escape without its pair decodes to a string that no
            # UTF-8 output (plan, digest, twin file) can hold. A one-character search
            # is a memchr; the two-character ones scan far slower, so they run only
            # on text that escapes something.
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        return obj
    except UnicodeDecodeError as exc:
        raise BiPanError("parse-error", f"document is not UTF-8: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise BiPanError("parse-error", "document escapes an unpaired UTF-16 surrogate") from exc
    except json.JSONDecodeError as exc:
        raise BiPanError(
            "parse-error", f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise BiPanError("parse-error", str(exc)) from exc
    except RecursionError as exc:
        raise BiPanError("parse-error", "document nests too deeply") from exc

# -- native documents ----------------------------------------------------------------


_KINDS = {kind.value: kind for kind in ProductKind}
_ROLES = {role.value: role for role in FlowRole}


def _rows(doc: dict[str, Any], key: str) -> list[dict[str, Any]]:
    """The array under ``key``; a row that is not an object fails at its first key lookup."""
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise ValueError(key)
    return rows


def _label(row: dict[str, Any]) -> str:
    label = row.get("label", "")
    if not isinstance(label, str):
        raise ValueError("label")
    return label


def _direct_model(doc: Any) -> BiPanModel:
    """The model of a well-formed document, built without per-field paths.

    It accepts only what ``schema.model`` accepts and builds an equal model. Node ids
    are checked by the node constructors, which take only strings; edges go to the
    model as plain rows, and it resolves each endpoint to a node. Any fault raises,
    and :func:`load_model` then decodes the document again with ``schema.model``,
    which names it.
    """
    if not isinstance(doc, dict):
        raise ValueError("document")
    products = []
    for row in _rows(doc, "products"):
        type_ref, position = row.get("type_ref"), row.get("position")
        attributes = row.get("attributes", {})
        if type_ref is not None and not isinstance(type_ref, str):
            raise ValueError("type_ref")
        if position is not None:
            if not isinstance(position, list) or len(position) != 3 or not all(
                type(c) in (int, float) for c in position
            ):
                raise ValueError("position")
        if not isinstance(attributes, dict) or (
            attributes and not all(isinstance(v, str) for v in attributes.values())
        ):
            raise ValueError("attributes")
        kind = _KINDS[row["kind"]]
        products.append(ProductNode(row["id"], _label(row), kind, type_ref, position, attributes))
    fastens = []
    for row in _rows(doc, "fastens"):
        secures = row.get("secures", [])
        if not isinstance(secures, list):
            raise ValueError("secures")
        fastens.append(FastensLink(row["fastener"], secures))
    model_id = doc.get("id", "")
    if not isinstance(model_id, str):
        raise ValueError("id")
    return BiPanModel(
        model_id,
        products,
        [ProcessNode(row["id"], _label(row)) for row in _rows(doc, "processes")],
        [SkillNode(row["id"], _label(row)) for row in _rows(doc, "skills")],
        [(row["product"], row["process"], _ROLES[row["role"]]) for row in _rows(doc, "flows")],
        [(row["process"], row["skill"]) for row in _rows(doc, "skill_edges")],
        fastens,
    )


def _direct_instance(doc: Any) -> PdtInstance:
    """The twin of a well-formed document, built without per-field paths.

    It accepts only what ``schema.instance`` accepts and builds an equal twin. Some
    faults fail where the value is used: a health map or payload that is not an
    object has no items or values, a timestamp that is not a string fails in
    ``parse_timestamp``, and a bad instance id in ``PdtInstance``.
    """
    from bipan.pdt import Event, Health, PdtInstance
    ids = (doc["instance_id"], doc.get("model_id", ""), doc.get("model_digest", ""))
    if not all(isinstance(value, str) for value in ids):
        raise ValueError("id")
    events = []
    for row in _rows(doc, "events"):
        kind, payload = row["kind"], row.get("payload", {})
        if not isinstance(kind, str) or not all(isinstance(v, str) for v in payload.values()):
            raise ValueError("event")
        events.append(Event(row["timestamp"], kind, payload))
    states = {health.value: health for health in Health}
    health = {c: states[h] for c, h in doc.get("health", {}).items()}
    return PdtInstance(*ids, health, events)


def _decode(data: bytes, direct: Callable[[Any], Any], spec: str) -> Any:
    """Parse ``data`` and build it with ``direct``; on any fault, decode it with ``schema.<spec>``.

    ``direct`` accepts only what that field-spec decoder accepts and builds an
    equal value, so it decides only what succeeds: the spec stays the one
    source of every error, code and detail. Only this fallback loads the specs.
    """
    doc = _parse_json(data)
    try:
        return direct(doc)
    except Exception:  # whatever the fault, the spec reports it, or builds the value
        return getattr(schema, spec)(doc, "")


def load_model(data: bytes) -> BiPanModel:
    """Parse and reference-check a model document; structural validation is separate."""
    return _decode(data, _direct_model, "model")


def save_model(model: BiPanModel) -> bytes:
    return model_bytes(model)


def load_plan(data: bytes) -> Plan:
    return schema.plan(_parse_json(data), "")


def save_plan(plan: Plan) -> bytes:
    return plan_bytes(plan)


def load_registry(data: bytes) -> frozenset[str]:
    """The skills a registry document's resources pool: a plan checks against their union."""
    return schema.registry(_parse_json(data), "")


def load_instance(data: bytes) -> PdtInstance:
    return _decode(data, _direct_instance, "instance")


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
    twin file cannot carry the lock: each write replaces it with a new file.
    """
    import fcntl  # only the commands that change twins lock
    with open(instance_path(directory, instance_id).with_suffix(".lock"), "ab") as handle:
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
        raise BiPanError(
            "instance-mismatch", f"{path}: stores instance '{pdt.instance_id}', not '{instance_id}'"
        )
    return pdt


def load_state(data: bytes) -> ExecState:
    return schema.state(_parse_json(data), "")


def save_state(state: ExecState) -> bytes:
    return state_bytes(state)


