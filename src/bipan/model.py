"""Core bidirectional product-process-resource graph and its read-only neighbour maps.

A model is an immutable value holding three node families (products, processes,
resource skills), flow edges tying products to processes, skill edges tying
processes to the skills they require, and optional fastens links that record
which fastener secures which sibling components. Flow edges carry no direction
of their own: assembly and disassembly are directions of *extracted plans*, not
of the stored graph.

Construction enforces referential integrity (unique ids, resolvable edge
endpoints) and builds ``adjacency``, the one place every module reads a node's
neighbours from; the structural rules beyond that (V-codes) live in
:mod:`bipan.validate`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, NoReturn, TypeVar

from bipan.errors import BiPanError

if TYPE_CHECKING:
    from bipan.validate import Diagnostics

_ID_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


def check_id(value: object) -> str:
    """Return ``value`` if it is a well-formed node id, else raise ``invalid-id``.

    A well-formed id is a non-empty string over ``[A-Za-z0-9_.-]``. A set test
    states that as directly as a regex, and runs in about half the time.
    """
    if not isinstance(value, str) or not value or not _ID_CHARS.issuperset(value):
        raise BiPanError(
            "invalid-id",
            f"node id {value!r} must be a non-empty string matching [A-Za-z0-9_.-]+",
        )
    return value


class FrozenMap(dict):
    """A dict whose mutating methods raise ``TypeError``: the read-only mapping records hold.

    Only an explicit ``dict.__setitem__`` gets past it, as ``object.__setattr__``
    gets past a frozen record. Like any dict it is unhashable.
    """

    __slots__ = ()

    def _read_only(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # the default would unpickle item by item, through __setitem__
        return (type(self), (dict(self),))


_set = object.__setattr__


def _frozen(message: str) -> NoReturn:
    from dataclasses import FrozenInstanceError  # only here: ``dataclasses`` imports ``inspect``

    raise FrozenInstanceError(message)


class Record:
    """Base of the immutable value records: slotted, and compared, hashed and shown by field.

    A record's fields are its ``__init__`` parameters, in order; ``__init__``
    checks them and writes each slot through ``_set``. Equality is by type and
    every field but the ``uncompared`` ones the class names; the hash also
    leaves out the ``unhashed`` ones. ``repr`` shows the compared fields.
    Pickling and copying call ``__init__`` again, so its checks rerun. Assigning
    or deleting an attribute raises ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _compared: tuple[str, ...]

    def __init_subclass__(cls, unhashed: tuple[str, ...] = (), uncompared: tuple[str, ...] = ()):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._compared = tuple(name for name in cls._fields if name not in uncompared)
        cls._key = attrgetter(*cls._compared)
        cls._hash_key = attrgetter(*(name for name in cls._compared if name not in unhashed))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._hash_key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> NoReturn:
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        _frozen(f"cannot delete field {name!r}")


_R = TypeVar("_R", bound=Record)


def replace(record: _R, /, **changes: object) -> _R:
    """A copy of ``record`` with ``changes`` to its fields, built, and so checked, anew."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


class ProductKind(Enum):
    """Role a product plays in the assembly/disassembly flow."""

    ELEMENTARY = "Elementary"
    SUB_PRODUCT = "SubProduct"
    FASTENER = "Fastener"
    FINAL = "Final"
    STAGE = "Stage"


#: Kinds that may carry a health state and be replaced during repair.
COMPONENT_KINDS = (ProductKind.ELEMENTARY, ProductKind.SUB_PRODUCT, ProductKind.FASTENER)


class FlowRole(Enum):
    INPUT = "Input"
    OUTPUT = "Output"


class ProductNode(Record, unhashed=("attributes",)):
    """A concrete product instance (not a part type; shared types go in ``type_ref``).

    ``attributes`` is a read-only copy of the mapping given, so a model's cached
    digest and diagnostics cannot go stale. The hash leaves ``attributes`` out;
    equality still compares it.
    """

    __slots__ = ("id", "label", "kind", "type_ref", "position", "attributes")

    def __init__(self, id: str, label: str, kind: ProductKind, type_ref: str | None = None,
                 position: tuple[float, float, float] | None = None,
                 attributes: Mapping[str, str] = FrozenMap()) -> None:
        check_id(id)
        if type(kind) is not ProductKind:
            raise BiPanError("invalid-kind", f"product '{id}': kind {kind!r} is not a ProductKind")
        if position is not None:
            try:
                position = tuple(float(c) for c in position)
            except OverflowError as exc:
                raise BiPanError(
                    "invalid-position", f"product '{id}': position component is too large"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise BiPanError(
                    "invalid-position", f"product '{id}': position components must be numbers"
                ) from exc
            if len(position) != 3:
                raise BiPanError(
                    "invalid-position",
                    f"product '{id}': position must have exactly three components",
                )
        _set(self, "id", id)
        _set(self, "label", label)
        _set(self, "kind", kind)
        _set(self, "type_ref", type_ref)
        _set(self, "position", position)
        _set(self, "attributes", FrozenMap(attributes))

    def has_finite_position(self) -> bool:
        return self.position is None or all(math.isfinite(c) for c in self.position)


class ProcessNode(Record):
    __slots__ = ("id", "label")

    def __init__(self, id: str, label: str) -> None:
        _set(self, "id", check_id(id))
        _set(self, "label", label)


class SkillNode(Record):
    """An abstract resource capability, e.g. "manipulation" or "screwing"."""

    __slots__ = ("id", "label")

    def __init__(self, id: str, label: str) -> None:
        _set(self, "id", check_id(id))
        _set(self, "label", label)


class FlowEdge(Record):
    """Ties a product to a process, as consumed input or produced output."""

    __slots__ = ("product", "process", "role")

    def __init__(self, product: str, process: str, role: FlowRole) -> None:
        if type(role) is not FlowRole:
            raise BiPanError("invalid-role", f"flow {product!r}-{process!r}: role {role!r} "
                             "is not a FlowRole")
        _set(self, "product", product)
        _set(self, "process", process)
        _set(self, "role", role)


class SkillEdge(Record):
    __slots__ = ("process", "skill")

    def __init__(self, process: str, skill: str) -> None:
        _set(self, "process", process)
        _set(self, "skill", skill)


class FastensLink(Record):
    """Optional refinement: a fastener product and the sibling inputs it secures."""

    __slots__ = ("fastener", "secures")

    def __init__(self, fastener: str, secures: frozenset[str]) -> None:
        try:
            secures = frozenset(secures)
        except TypeError:  # an unhashable id, which ``check_id`` names
            for node_id in secures:
                check_id(node_id)
            raise
        _set(self, "fastener", fastener)
        _set(self, "secures", secures)


class Adjacency(NamedTuple):
    """Read-only neighbour ids, ascending: by process (inputs, outputs, skill ids) or by product."""

    inputs: Mapping[str, tuple[str, ...]]
    outputs: Mapping[str, tuple[str, ...]]
    producers: Mapping[str, tuple[str, ...]]
    consumers: Mapping[str, tuple[str, ...]]
    skill_ids: Mapping[str, tuple[str, ...]]


_FAMILY = {ProductNode: "product", ProcessNode: "process", SkillNode: "skill"}


def _dangling(source: str, family: str, node_id: str) -> BiPanError:
    """``dangling-reference`` for an endpoint naming no node; ``invalid-id`` if none could."""
    check_id(node_id)
    return BiPanError("dangling-reference", f"{source} references unknown {family} '{node_id}'")


def _normalized(edges: tuple, key: Callable) -> tuple:
    """``edges`` sorted by ``key``, exact duplicates dropped.

    ``key`` holds every field of an edge, so equal edges have equal keys. A dict
    over those tuples drops duplicates without calling the record ``__hash__``
    and the enum's, which are Python functions.
    """
    keyed = {key(edge): edge for edge in edges}
    return tuple(keyed[k] for k in sorted(keyed))


class BiPanModel(Record):
    """Immutable bidirectional product-process-resource network.

    Node and edge collections are normalized on construction: sorted by id and
    exact duplicate edges dropped. The same construction checks every edge
    endpoint to resolve and builds ``adjacency``, the five neighbour maps that
    validation, the planners and the replay read. The other derived facts
    (``digest``, ``diagnostics``, each process's skill labels) are computed on
    first use and kept for the life of the value.
    """

    __slots__ = ("id", "products", "processes", "skills", "flows", "skill_edges", "fastens",
                 "_nodes", "_skill_labels", "adjacency", "__dict__")  # a dict for cached facts

    def __init__(self, id: str, products: tuple[ProductNode, ...] = (),
                 processes: tuple[ProcessNode, ...] = (), skills: tuple[SkillNode, ...] = (),
                 flows: tuple[FlowEdge, ...] = (), skill_edges: tuple[SkillEdge, ...] = (),
                 fastens: tuple[FastensLink, ...] = ()) -> None:
        # One id -> node map over all families. Duplicates within a family are
        # reported first, in input order; then the least id a family shares with
        # an earlier one.
        nodes: dict[str, ProductNode | ProcessNode | SkillNode] = {}
        shared: list[tuple[int, str, str]] = []
        for rank, family in enumerate((products, processes, skills)):
            for node in family:
                held = nodes.get(node.id)
                if type(held) is type(node):
                    raise BiPanError(
                        "duplicate-id", f"duplicate {_FAMILY[type(node)]} id '{node.id}'"
                    )
                if held is not None:
                    shared.append((rank, node.id, f"id '{node.id}' used by both a "
                                   f"{_FAMILY[type(held)]} and a {_FAMILY[type(node)]}"))
                nodes[node.id] = node
        if shared:
            raise BiPanError("duplicate-id", min(shared)[2])

        try:
            # ``_value_``, not ``.value``, which is a descriptor call in Python 3.11.
            flows = _normalized(flows, lambda f: (f.process, f.role._value_, f.product))
            skill_edges = _normalized(skill_edges, lambda e: (e.process, e.skill))
            fastens = _normalized(fastens, lambda l: (l.fastener, tuple(sorted(l.secures))))
        except TypeError:  # an id that is no string failed to hash or sort; ``check_id`` names it
            for ids in (
                *((f.product, f.process) for f in flows),
                *((e.process, e.skill) for e in skill_edges),
                *((link.fastener, *link.secures) for link in fastens),
            ):
                for node_id in ids:
                    check_id(node_id)
            raise

        by_id = attrgetter("id")
        _set(self, "id", id)
        _set(self, "products", tuple(sorted(products, key=by_id)))
        _set(self, "processes", tuple(sorted(processes, key=by_id)))
        _set(self, "skills", tuple(sorted(skills, key=by_id)))

        # One pass over the sorted edges checks each endpoint and fills the adjacency
        # maps, so every neighbour tuple comes out in ascending id order. Each map is
        # keyed by one node family: an endpoint missing from it names no such node.
        inputs, outputs, skill_ids = ({p.id: [] for p in self.processes} for _ in range(3))
        producers, consumers = ({p.id: [] for p in self.products} for _ in range(2))
        for f in flows:
            if f.product not in producers:
                raise _dangling("flow", "product", f.product)
            if f.process not in inputs:
                raise _dangling("flow", "process", f.process)
            if f.role is FlowRole.INPUT:
                inputs[f.process].append(f.product)
                consumers[f.product].append(f.process)
            else:
                outputs[f.process].append(f.product)
                producers[f.product].append(f.process)
        for e in skill_edges:
            if e.process not in skill_ids:
                raise _dangling("skill edge", "process", e.process)
            if not isinstance(nodes.get(e.skill), SkillNode):
                raise _dangling("skill edge", "skill", e.skill)
            skill_ids[e.process].append(e.skill)
        for link in fastens:
            for pid in (link.fastener, *sorted(link.secures)):
                if pid not in producers:
                    raise _dangling("fastens link", "product", pid)

        _set(self, "flows", flows)
        _set(self, "skill_edges", skill_edges)
        _set(self, "fastens", fastens)
        _set(self, "_nodes", nodes)
        _set(self, "_skill_labels", {})
        maps = (inputs, outputs, producers, consumers, skill_ids)
        _set(self, "adjacency", Adjacency(
            *(FrozenMap({node_id: tuple(ids) for node_id, ids in m.items()}) for m in maps)
        ))

    # -- facts computed once -------------------------------------------------------

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the canonical model bytes; see :func:`bipan.canon.model_digest`."""
        from bipan.canon import model_digest  # canon imports this module

        return model_digest(self)

    @cached_property
    def diagnostics(self) -> Diagnostics:
        """Validation findings; see :func:`bipan.validate.validate`."""
        from bipan.validate import validate  # validate imports this module

        return validate(self)

    # -- lookups ---------------------------------------------------------------

    def _unknown(self, family: str, node_id: str) -> BiPanError:
        return BiPanError("unknown-node", f"no {family} '{node_id}' in model '{self.id}'")

    def product(self, product_id: str) -> ProductNode:
        node = self._nodes.get(product_id)
        if not isinstance(node, ProductNode):
            raise self._unknown("product", product_id)
        return node

    def has_process(self, process_id: str) -> bool:
        return isinstance(self._nodes.get(process_id), ProcessNode)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def skill_labels_of(self, process_id: str) -> tuple[str, ...]:
        """Sorted, de-duplicated labels of the skills linked to a process; built once for each."""
        labels = self._skill_labels.get(process_id)
        if labels is None:
            try:
                skill_ids = self.adjacency.skill_ids[process_id]
            except KeyError:  # its keys are exactly the processes
                raise self._unknown("process", process_id) from None
            names = {self._nodes[s].label for s in skill_ids}
            labels = self._skill_labels[process_id] = tuple(sorted(names))
        return labels

    def final_products(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.products if p.kind is ProductKind.FINAL)

    def leaf_products(self) -> tuple[str, ...]:
        """Products with no producer, ascending id."""
        return tuple(p.id for p in self.products if not self.adjacency.producers[p.id])
