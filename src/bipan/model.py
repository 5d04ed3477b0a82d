"""Core bidirectional product-process-resource graph and read-only structural queries.

A model is an immutable value holding three node families (products, processes,
resource skills), flow edges tying products to processes, skill edges tying
processes to the skills they require, and optional fastens links that record
which fastener secures which sibling components. Flow edges carry no direction
of their own: assembly and disassembly are directions of *extracted plans*, not
of the stored graph.

Construction enforces referential integrity (unique ids, resolvable edge
endpoints); the structural rules beyond that (V-codes) live in
:mod:`bipan.validate`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, NoReturn

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


@dataclass(frozen=True)
class ProductNode:
    """A concrete product instance (not a part type; shared types go in ``type_ref``).

    ``attributes`` is a read-only copy of the mapping given, so a model's cached
    digest and diagnostics cannot go stale. The hash leaves ``attributes`` out;
    equality still compares it.
    """

    id: str
    label: str
    kind: ProductKind
    type_ref: str | None = None
    position: tuple[float, float, float] | None = None
    attributes: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        check_id(self.id)
        if self.position is not None:
            try:
                pos = tuple(float(c) for c in self.position)
            except OverflowError as exc:
                raise BiPanError(
                    "invalid-position", f"product '{self.id}': position component is too large"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise BiPanError(
                    "invalid-position", f"product '{self.id}': position components must be numbers"
                ) from exc
            if len(pos) != 3:
                raise BiPanError(
                    "invalid-position",
                    f"product '{self.id}': position must have exactly three components",
                )
            object.__setattr__(self, "position", pos)
        object.__setattr__(self, "attributes", FrozenMap(self.attributes))

    def has_finite_position(self) -> bool:
        return self.position is None or all(math.isfinite(c) for c in self.position)


@dataclass(frozen=True)
class ProcessNode:
    id: str
    label: str

    def __post_init__(self) -> None:
        check_id(self.id)


@dataclass(frozen=True)
class SkillNode:
    """An abstract resource capability, e.g. "manipulation" or "screwing"."""

    id: str
    label: str

    def __post_init__(self) -> None:
        check_id(self.id)


@dataclass(frozen=True)
class FlowEdge:
    """Ties a product to a process, as consumed input or produced output."""

    product: str
    process: str
    role: FlowRole


@dataclass(frozen=True)
class SkillEdge:
    process: str
    skill: str


@dataclass(frozen=True)
class FastensLink:
    """Optional refinement: a fastener product and the sibling inputs it secures."""

    fastener: str
    secures: frozenset[str]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "secures", frozenset(self.secures))
        except TypeError:  # an unhashable id, which ``check_id`` names
            for node_id in self.secures:
                check_id(node_id)
            raise


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
    over those tuples drops duplicates without calling the dataclass ``__hash__``
    and the enum's, which are Python functions.
    """
    keyed = {key(edge): edge for edge in edges}
    return tuple(keyed[k] for k in sorted(keyed))


@dataclass(frozen=True)
class BiPanModel:
    """Immutable bidirectional product-process-resource network.

    Node and edge collections are normalized on construction: sorted by id,
    exact duplicate edges dropped, and all edge endpoints checked to resolve.
    Derived facts (adjacency, ``digest``, ``diagnostics``, each process's skill
    labels) are computed on first use and kept for the life of the value.
    """

    id: str
    products: tuple[ProductNode, ...] = ()
    processes: tuple[ProcessNode, ...] = ()
    skills: tuple[SkillNode, ...] = ()
    flows: tuple[FlowEdge, ...] = ()
    skill_edges: tuple[SkillEdge, ...] = ()
    fastens: tuple[FastensLink, ...] = ()
    _nodes: dict[str, ProductNode | ProcessNode | SkillNode] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _skill_labels: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        # One id -> node map over all families. Duplicates within a family are
        # reported first, in input order; then the least id a family shares with
        # an earlier one.
        nodes = self._nodes
        shared: list[tuple[int, str, str]] = []
        for rank, family in enumerate((self.products, self.processes, self.skills)):
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
            for flow in self.flows:
                if not isinstance(nodes.get(flow.product), ProductNode):
                    raise _dangling("flow", "product", flow.product)
                if not isinstance(nodes.get(flow.process), ProcessNode):
                    raise _dangling("flow", "process", flow.process)
            for edge in self.skill_edges:
                if not isinstance(nodes.get(edge.process), ProcessNode):
                    raise _dangling("skill edge", "process", edge.process)
                if not isinstance(nodes.get(edge.skill), SkillNode):
                    raise _dangling("skill edge", "skill", edge.skill)
            for link in self.fastens:
                for pid in (link.fastener, *sorted(link.secures)):
                    if not isinstance(nodes.get(pid), ProductNode):
                        raise _dangling("fastens link", "product", pid)
        except TypeError:  # an id that is no string failed to hash or sort; ``check_id`` names it
            for ids in (
                *((f.product, f.process) for f in self.flows),
                *((e.process, e.skill) for e in self.skill_edges),
                *((link.fastener, *link.secures) for link in self.fastens),
            ):
                for node_id in ids:
                    check_id(node_id)
            raise

        # ``_value_``, not ``.value``, which is a descriptor call in Python 3.11.
        flows = _normalized(self.flows, lambda f: (f.process, f.role._value_, f.product))
        skill_edges = _normalized(self.skill_edges, lambda e: (e.process, e.skill))
        fastens = _normalized(self.fastens, lambda l: (l.fastener, tuple(sorted(l.secures))))

        by_id = attrgetter("id")
        object.__setattr__(self, "products", tuple(sorted(self.products, key=by_id)))
        object.__setattr__(self, "processes", tuple(sorted(self.processes, key=by_id)))
        object.__setattr__(self, "skills", tuple(sorted(self.skills, key=by_id)))
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "skill_edges", skill_edges)
        object.__setattr__(self, "fastens", fastens)

    # -- indices -------------------------------------------------------------

    @cached_property
    def adjacency(self) -> Adjacency:
        """All five adjacency maps, built in one pass over the edges.

        Normalization sorts flows by (process, role, product) and skill edges by
        (process, skill), so every neighbour tuple comes out in ascending id order.
        """
        inputs: dict[str, list[str]] = {p.id: [] for p in self.processes}
        outputs: dict[str, list[str]] = {p.id: [] for p in self.processes}
        skill_ids: dict[str, list[str]] = {p.id: [] for p in self.processes}
        producers: dict[str, list[str]] = {p.id: [] for p in self.products}
        consumers: dict[str, list[str]] = {p.id: [] for p in self.products}
        for f in self.flows:
            if f.role is FlowRole.INPUT:
                inputs[f.process].append(f.product)
                consumers[f.product].append(f.process)
            else:
                outputs[f.process].append(f.product)
                producers[f.product].append(f.process)
        for e in self.skill_edges:
            skill_ids[e.process].append(e.skill)
        return Adjacency(
            *(
                FrozenMap({node_id: tuple(ids) for node_id, ids in adjacency.items()})
                for adjacency in (inputs, outputs, producers, consumers, skill_ids)
            )
        )

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

    # -- structural queries ------------------------------------------------------
    # One lookup each: a map's keys are exactly one node family, so a miss is an unknown node.

    def inputs_of(self, process_id: str) -> tuple[str, ...]:
        """Products consumed by a process in assembly direction, ascending id."""
        try:
            return self.adjacency.inputs[process_id]
        except KeyError:
            raise self._unknown("process", process_id) from None

    def outputs_of(self, process_id: str) -> tuple[str, ...]:
        try:
            return self.adjacency.outputs[process_id]
        except KeyError:
            raise self._unknown("process", process_id) from None

    def output_of(self, process_id: str) -> str | None:
        """The process output, or None; the least id if the model is malformed."""
        outs = self.outputs_of(process_id)
        return outs[0] if outs else None

    def producers_of(self, product_id: str) -> tuple[str, ...]:
        try:
            return self.adjacency.producers[product_id]
        except KeyError:
            raise self._unknown("product", product_id) from None

    def consumers_of(self, product_id: str) -> tuple[str, ...]:
        try:
            return self.adjacency.consumers[product_id]
        except KeyError:
            raise self._unknown("product", product_id) from None

    def producer_of(self, product_id: str) -> str | None:
        """The process producing this product, or None for leaves.

        Unique in validated models; the least id is returned otherwise.
        """
        procs = self.producers_of(product_id)
        return procs[0] if procs else None

    def consumer_of(self, product_id: str) -> str | None:
        """The process consuming this product, or None for the final product."""
        procs = self.consumers_of(product_id)
        return procs[0] if procs else None

    def skill_ids_of(self, process_id: str) -> tuple[str, ...]:
        try:
            return self.adjacency.skill_ids[process_id]
        except KeyError:
            raise self._unknown("process", process_id) from None

    def skill_labels_of(self, process_id: str) -> tuple[str, ...]:
        """Sorted, de-duplicated labels of the skills linked to a process; built once for each."""
        labels = self._skill_labels.get(process_id)
        if labels is None:
            names = {self._nodes[s].label for s in self.skill_ids_of(process_id)}
            labels = self._skill_labels[process_id] = tuple(sorted(names))
        return labels

    def final_products(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.products if p.kind is ProductKind.FINAL)

    def leaf_products(self) -> tuple[str, ...]:
        """Products with no producer, ascending id."""
        return tuple(p.id for p in self.products if not self.adjacency.producers[p.id])

    def spine(self, product_id: str) -> tuple[str, ...]:
        """Chain of processes from this product's consumer up to the final producer.

        Empty for the final product itself. Assumes a validated model; on a
        cyclic graph the walk aborts with ``invalid-model``.
        """
        proc = self.consumer_of(product_id)
        if proc is None:
            if self.product(product_id).kind is ProductKind.FINAL:
                return ()
            raise BiPanError(
                "detached-node",
                f"product '{product_id}' has no consumer and is not the final product",
            )
        chain: list[str] = []
        seen: set[str] = set()
        while proc is not None:
            if proc in seen:
                raise BiPanError("invalid-model", f"flow cycle at process '{proc}'")
            seen.add(proc)
            chain.append(proc)
            out = self.output_of(proc)
            proc = self.consumer_of(out) if out is not None else None
        return tuple(chain)
