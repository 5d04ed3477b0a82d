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

A plan is a model value too: a ``Plan`` of ``PlanStep`` records, each in one ``Direction``,
and ``INVERSION`` relabels assembly skills as disassembly skills. The planners
(:mod:`bipan.plan`) and the replay (:mod:`bipan.execute`) read them here, not from each other.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from functools import cached_property
from math import isfinite
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, NoReturn, TypeVar

from bipan.errors import BiPanError

if TYPE_CHECKING:
    from bipan.validate import Diagnostics

_ID_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


def check_id(value: object) -> str:
    """Return ``value`` if it is a well-formed node id, else raise ``invalid-id``
    (``parse-error`` if it is not a string).

    A well-formed id is a non-empty string over ``[A-Za-z0-9_.-]``. A set test
    states that as directly as a regex, and runs in about half the time.
    """
    if not isinstance(value, str) or not value or not _ID_CHARS.issuperset(value):
        raise BiPanError("invalid-id" if isinstance(value, str) else "parse-error",
                         f"node id {value!r} must be a non-empty string matching [A-Za-z0-9_.-]+")
    return value


class FrozenMap(dict):
    """A dict whose mutating methods raise ``TypeError``: the read-only mapping records hold.

    Only an explicit ``dict.__setitem__`` gets past it, as ``object.__setattr__``
    gets past a frozen record. It hashes by its items, so a record holding one
    hashes every field.
    """

    __slots__ = ()

    def _read_only(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):  # the default would unpickle item by item, through __setitem__
        return (type(self), (dict(self),))

    def __repr__(self) -> str:
        """A dict's repr in key order, so maps equal but built in another order print alike."""
        return repr(dict(sorted(self.items())))


def _repr(value: object) -> str:
    """``repr(value)``, but a frozenset's members sorted: a set's own order follows its history
    and the hash seed."""
    if type(value) is frozenset and value:
        return f"frozenset({{{', '.join(sorted(map(repr, value)))}}})"
    return repr(value)


def _frozen(message: str) -> NoReturn:
    from dataclasses import FrozenInstanceError  # only here: ``dataclasses`` imports ``inspect``

    raise FrozenInstanceError(message)


class Record:
    """Base of the immutable value records: slotted, and compared, hashed and shown by field.

    A record's fields are its ``__init__`` parameters, in order; ``__init__``
    checks them and writes each slot through the slot's own ``__set__``, held in
    ``_stores`` in ``__slots__`` order (less ``__dict__``), which skips the frozen
    ``__setattr__``. Equality is by type and every field, and the hash is of every
    field; ``repr`` shows a frozenset field's members sorted. Pickling and copying
    call ``__init__`` again, so its checks rerun. Assigning or deleting an
    attribute raises ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _stores: tuple

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = attrgetter(*cls._fields)
        cls._stores = tuple(cls.__dict__[name].__set__ for name in cls.__slots__
                            if name != "__dict__")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self._fields)
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


_SEQUENCES, _COORDINATES, _STRINGS = (list, tuple), frozenset({int, float}), frozenset({str})


class ProductNode(Record):
    """A concrete product instance (not a part type; shared types go in ``type_ref``).

    ``label``, ``type_ref`` unless None, and each key and value of ``attributes`` are
    strings (``parse-error`` otherwise). ``position``, if given, is a list or tuple of three
    ints or floats (no bool, no str), each finite as a float, and is held as a tuple of
    floats. ``attributes`` is a read-only copy of the mapping given, so a model's cached
    digest and diagnostics cannot go stale; products without any share one empty map.
    """

    __slots__ = ("id", "label", "kind", "type_ref", "position", "attributes")
    _NO_ATTRIBUTES = FrozenMap()

    def __init__(self, id: str, label: str, kind: ProductKind, type_ref: str | None = None,
                 position: tuple[float, float, float] | None = None,
                 attributes: Mapping[str, str] = _NO_ATTRIBUTES) -> None:
        check_id(id)
        if type(kind) is not ProductKind:
            raise BiPanError("parse-error", f"product '{id}': kind {kind!r} is not a ProductKind")
        if type(label) is not str or type_ref is not None and type(type_ref) is not str:
            field, value = ("label", label) if type(label) is not str else ("type_ref", type_ref)
            raise BiPanError("parse-error", f"product '{id}': {field} {value!r} is not a string")
        attributes = FrozenMap(attributes) if attributes else self._NO_ATTRIBUTES
        if attributes and not _STRINGS.issuperset(map(type, (*attributes, *attributes.values()))):
            raise BiPanError("parse-error",
                             f"product '{id}': attributes must map strings to strings")
        if position is not None:
            try:  # ``isfinite`` of an int past the float range raises OverflowError
                valid = (type(position) in _SEQUENCES and len(position) == 3
                         and _COORDINATES.issuperset(map(type, position))
                         and all(map(isfinite, position)))
            except OverflowError:
                valid = False
            if not valid:
                raise BiPanError("invalid-position",
                                 f"product '{id}': position must be three finite numbers")
            position = tuple(map(float, position))
        set_id, set_label, set_kind, set_type_ref, set_position, set_attributes = self._stores
        set_id(self, id)
        set_label(self, label)
        set_kind(self, kind)
        set_type_ref(self, type_ref)
        set_position(self, position)
        set_attributes(self, attributes)


class ProcessNode(Record):
    __slots__ = ("id", "label")

    def __init__(self, id: str, label: str) -> None:
        set_id, set_label = self._stores
        set_id(self, check_id(id))
        if type(label) is not str:
            raise BiPanError("parse-error", f"process '{id}': label {label!r} is not a string")
        set_label(self, label)


class SkillNode(Record):
    """An abstract resource capability, e.g. "manipulation" or "screwing"."""

    __slots__ = ("id", "label")

    def __init__(self, id: str, label: str) -> None:
        set_id, set_label = self._stores
        set_id(self, check_id(id))
        if type(label) is not str:
            raise BiPanError("parse-error", f"skill '{id}': label {label!r} is not a string")
        set_label(self, label)


class FastensLink(Record):
    """Optional refinement: a fastener product and the sibling inputs it secures.

    ``secures`` is held sorted and without duplicates, so equal links print alike.
    """

    __slots__ = ("fastener", "secures")

    def __init__(self, fastener: str, secures: Iterable[str]) -> None:
        secures = tuple(secures)  # read once: the fallback below walks it again
        try:
            secures = tuple(sorted(set(secures)))
        except TypeError:  # an unhashable or unorderable id, which ``check_id`` names
            for node_id in secures:
                check_id(node_id)
            raise
        set_fastener, set_secures = self._stores
        set_fastener(self, fastener)
        set_secures(self, secures)


class Adjacency(NamedTuple):
    """Read-only neighbour ids, ascending: by process (inputs, outputs, skill ids) or by product."""

    inputs: Mapping[str, tuple[str, ...]]
    outputs: Mapping[str, tuple[str, ...]]
    producers: Mapping[str, tuple[str, ...]]
    consumers: Mapping[str, tuple[str, ...]]
    skill_ids: Mapping[str, tuple[str, ...]]


_FAMILY = {ProductNode: "product", ProcessNode: "process", SkillNode: "skill"}


def _first_fault(nodes: Mapping[str, Record], flows: tuple, skill_edges: tuple,
                 fastens: tuple[FastensLink, ...]) -> None:
    """Raise the first fault of these edges: a row of the wrong shape, a role that is no
    ``FlowRole`` or an id that is no string, in the order given, else the first endpoint
    that names no node, in the canonical order a model holds its edges in.
    """
    for source, rows, width in (("flow", flows, 3), ("skill edge", skill_edges, 2)):
        for row in rows:
            if not isinstance(row, Sequence) or len(row) != width:
                raise BiPanError("parse-error", f"{source} {row!r} is not a row of {width} items")
    for product, process, role in flows:
        if type(role) is not FlowRole:
            raise BiPanError("parse-error", f"flow {product!r}-{process!r}: role {role!r} "
                             "is not a FlowRole")
    for ids in (*((product, process) for product, process, _ in flows), *skill_edges,
                *((link.fastener, *link.secures) for link in fastens)):
        for node_id in ids:
            if not isinstance(node_id, str):
                check_id(node_id)
    for source, ids, families in (
        *(("flow", (product, process), (ProductNode, ProcessNode)) for process, _, product
          in sorted((process, role is FlowRole.OUTPUT, product)
                    for product, process, role in flows)),
        *(("skill edge", ids, (ProcessNode, SkillNode)) for ids in sorted(map(tuple, skill_edges))),
        *(("fastens link", ids, (ProductNode,) * len(ids))
          for ids in sorted((link.fastener, *link.secures) for link in fastens)),
    ):
        for node_id, family in zip(ids, families):
            if type(nodes.get(node_id)) is not family:
                check_id(node_id)
                raise BiPanError("dangling-reference",
                                 f"{source} references unknown {_FAMILY[family]} '{node_id}'")


class BiPanModel(Record):
    """Immutable bidirectional product-process-resource network.

    Nodes are sorted by id on construction. Edges, given as plain ``(product, process,
    role)`` and ``(process, skill)`` rows, are checked to resolve and stored as
    ``adjacency``, the five neighbour maps that validation, the planners and the replay
    read; ``flows`` and ``skill_edges`` are those rows rebuilt from it on first read, in
    canonical order, without duplicates. The other derived facts (``digest``,
    ``diagnostics``, each process's skill labels) are computed on first use and kept
    for the life of the value.
    """

    __slots__ = ("id", "products", "processes", "skills", "fastens", "_nodes", "_skill_labels",
                 "adjacency", "__dict__")  # a dict for cached facts

    def __init__(self, id: str, products: Iterable[ProductNode] = (),
                 processes: Iterable[ProcessNode] = (), skills: Iterable[SkillNode] = (),
                 flows: Iterable[tuple[str, str, FlowRole]] = (),
                 skill_edges: Iterable[tuple[str, str]] = (),
                 fastens: Iterable[FastensLink] = ()) -> None:
        if type(id) is not str:
            raise BiPanError("parse-error", f"model id {id!r} is not a string")
        # One id -> node map over all families. Duplicates within a family are
        # reported first, in input order; then the least id a family shares with
        # an earlier one.
        products, processes, skills = tuple(products), tuple(processes), tuple(skills)
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

        by_id = attrgetter("id")
        (set_id, set_products, set_processes, set_skills, set_fastens, set_nodes,
         set_skill_labels, set_adjacency) = self._stores
        set_id(self, id)
        set_products(self, tuple(sorted(products, key=by_id)))
        set_processes(self, tuple(sorted(processes, key=by_id)))
        set_skills(self, tuple(sorted(skills, key=by_id)))

        # One pass files each edge in maps keyed by one node family each, so an endpoint
        # that names no such node fails to index its map; ``_first_fault`` names it.
        flows, skill_edges, fastens = tuple(flows), tuple(skill_edges), tuple(fastens)
        inputs, outputs, skill_ids = ({node.id: [] for node in self.processes} for _ in range(3))
        product_ids = [node.id for node in self.products]
        producers, consumers = dict.fromkeys(product_ids, ()), dict.fromkeys(product_ids, ())
        input_role, output_role = FlowRole.INPUT, FlowRole.OUTPUT  # each class read is a call
        try:
            for product, process, role in flows:
                if role is input_role:
                    inputs[process].append(product)
                elif role is output_role:
                    outputs[process].append(product)
                else:
                    raise KeyError("role")  # ``_first_fault`` names the role
            for process, skill in skill_edges:
                skill_ids[process].append(skill)
            if not {node.id for node in self.skills}.issuperset([s for _, s in skill_edges]):
                raise KeyError("skill")
            # Each list sorted, without duplicates; the processes ascend, so the tuples by
            # product come out ascending too. A product's first process is filed as a
            # 1-tuple, any later ones in one list, joined to it once.
            for by_process, by_product in ((inputs, consumers), (outputs, producers)):
                later: defaultdict[str, list[str]] = defaultdict(list)
                for pid, ids in by_process.items():
                    by_process[pid] = ids = tuple(sorted(set(ids)) if len(ids) > 1 else ids)
                    for product in ids:
                        if by_product[product]:
                            later[product].append(pid)
                        else:
                            by_product[product] = (pid,)
                for product, pids in later.items():
                    by_product[product] += (*pids,)
            for pid, ids in skill_ids.items():
                skill_ids[pid] = tuple(sorted(set(ids)) if len(ids) > 1 else ids)
            keyed = {(link.fastener, link.secures): link for link in fastens}
            if not producers.keys() >= {pid for key in keyed for pid in (key[0], *key[1])}:
                raise KeyError("fastens")
        except (KeyError, TypeError, ValueError, BiPanError):
            _first_fault(nodes, flows, skill_edges, fastens)
            raise

        set_fastens(self, tuple(keyed[k] for k in sorted(keyed)))
        set_nodes(self, nodes)
        set_skill_labels(self, {})
        maps = (inputs, outputs, producers, consumers, skill_ids)
        set_adjacency(self, Adjacency(*map(FrozenMap, maps)))

    @cached_property
    def flows(self) -> tuple[tuple[str, str, FlowRole], ...]:
        """The ``(product, process, role)`` rows in canonical order: by process, its inputs
        and then its outputs."""
        inputs, outputs = self.adjacency.inputs, self.adjacency.outputs
        return tuple((product, pid, role) for pid in inputs
                     for role, ids in ((FlowRole.INPUT, inputs), (FlowRole.OUTPUT, outputs))
                     for product in ids[pid])

    @cached_property
    def skill_edges(self) -> tuple[tuple[str, str], ...]:
        """The ``(process, skill)`` rows in canonical order, by process and skill."""
        return tuple((pid, skill)
                     for pid, skills in self.adjacency.skill_ids.items() for skill in skills)

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

    def ensure_valid(self) -> None:
        """Raise ``invalid-model`` if :attr:`diagnostics` holds any Error finding."""
        errors = self.diagnostics.errors
        if errors:
            codes = ", ".join(sorted({d.code for d in errors}))
            raise BiPanError("invalid-model", f"model '{self.id}' fails validation: {codes}")

    def ensure_digest(self, expected: str, holder: str) -> None:
        """Raise ``digest-mismatch`` unless ``expected`` is ours; ``holder`` is what binds it."""
        digest = self.digest
        if expected != digest:
            raise BiPanError("digest-mismatch", f"{holder} digest {expected[:12]}..., "
                             f"model '{self.id}' has {digest[:12]}...")

    # -- lookups ---------------------------------------------------------------

    def _unknown(self, family: str, node_id: str) -> BiPanError:
        return BiPanError("unknown-node", f"no {family} '{node_id}' in model '{self.id}'")

    def product(self, product_id: str) -> ProductNode:
        node = self._nodes.get(product_id)
        if not isinstance(node, ProductNode):
            raise self._unknown("product", product_id)
        return node

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
        final = ProductKind.FINAL  # each class read is a call
        return tuple(p.id for p in self.products if p.kind is final)

    def leaf_products(self) -> tuple[str, ...]:
        """Products with no producer, ascending id."""
        return tuple(p.id for p in self.products if not self.adjacency.producers[p.id])


class Direction(Enum):
    FORWARD = "Forward"
    REVERSE = "Reverse"
    SWAP = "Swap"


_SWAP = Direction.SWAP  # a member read from its class is a call; this is read once per step

#: The assembly-to-disassembly skill relabeling; unmapped labels invert to themselves.
#: Read-only, as every planner and the replay oracle read it.
INVERSION: Mapping[str, str] = FrozenMap(
    {
        "screwing": "unscrewing",
        "connecting-cables": "disconnecting-cables",
        "manipulation": "manipulation",
    }
)


class PlanStep(Record):
    """One directed process application with resolved inventory effect and skills.

    A Swap consumes one id, its ``swap_replacement``, and produces one, its
    ``swap_target`` (``parse-error`` otherwise); both are None on other steps.
    """

    __slots__ = ("process", "direction", "consumed", "produced", "required_skills", "swap_target",
                 "swap_replacement")

    def __init__(self, process: str, direction: Direction, consumed: Iterable[str],
                 produced: Iterable[str], required_skills: Iterable[str]) -> None:
        if type(process) is not str:
            raise BiPanError("parse-error", f"step process {process!r} is not a string")
        if type(direction) is not Direction:
            raise BiPanError("parse-error", f"step direction {direction!r} is not a Direction")
        consumed, produced = tuple(consumed), tuple(produced)
        swap = direction is _SWAP
        if swap and (len(consumed), len(produced)) != (1, 1):
            raise BiPanError(
                "parse-error", f"swap step at '{process}' must consume one id and produce one"
            )
        (set_process, set_direction, set_consumed, set_produced, set_required_skills,
         set_swap_target, set_swap_replacement) = self._stores
        set_process(self, process)
        set_direction(self, direction)
        set_consumed(self, consumed)
        set_produced(self, produced)
        set_required_skills(self, tuple(required_skills))
        set_swap_target(self, produced[0] if swap else None)
        set_swap_replacement(self, consumed[0] if swap else None)


class Plan(Record):
    """Ordered steps bound to one model version via its digest."""

    __slots__ = ("model_id", "model_digest", "steps")

    def __init__(self, model_id: str, model_digest: str, steps: Iterable[PlanStep]) -> None:
        for name, value in (("model_id", model_id), ("model_digest", model_digest)):
            if type(value) is not str:
                raise BiPanError("parse-error", f"{name} must be a string")
        set_model_id, set_model_digest, set_steps = self._stores
        set_model_id(self, model_id)
        set_model_digest(self, model_digest)
        set_steps(self, tuple(steps))

    def process_sequence(self) -> tuple[str, ...]:
        return tuple(step.process for step in self.steps)
