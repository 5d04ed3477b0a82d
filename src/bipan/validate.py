"""Structural well-formedness checking with coded, machine-readable diagnostics.

``validate`` never raises: findings are the result. The check list is fixed
(V001-V011); V009 and V010 are warnings, everything else is an error. Cascading
findings are reported, not suppressed, and the output order is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from typing import Any

from bipan.model import BiPanModel, ProductKind, Record


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"


class Diagnostic(Record):
    __slots__ = ("code", "nodes", "message")

    def __init__(self, code: str, nodes: Iterable[str], message: str) -> None:
        set_code, set_nodes, set_message = self._stores
        set_code(self, code)
        set_nodes(self, tuple(nodes))
        set_message(self, message)

    @property
    def severity(self) -> Severity:
        return Severity.WARNING if self.code in ("V009", "V010") else Severity.ERROR


class Diagnostics(Record):
    """All findings for one model, sorted by (code, first node id)."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Diagnostic]) -> None:
        (set_items,) = self._stores
        set_items(self, tuple(items))

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.items if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.items if d.severity is Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.items)

    def codes(self) -> tuple[str, ...]:
        return tuple(sorted({d.code for d in self.items}))

    def to_obj(self) -> dict[str, Any]:
        return {
            "items": [
                {
                    "code": d.code,
                    "message": d.message,
                    "nodes": list(d.nodes),
                    "severity": d.severity.value,
                }
                for d in self.items
            ],
            "summary": {"errors": len(self.errors), "warnings": len(self.warnings)},
        }


def _check_processes(model: BiPanModel, found: list[Diagnostic]) -> None:
    adjacency = model.adjacency
    for proc in model.processes:
        outs = adjacency.outputs[proc.id]
        if len(outs) != 1:
            found.append(
                Diagnostic(
                    "V001",
                    (proc.id, *outs),
                    f"process '{proc.id}' must have exactly one output product (found {len(outs)})",
                )
            )
        if not adjacency.inputs[proc.id]:
            found.append(
                Diagnostic("V002", (proc.id,), f"process '{proc.id}' has no input products")
            )
        if not adjacency.skill_ids[proc.id]:
            found.append(Diagnostic("V009", (proc.id,), f"process '{proc.id}' has no skill edges"))


def _check_products(model: BiPanModel, found: list[Diagnostic]) -> None:
    adjacency = model.adjacency
    final, stage = ProductKind.FINAL, ProductKind.STAGE  # each class read is a call
    for prod in model.products:
        producers = adjacency.producers[prod.id]
        consumers = adjacency.consumers[prod.id]

        parts = []
        involved: set[str] = set()
        if len(producers) > 1:
            parts.append(f"{len(producers)} producers ({', '.join(producers)})")
            involved.update(producers)
        if len(consumers) > 1:
            parts.append(f"{len(consumers)} consumers ({', '.join(consumers)})")
            involved.update(consumers)
        if parts:
            found.append(
                Diagnostic(
                    "V003",
                    (prod.id, *sorted(involved)),
                    f"product '{prod.id}' has " + " and ".join(parts),
                )
            )

        if prod.kind is final:
            issues = []
            if consumers:
                issues.append(f"has a consumer ('{consumers[0]}')")
            if not producers:
                issues.append("has no producer")
            if issues:
                found.append(
                    Diagnostic(
                        "V005",
                        (prod.id,),
                        f"final product '{prod.id}' " + " and ".join(issues),
                    )
                )
        elif prod.kind is stage:
            issues = []
            if not producers:
                issues.append("has no producer")
            if not consumers:
                issues.append("has no consumer")
            if issues:
                found.append(
                    Diagnostic(
                        "V006",
                        (prod.id,),
                        f"stage '{prod.id}' " + " and ".join(issues),
                    )
                )
        elif producers:
            found.append(
                Diagnostic(
                    "V007",
                    (prod.id, *producers),
                    f"{prod.kind.value} product '{prod.id}' must not have a producer "
                    f"(produced by '{producers[0]}')",
                )
            )


def _check_flow(model: BiPanModel, found: list[Diagnostic]) -> None:
    # V004, V008 and V010 from one Kosaraju: a search against the flow records each
    # node as it finishes; a sweep along it, latest finish first, then gathers exactly
    # one strongly connected component from each node not yet assigned. Components
    # are disjoint, so ``validate``'s final sort orders them by their least id. The
    # search starts from the final product(s), whose reach is V010's; if none exist,
    # from the sink products, so that a merely re-kinded root does not mark everything.
    adjacency = model.adjacency
    finals = model.final_products()
    if len(finals) != 1:
        listing = f": {', '.join(finals)}" if finals else ""
        found.append(
            Diagnostic(
                "V004",
                finals,
                f"model must contain exactly one Final product (found {len(finals)}{listing})",
            )
        )
    # The flow graph in assembly direction (input product -> process -> output
    # product) and against it; product and process ids never clash.
    successors = {**adjacency.consumers, **adjacency.outputs}
    predecessors = {**adjacency.producers, **adjacency.inputs}
    seen: set[str] = set()
    finished: list[str] = []

    def search(roots: Iterable[str]) -> None:
        for root in roots:
            if root in seen:
                continue
            seen.add(root)
            work = [(root, iter(predecessors[root]))]
            while work:
                node, sources = work[-1]
                for source in sources:
                    if source not in seen:
                        seen.add(source)
                        work.append((source, iter(predecessors[source])))
                        break
                else:
                    work.pop()
                    finished.append(node)

    search(finals or [p.id for p in model.products if not adjacency.consumers[p.id]])
    # What the roots reach, with the skills of the processes among it; skill ids are
    # no keys of ``predecessors``, so the search goes on unchanged.
    seen.update([skill for node in seen for skill in adjacency.skill_ids.get(node, ())])
    for node in (*model.products, *model.processes, *model.skills):
        if node.id not in seen:
            found.append(
                Diagnostic("V010", (node.id,), f"'{node.id}' is unreachable from the final product")
            )
    search(predecessors)

    assigned: set[str] = set()
    for root in reversed(finished):
        if root in assigned:
            continue
        assigned.add(root)
        component = [root]
        for node in component:
            for target in successors[node]:
                if target not in assigned:
                    assigned.add(target)
                    component.append(target)
        if len(component) > 1:
            component.sort()
            found.append(
                Diagnostic(
                    "V008",
                    component,
                    "flow graph contains a cycle involving: " + ", ".join(component),
                )
            )


def _check_fastens(model: BiPanModel, found: list[Diagnostic]) -> None:
    consumers, fastener_kind = model.adjacency.consumers, ProductKind.FASTENER
    for link in model.fastens:
        nodes = (link.fastener, *link.secures)
        fastener = model.product(link.fastener)
        if fastener.kind is not fastener_kind:
            found.append(
                Diagnostic(
                    "V011",
                    nodes,
                    f"fastens link fastener '{link.fastener}' has kind {fastener.kind.value}, "
                    "expected Fastener",
                )
            )
            continue
        # A process with every member as an input is one of the fastener's consumers.
        if not any(
            all(host in consumers[member] for member in link.secures)
            for host in consumers[link.fastener]
        ):
            found.append(
                Diagnostic(
                    "V011",
                    nodes,
                    f"fastens link '{link.fastener}' -> {{{', '.join(link.secures)}}} "
                    "members are not all inputs of one common process",
                )
            )


def validate(model: BiPanModel) -> Diagnostics:
    """Run the full fixed check list; an empty result means the model is valid."""
    found: list[Diagnostic] = []
    _check_processes(model, found)
    _check_products(model, found)
    _check_flow(model, found)
    _check_fastens(model, found)
    found.sort(key=lambda d: (d.code, d.nodes[0] if d.nodes else "", d.message))
    return Diagnostics(found)

