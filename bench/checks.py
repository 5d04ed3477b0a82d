"""Output checks for the benchmark, independent of the planners and the oracle.

The model structure comes from this module's own reading of the model
document, and plans are replayed by this module's own inventory machine. No
code is shared with ``bipan.plan`` or ``bipan.execute``, so a planner and the
package's oracle that went wrong together are still caught.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass


class CheckFailed(Exception):
    """An output did not match what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Structure:
    """The in-tree facts of a model document that the checks need."""

    final: str
    leaves: frozenset[str]
    inputs_of: dict[str, frozenset[str]]  # process -> input products
    output_of: dict[str, str]  # process -> output product
    consumer_of: dict[str, str]  # product -> consuming process

    @classmethod
    def from_bytes(cls, data: bytes) -> Structure:
        doc = json.loads(data)
        inputs: dict[str, set[str]] = {p["id"]: set() for p in doc["processes"]}
        output_of: dict[str, str] = {}
        consumer_of: dict[str, str] = {}
        for flow in doc["flows"]:
            if flow["role"] == "Input":
                inputs[flow["process"]].add(flow["product"])
                consumer_of[flow["product"]] = flow["process"]
            else:
                output_of[flow["process"]] = flow["product"]
        produced = set(output_of.values())
        (final,) = [p["id"] for p in doc["products"] if p["kind"] == "Final"]
        leaves = frozenset(p["id"] for p in doc["products"] if p["id"] not in produced)
        return cls(final, leaves, {k: frozenset(v) for k, v in inputs.items()}, output_of, consumer_of)

    def spine(self, product: str) -> list[str]:
        """Processes from the product's consumer up to the final producer."""
        chain = []
        while product in self.consumer_of:
            proc = self.consumer_of[product]
            chain.append(proc)
            product = self.output_of[proc]
        return chain


@dataclass(frozen=True)
class Step:
    direction: str
    process: str
    consumed: tuple[str, ...]
    produced: tuple[str, ...]
    swap_target: str | None = None
    swap_replacement: str | None = None


def steps_from_doc(doc: Mapping) -> list[Step]:
    """Steps of a plan document as parsed JSON."""
    return [
        Step(s["direction"], s["process"], tuple(s["consumed"]), tuple(s["produced"]),
             s.get("swap_target"), s.get("swap_replacement"))
        for s in doc["steps"]
    ]


def steps_from_plan(plan) -> list[Step]:
    """Steps of an in-memory plan, read attribute by attribute."""
    return [
        Step(s.direction.value, s.process, tuple(s.consumed), tuple(s.produced),
             s.swap_target, s.swap_replacement)
        for s in plan.steps
    ]


def replay(structure: Structure, steps: Iterable[Step], present: Iterable[str]) -> tuple[set[str], dict[str, str]]:
    """Apply each step's declared effect to an inventory; raise on any violation."""
    inventory = set(present)
    substitutions: dict[str, str] = {}
    for i, step in enumerate(steps):
        expect(step.process in structure.output_of, f"step {i}: unknown process {step.process!r}")
        if step.direction == "Swap":
            site_output = structure.output_of[step.process]
            expect(site_output in inventory, f"step {i}: swap site output {site_output!r} absent")
            expect(step.swap_replacement in inventory, f"step {i}: replacement absent")
            expect(step.swap_target not in inventory, f"step {i}: swap target already present")
            inventory.discard(step.swap_replacement)
            inventory.add(step.swap_target)
            substitutions[step.swap_target] = step.swap_replacement
            continue
        expect(step.direction in ("Forward", "Reverse"), f"step {i}: direction {step.direction!r}")
        for item in step.consumed:
            expect(item in inventory, f"step {i}: consumes absent {item!r}")
            inventory.remove(item)
        for item in step.produced:
            expect(item not in inventory, f"step {i}: produces present {item!r}")
            inventory.add(item)
    return inventory, substitutions


def check_assembly(structure: Structure, steps: list[Step]) -> None:
    """Every process runs forward once, as modelled, and leaves replay to exactly {final}."""
    expect(sorted(s.process for s in steps) == sorted(structure.output_of), "assembly: process set")
    for s in steps:
        expect(s.direction == "Forward", f"assembly: {s.process} not Forward")
        expect(frozenset(s.consumed) == structure.inputs_of[s.process], f"assembly: {s.process} inputs")
        expect(s.produced == (structure.output_of[s.process],), f"assembly: {s.process} output")
    inventory, _ = replay(structure, steps, structure.leaves)
    expect(inventory == {structure.final}, "assembly: does not replay to {final}")


def check_repair(structure: Structure, steps: list[Step], replacements: Mapping[str, str]) -> None:
    """From final plus replacements, the plan ends at final plus the broken ids."""
    inventory, substitutions = replay(structure, steps, {structure.final, *replacements.values()})
    expect(inventory == {structure.final, *replacements}, "repair: wrong final inventory")
    expect(substitutions == dict(replacements), "repair: substitutions differ from replacements")


def check_disassembly(structure: Structure, steps: list[Step], target: str, extract: bool) -> None:
    """Reverses the target's spine root first; extract frees the target, expose its stage."""
    spine = structure.spine(target)
    expected = list(reversed(spine)) if extract else list(reversed(spine))[:-1]
    expect([s.process for s in steps] == expected, f"disassembly to {target}: process sequence")
    expect(all(s.direction == "Reverse" for s in steps), f"disassembly to {target}: direction")
    inventory, _ = replay(structure, steps, {structure.final})
    freed = target if extract else structure.output_of[spine[0]]
    expect(freed in inventory, f"disassembly to {target}: {freed!r} not freed")


def check_state(present: Iterable[str], substitutions: Mapping[str, str],
                expected_present: Iterable[str], expected_subs: Mapping[str, str], what: str) -> None:
    expect(set(present) == set(expected_present), f"{what}: wrong final inventory")
    expect(dict(substitutions) == dict(expected_subs), f"{what}: wrong substitutions")
