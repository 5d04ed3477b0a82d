"""Span tracer that wraps the package's public functions from outside.

Installing the tracer replaces each target function with a wrapper, in the
module that defines it and in every ``bipan`` module that bound the same
object by name (``from bipan.canon import model_digest`` in ``bipan.plan``),
and on the class for methods such as ``BiPanModel.spine``. Each call records a
span ``(name, start, end, parent, request)`` in memory. A target that no longer
exists is skipped and reports 0 calls; a result whose shape no longer fits a
counter leaves that counter alone. Nothing is written until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict
from functools import update_wrapper

#: Span name -> (module, attribute); ``Class.method`` wraps a method on its class.
TARGETS: dict[str, tuple[str, str]] = {
    "io.load_model": ("bipan.io", "load_model"),
    "io.save_model": ("bipan.io", "save_model"),
    "io.load_plan": ("bipan.io", "load_plan"),
    "io.save_plan": ("bipan.io", "save_plan"),
    "io.load_instance": ("bipan.io", "load_instance"),
    "io.save_instance": ("bipan.io", "save_instance"),
    "io.read_instance_file": ("bipan.io", "read_instance_file"),
    "io.write_instance_file": ("bipan.io", "write_instance_file"),
    "io.import_aml": ("bipan.io", "import_aml"),
    "io.merge": ("bipan.io", "merge"),
    "io.export_dot": ("bipan.io", "export_dot"),
    "model.construct": ("bipan.model", "BiPanModel.__init__"),
    "model.spine": ("bipan.model", "BiPanModel.spine"),
    "validate.validate": ("bipan.validate", "validate"),
    "canon.model_digest": ("bipan.canon", "model_digest"),
    "canon.canonical_bytes": ("bipan.canon", "canonical_bytes"),
    "plan.assembly_recipe": ("bipan.plan", "assembly_recipe"),
    "plan.full_disassembly": ("bipan.plan", "full_disassembly"),
    "plan.disassembly_to": ("bipan.plan", "disassembly_to"),
    "plan.repair_plan": ("bipan.plan", "repair_plan"),
    "execute.initial_inventory": ("bipan.execute", "initial_inventory"),
    "execute.run": ("bipan.execute", "run"),
    "pdt.create_instance": ("bipan.pdt", "create_instance"),
    "pdt.set_health": ("bipan.pdt", "set_health"),
    "pdt.plan_repair_for": ("bipan.pdt", "plan_repair_for"),
}

PLANNERS = ("plan.assembly_recipe", "plan.full_disassembly", "plan.disassembly_to", "plan.repair_plan")


def _bipan_modules():
    return [m for name, m in list(sys.modules.items()) if name == "bipan" or name.startswith("bipan.")]


class Tracer:
    """Spans and counters for one traced pass; ``install`` and ``uninstall`` bracket it."""

    def __init__(self, alloc_only: bool = False) -> None:
        self.alloc_only = alloc_only
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.unobserved: set[str] = set()
        self._seen: dict[str, dict[int, object]] = {"validate": {}, "digest": {}}
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        targets = {"execute.run": TARGETS["execute.run"]} if self.alloc_only else TARGETS
        for name, (module_name, attr) in targets.items():
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(method) if isinstance(owner, type) else getattr(owner, method, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._alloc_wrapper(original) if self.alloc_only else self._wrapper(name, original)
            if isinstance(owner, type):
                self._patch(owner, method, original, wrapper)
                continue
            for mod in _bipan_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner: object, key: str, original: object, wrapper: object) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def merge(self, child: dict) -> None:
        """Add the spans and counts a traced child process wrote, as part of this request."""
        offset = len(self.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, self.request))
        for key, value in child["counts"].items():
            self.counts[key] += value

    def begin_request(self, index: int) -> None:
        self.request = index
        for seen in self._seen.values():
            seen.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observer(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, TypeError, IndexError):  # the result's shape changed
                    self.unobserved.add(name)
            return result

        return update_wrapper(traced, fn)

    def _alloc_wrapper(self, fn):
        counts = self.counts

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                counts["execute.peak_alloc_bytes"] = max(counts["execute.peak_alloc_bytes"], peak)

        return update_wrapper(measured, fn)

    def _observer(self, name: str):
        counts = self.counts
        if name in ("io.load_model", "io.load_plan", "io.load_instance"):
            return lambda args, result: counts.__setitem__("io.bytes_in", counts["io.bytes_in"] + len(args[0]))
        if name in ("io.save_model", "io.save_plan", "io.save_instance"):
            return lambda args, result: counts.__setitem__("io.bytes_out", counts["io.bytes_out"] + len(result))
        if name in PLANNERS:
            return lambda args, result: counts.__setitem__(
                "plan.steps_emitted", counts["plan.steps_emitted"] + len(result.steps))
        if name == "execute.run":
            return lambda args, result: counts.__setitem__(
                "execute.steps_applied", counts["execute.steps_applied"] + len(result.entries))
        if name == "model.spine":
            return lambda args, result: counts.__setitem__(
                "model.spine_longest", max(counts["model.spine_longest"], len(result)))
        if name == "io.read_instance_file":
            return lambda args, result: counts.__setitem__(
                "pdt.events_read", counts["pdt.events_read"] + len(result.events))
        if name in ("validate.validate", "canon.model_digest"):
            key = name.split(".")[0] if name.startswith("validate") else "digest"
            seen = self._seen[key]

            def repeat(args, result):
                model = args[0]
                if id(model) in seen:
                    counts[f"{key}.repeats"] += 1
                seen[id(model)] = model  # held so the id is not reused within the request

            return repeat
        return None

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total`` seconds, and ``self`` seconds."""
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total": 0.0, "self": 0.0} for name in TARGETS
        }
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[idx]
        return out

    def dump(self, path, origin: float) -> None:
        """Write spans as JSON lines: name, start and end in microseconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                row = [name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent, request]
                handle.write(json.dumps(row) + "\n")
