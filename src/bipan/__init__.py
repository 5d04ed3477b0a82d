"""Bidirectional product-process-resource networks.

Build and validate graphs tying products, processes and resource skills
together; extract assembly, disassembly and repair plans from the one model;
replay plans against an inventory oracle; and keep per-instance product twins
that drive repair planning.

Each submodule but ``cli`` and ``fixtures`` is registered in ``sys.modules``
unloaded, and its code runs on its first attribute access, so a command loads
only the modules it uses. ``import bipan.<module>`` loads one at once.
"""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

from bipan.errors import BiPanError

__version__ = "0.1.0"

#: Each re-exported name, by the submodule that defines it.
_EXPORTS = {
    "execute": "ExecState Trace apply_step initial_inventory run",
    "model": "BiPanModel FastensLink FlowEdge FlowRole ProcessNode ProductKind ProductNode "
    "SkillEdge SkillNode",
    "pdt": "Health PdtInstance create_instance plan_repair_for set_health",
    "plan": "Direction DisassemblyMode Plan PlanStep assembly_recipe check_feasibility "
    "disassembly_to full_disassembly repair_plan",
    "validate": "Diagnostic Diagnostics Severity validate",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_LAZY = ("canon", "execute", "io", "model", "pdt", "plan", "validate")

for _name in _LAZY:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec

__all__ = sorted(["BiPanError", *_HOMES])


def __getattr__(name: str) -> object:
    """A re-exported name, or a lazy submodule: ``bipan.validate`` is the function."""
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _LAZY:
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
