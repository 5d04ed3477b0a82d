"""Bidirectional product-process-resource networks.

Build and validate graphs tying products, processes and resource skills
together; extract assembly, disassembly and repair plans from the one model;
replay plans against an inventory oracle; and keep per-instance product twins
that drive repair planning.
"""

from bipan.errors import BiPanError
from bipan.execute import ExecState, Trace, apply_step, initial_inventory, run
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
from bipan.pdt import Health, PdtInstance, create_instance, plan_repair_for, set_health
from bipan.plan import (
    Direction,
    DisassemblyMode,
    FeasibilityReport,
    Plan,
    PlanStep,
    Resource,
    ResourceRegistry,
    assembly_recipe,
    check_feasibility,
    disassembly_to,
    full_disassembly,
    repair_plan,
)
from bipan.validate import Diagnostic, Diagnostics, Severity, validate

__version__ = "0.1.0"

__all__ = [
    "BiPanError",
    "BiPanModel",
    "Diagnostic",
    "Diagnostics",
    "Direction",
    "DisassemblyMode",
    "ExecState",
    "FastensLink",
    "FeasibilityReport",
    "FlowEdge",
    "FlowRole",
    "Health",
    "PdtInstance",
    "Plan",
    "PlanStep",
    "ProcessNode",
    "ProductKind",
    "ProductNode",
    "Resource",
    "ResourceRegistry",
    "Severity",
    "SkillEdge",
    "SkillNode",
    "Trace",
    "apply_step",
    "assembly_recipe",
    "check_feasibility",
    "create_instance",
    "disassembly_to",
    "full_disassembly",
    "initial_inventory",
    "plan_repair_for",
    "repair_plan",
    "run",
    "set_health",
    "validate",
]
