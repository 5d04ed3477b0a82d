"""Bidirectional product-process-resource networks.

Build and validate graphs tying products, processes and resource skills
together; extract assembly, disassembly and repair plans from the one model;
replay plans against an inventory oracle; and keep per-instance product twins
that drive repair planning.

Each submodule but ``cli`` and ``fixtures`` is registered in ``sys.modules``
and bound on the package unloaded, and its code runs on its first attribute
access, so a command loads only the modules it uses. ``bipan.<name>`` is
always the submodule; ``import bipan.<name>`` loads it at once.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from bipan.errors import BiPanError

__version__ = "0.1.0"
_LAZY = ("canon", "exchange", "execute", "io", "model", "pdt", "plan", "validate")
__all__ = ["BiPanError", *_LAZY]

for _name in _LAZY:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
