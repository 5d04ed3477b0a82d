"""Single exception type for the package; every failure carries a stable kebab-case code.

A code names a fault class, not the caller or the format: a value of the wrong type or shape
is ``parse-error`` from a document or a Python caller, and CAEX gets a JSON document's codes.
"""

from __future__ import annotations

from collections.abc import Sequence

#: Every error code and the CLI exit code it maps to: 1 for a result the user
#: asked about (invalid model, infeasible plan, nothing to repair), 2 for usage
#: and input errors, 3 for runtime failures.
EXIT_CODES: dict[str, int] = {
    "broken-kind-not-replaceable": 2,
    "dangling-reference": 2,
    "detached-node": 2,
    "duplicate-id": 2,
    "invalid-id": 2,
    "invalid-position": 2,
    "invalid-timestamp": 2,
    "kind-conflict": 2,
    "label-conflict": 2,
    "missing-replacement": 2,
    "parse-error": 2,
    "replacement-exists": 2,
    "target-is-final": 2,
    "time-regression": 2,
    "unknown-component": 2,
    "unknown-node": 2,
    "unreadable": 2,
    "usage": 2,
    "infeasible": 1,
    "invalid-model": 1,
    "nothing-broken": 1,
    "digest-mismatch": 3,
    "double-produce": 3,
    "instance-mismatch": 3,
    "io-error": 3,
    "missing-input": 3,
    "out-of-memory": 3,
    "step-mismatch": 3,
    "unknown-process": 3,
}


class BiPanError(Exception):
    """Contract violation with a machine-readable ``code`` and human ``detail``.

    ``code`` must be a key of :data:`EXIT_CODES`. ``nodes`` optionally names the
    graph nodes involved, in deterministic order.
    """

    def __init__(self, code: str, detail: str, nodes: Sequence[str] = ()) -> None:
        if code not in EXIT_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.nodes = tuple(nodes)
