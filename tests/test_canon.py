"""The canonical encoder against its oracle, and the rule that it is the only one.

``canonical_bytes`` must emit exactly the UTF-8 of ``json.dumps(value, indent=2,
sort_keys=True, ensure_ascii=False) + "\\n"``. That call is slow in CPython (it
runs the pure-Python encoder), so it is kept here as the oracle only.
"""

import ast
import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bipan.canon import canonical_bytes

SRC = Path(__file__).resolve().parents[1] / "src" / "bipan"

# Text biased towards what JSON must escape: quotes, backslashes, control
# characters, and the non-ASCII text that ensure_ascii=False leaves as is.
TRICKY = '"\\/\x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f\x80é  €\U0001f600 az'
TEXT = st.text() | st.text(alphabet=TRICKY)
EDGE_NUMBERS = [
    -0.0, 0.0, 1e16, 1e-7, 1.5e300, 5e-324, math.nan, math.inf, -math.inf,
    10**400, -(10**400), 2**63, -(2**63) - 1,
]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**500), max_value=10**500)
    | st.floats()
    | st.sampled_from(EDGE_NUMBERS)
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=24,
)


def oracle(value) -> bytes:
    return (json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


@settings(max_examples=300)
@given(VALUES)
def test_bytes_equal_the_json_oracle(value):
    assert canonical_bytes(value) == oracle(value)


def test_edge_values_equal_the_json_oracle():
    cases = [
        {}, [], (), "", {"": {}}, [[], {}, ()], ("a", ("b", 1)), {"b": 1, "a": [True, False, None]},
        EDGE_NUMBERS, {"x": EDGE_NUMBERS}, TRICKY, {TRICKY: TRICKY}, [[[["deep"]]]],
    ]
    for value in cases:
        assert canonical_bytes(value) == oracle(value), value


def _json_dumps_keywords(tree: ast.AST):
    """The keyword names of every ``json.dumps(...)`` or bare ``dumps(...)`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps":
                yield node.lineno, {kw.arg for kw in node.keywords}


def test_only_canon_formats_documents():
    """Every payload goes through ``canonical_bytes``: no module outside ``canon.py``
    calls ``json.dumps`` with ``indent`` or ``sort_keys``.
    """
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "canon.py":
            continue
        for line, keywords in _json_dumps_keywords(ast.parse(path.read_text(encoding="utf-8"))):
            if keywords & {"indent", "sort_keys"}:
                offenders.append(f"{path.name}:{line}")
    assert offenders == []
