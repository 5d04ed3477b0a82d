"""The CLI error contract under hostile documents, property-tested.

Hypothesis mutates each kind of document the CLI reads (model, plan, twin,
inventory state, registry): it truncates it, nests a value deeply, swaps a
value for one of another type, writes ``NaN``/``Infinity`` or huge numbers,
inserts bytes that are not UTF-8, drops a key, inserts a key into an object, or
puts an odd id in place of a string, some holding line breaks. Whatever the input, ``bipan`` must exit 0, 1,
2 or 3 without an exception escaping ``main``; a failure prints exactly one
``error:`` line, last on stderr, whose code is in the error table and maps to
the exit status.
"""

import contextlib
import io as text_io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipan import canon, io
from bipan.cli import main
from bipan.errors import EXIT_CODES
from bipan.execute import ExecState
from bipan.fixtures import battery_model
from bipan.pdt import Health, create_instance, set_health
from bipan.plan import repair_plan

T0 = "2024-05-01T10:00:00Z"
T1 = "2024-05-01T11:00:00Z"

MODEL = battery_model()
MODEL_BYTES = io.save_model(MODEL)
REPAIR = io.save_plan(repair_plan(MODEL, ["mod8"], {"mod8": "mod8r"}))

# kind -> (valid document, its file name, commands that read it). In a command,
# DOC is the mutated document, MODEL and PLAN the intact model and repair plan,
# DIR the directory holding them.
TARGETS = {
    "model": (
        MODEL_BYTES,
        "m.bipan.json",
        [
            ["validate", "DOC"],
            ["plan", "repair", "DOC", "--broken", "mod8", "--replace", "mod8=mod8r"],
            ["pdt", "new", "VIN-2", "DOC", "--dir", "DIR"],
        ],
    ),
    "plan": (
        REPAIR,
        "p.plan.json",
        [["exec", "DOC", "MODEL", "--inventory", "final"], ["export-dot", "MODEL", "--plan", "DOC"]],
    ),
    "twin": (
        io.save_instance(set_health(create_instance("VIN-1", MODEL), "mod8", Health.BROKEN, T0)),
        "VIN-1.pdt.json",
        [
            ["pdt", "set-health", "VIN-1", "mod7", "broken", "--at", T1, "--dir", "DIR"],
            ["pdt", "log", "VIN-1", "--dir", "DIR"],
            ["pdt", "plan-repair", "VIN-1", "--model", "MODEL", "--replace", "mod8=mod8r",
             "--at", T1, "--dir", "DIR"],
        ],
    ),
    "state": (
        io.save_state(ExecState(frozenset({"battery", "mod8r"}), {})),
        "s.json",
        [["exec", "PLAN", "MODEL", "--inventory", "DOC", "--format", "json"]],
    ),
    "registry": (
        canon.canonical_bytes({"resources": [{"id": "arm", "skills": ["screwing"]}]}),
        "r.json",
        [["plan", "repair", "MODEL", "--broken", "mod8", "--replace", "mod8=mod8r",
          "--registry", "DOC"]],
    ),
}

HOSTILE = [
    "null", "true", "0", "-1", "2.5", "[]", "{}", '""', '"x"', '{"id": "x"}',
    "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "9" * 5000,
    '"../escaped"', '"a/b"', '"VIN 1"', '"a\\nb"', '"a\\r\\nb\\u2028"',
    '"\\u00e9"', '"\\ud800"', '"mod8"', '"VIN-2"',
    '"' + "x" * 10_000 + '"', "[" * 900 + "]" * 900, "[" * 5000 + "]" * 5000,
]
HOLE = "\x00hole\x00"


def value_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from value_paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from value_paths(item, (*path, index))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def with_value(doc, path, new):
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@st.composite
def mutated(draw, data: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "bytes", "drop", "insert", "replace"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + data[at:]
    doc = json.loads(data)
    if how == "insert":
        objects = [path for path in value_paths(doc) if isinstance(value_at(doc, path), dict)]
        key = draw(st.sampled_from(["junk", "prodcts", "colour", ""]) | st.text(max_size=8))
        value_at(doc, draw(st.sampled_from(objects)))[key] = draw(
            st.sampled_from([None, 1, "x", "Ok", [], {}]))
        return json.dumps(doc).encode("utf-8")
    path = draw(st.sampled_from(list(value_paths(doc))))
    if how == "drop":
        if not path:
            return b""
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return json.dumps(doc).encode("utf-8")
    literal = draw(
        st.sampled_from(HOSTILE) | st.text(max_size=20).map(json.dumps) | st.integers().map(str)
    )
    return json.dumps(with_value(doc, path, HOLE)).replace(json.dumps(HOLE), literal).encode("utf-8")


def run(argv: list[str]) -> tuple[int, str]:
    err = text_io.StringIO()
    with contextlib.redirect_stdout(text_io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@pytest.mark.parametrize("kind", sorted(TARGETS))
@given(data=st.data())
def test_contract_holds_for_mutated_documents(kind, data):
    valid, name, commands = TARGETS[kind]
    document = data.draw(mutated(valid), label="document")
    argv = data.draw(st.sampled_from(commands), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        files = {"DOC": name, "MODEL": "f1.bipan.json", "PLAN": "repair.plan.json"}
        (folder / files["MODEL"]).write_bytes(MODEL_BYTES)
        (folder / files["PLAN"]).write_bytes(REPAIR)
        (folder / name).write_bytes(document)
        paths = {key: str(folder / file) for key, file in files.items()}
        status, stderr = run([paths.get(arg, tmp if arg == "DIR" else arg) for arg in argv])
    assert status in (0, 1, 2, 3)
    errors = [line for line in stderr.splitlines() if line.startswith("error: ")]
    if status == 0:
        assert errors == []
    else:
        assert len(errors) == 1, stderr
        assert stderr.splitlines()[-1] == errors[0], stderr
        code = errors[0].split(": ", 2)[1]
        assert EXIT_CODES.get(code) == status, stderr
