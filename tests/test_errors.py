"""The error-code table: the package raises only its codes, uses all of them, and the README
agrees; and a code names a fault class, not the caller or the format."""

import json
import re
from pathlib import Path

import pytest

from bipan import exchange, io
from bipan.errors import EXIT_CODES, BiPanError
from bipan.execute import ExecState, run
from bipan.model import (
    BiPanModel,
    Direction,
    FlowRole,
    Plan,
    PlanStep,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
)
from bipan.pdt import Event, Health, PdtInstance
from test_aml import caex

ROOT = Path(__file__).resolve().parents[1]
_RAISED = re.compile(r'BiPanError\(\s*"([^"]*)"')
_PRINTED = re.compile(r"error: ([a-z0-9-]+):")


def codes_in_source() -> set[str]:
    """Every ``BiPanError("<code>"`` literal and printed ``error: <code>:`` under src/bipan."""
    used: set[str] = set()
    for path in (ROOT / "src" / "bipan").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        used.update(_RAISED.findall(text), _PRINTED.findall(text))
    return used


def test_every_code_in_source_is_in_the_table():
    assert codes_in_source() - EXIT_CODES.keys() == set()


def test_every_code_in_the_table_is_used():
    assert EXIT_CODES.keys() - codes_in_source() == set()


def test_exit_codes_are_1_2_or_3():
    assert set(EXIT_CODES.values()) == {1, 2, 3}


def test_unknown_code_is_rejected():
    with pytest.raises(ValueError):
        BiPanError("no-such-code", "detail")


def test_readme_table_matches():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Error codes", 1)[1]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (\d) \|", section, re.MULTILINE)
    assert len(rows) == len(EXIT_CODES)
    assert {code: int(exit_code) for code, exit_code in rows} == EXIT_CODES


# -- one code per fault class ----------------------------------------------------------

A, P = ProductNode("a", "A", ProductKind.FINAL), ProcessNode("p", "P")
PRODUCT = {"id": "a", "kind": "Final"}


def model_doc(products=(PRODUCT,), **fields):
    doc = {"id": "m", "products": list(products), "processes": [{"id": "p"}], **fields}
    return lambda: io.load_model(json.dumps(doc).encode())


def product_doc(**fields):
    return model_doc([{**PRODUCT, **fields}])


def twin_doc(**fields):
    doc = {"instance_id": "V", "model_id": "m", "model_digest": "d", "health": {}, **fields}
    return lambda: io.load_instance(json.dumps(doc).encode())


def aml(body: str, root: str = "CAEXFile"):
    data = caex(body, root)
    return lambda: exchange.import_aml(data)


def caex_position(x: str, y: str | None = "0") -> str:
    axes = "".join(f'<Attribute Name="{axis}"><Value>{value}</Value></Attribute>'
                   for axis, value in (("x", x), ("y", y), ("z", "0")) if value is not None)
    return f'<InternalElement ID="a"><Attribute Name="Position">{axes}</Attribute></InternalElement>'


def overlay_and_replay():
    """A step that claims an output its process lacks, drawn and replayed."""
    model = BiPanModel("m", (A, ProductNode("b", "B", ProductKind.ELEMENTARY)), (P,),
                       flows=(("b", "p", FlowRole.INPUT),))
    plan = Plan("m", model.digest, (PlanStep("p", Direction.FORWARD, ["b"], ["a"], []),))
    return (lambda: exchange.export_dot(model, plan),
            lambda: run(plan, ExecState({"b"}), model))


#: A fault, its one code, and two ways to meet it: a Python caller building the records
#: (or, for a CAEX fault, the CAEX file) and a JSON document holding the same fault.
SAME_FAULT = {
    "kind": ("parse-error", lambda: ProductNode("a", "A", "Final"), product_doc(kind="Finale")),
    "role": ("parse-error", lambda: BiPanModel("m", (A,), (P,), flows=(("a", "p", "Input"),)),
             model_doc(flows=[{"product": "a", "process": "p", "role": "In"}])),
    "flow-row": ("parse-error", lambda: BiPanModel("m", (A,), (P,), flows=(("a", "p"),)),
                 model_doc(flows=[["a", "p", "Input"]])),
    "skill-edge-row": ("parse-error", lambda: BiPanModel("m", (A,), (P,), skill_edges=(("p",),)),
                       model_doc(skill_edges=[["p", "s"]])),
    "health": ("parse-error", lambda: PdtInstance("V", "m", "d", {"a": "Ok"}),
               twin_doc(health={"a": "Fine"})),
    "node-id": ("parse-error", lambda: ProductNode(5, "A", ProductKind.FINAL), product_doc(id=5)),
    "edge-id": ("parse-error",
                lambda: BiPanModel("m", (A,), (P,), flows=((5, "p", FlowRole.INPUT),)),
                model_doc(flows=[{"product": 5, "process": "p", "role": "Input"}])),
    "component-id": ("parse-error", lambda: PdtInstance("V", "m", "d", {5: Health.OK}),
                     twin_doc(instance_id=5)),
    "timestamp": ("parse-error", lambda: Event(5, "k"),
                  twin_doc(events=[{"timestamp": 5, "kind": "k"}])),
    "swap-step": ("parse-error", lambda: PlanStep("p", Direction.SWAP, ["a", "b"], ["c"], []),
                  lambda: io.load_plan(json.dumps({"model_id": "m", "model_digest": "d", "steps": [
                      {"process": "p", "direction": "Swap", "consumed": ["a", "b"],
                       "produced": ["c"], "required_skills": [], "swap_target": "c",
                       "swap_replacement": "a"}]}).encode())),
    "label": ("parse-error", lambda: ProductNode("a", None, ProductKind.FINAL),
              product_doc(label=None)),
    "type-ref": ("parse-error", lambda: ProductNode("a", "A", ProductKind.FINAL, type_ref=7),
                 product_doc(type_ref=7)),
    "attribute-value": ("parse-error",
                        lambda: ProductNode("a", "A", ProductKind.FINAL, attributes={"k": 5}),
                        product_doc(attributes={"k": 5})),
    "process-label": ("parse-error", lambda: ProcessNode("p", 5),
                      model_doc(processes=[{"id": "p", "label": 5}])),
    "skill-label": ("parse-error", lambda: SkillNode("s", None),
                    model_doc(skills=[{"id": "s", "label": None}])),
    "model-id": ("parse-error", lambda: BiPanModel(5), model_doc(id=5)),
    "state-id": ("parse-error", lambda: ExecState({5, "a"}),
                 lambda: io.load_state(b'{"present": [5, "a"]}')),
    "substitution": ("parse-error", lambda: ExecState({"a"}, {"b": 5}),
                     lambda: io.load_state(b'{"present": ["a"], "substitutions": {"b": 5}}')),
    "caex-xml": ("parse-error", aml("<oops>"), lambda: io.load_model(b"{")),
    "caex-root": ("parse-error", aml("", root="NotCaex"), lambda: io.load_model(b"[]")),
    "caex-element-id": ("parse-error", aml('<InternalElement Name="A"/>'),
                        model_doc([{"kind": "Final"}])),
    "caex-kind": ("parse-error", aml('<InternalElement ID="a"><Attribute Name="BiPanKind">'
                                     "<Value>Widget</Value></Attribute></InternalElement>"),
                  product_doc(kind="Widget")),
    "caex-attribute-name": ("parse-error", aml('<InternalElement ID="a"><Attribute/>'
                                               "</InternalElement>"),
                            lambda: ProductNode("a", "A", ProductKind.FINAL, attributes={5: ""})),
    "caex-position-axis": ("invalid-position", aml(caex_position("0", None)),
                           product_doc(position=[0, 0])),
    "caex-position-number": ("invalid-position", aml(caex_position("three")),
                             product_doc(position=["three", 0, 0])),
    "overlay": ("step-mismatch", *overlay_and_replay()),
}


@pytest.mark.parametrize("code, caller, document", SAME_FAULT.values(), ids=SAME_FAULT)
def test_one_fault_gets_one_code_whoever_builds_it(code, caller, document):
    codes = []
    for build in (caller, document):
        with pytest.raises(BiPanError) as err:
            build()
        codes.append(err.value.code)
    assert codes == [code, code]
