"""The canonical writers against their oracle, and the rule that canon is the only one.

The byte contract is the UTF-8 of ``json.dumps(value, indent=2, sort_keys=True,
ensure_ascii=False) + "\\n"``. ``canonical_bytes`` is that call itself; its tests
here guard against a custom encoder coming back. ``model_bytes``, ``plan_bytes``,
``twin_bytes``, ``state_bytes``, ``trace_bytes`` and ``events_bytes`` write the
documents that grow with the model or the log straight from their records; the oracle
of the dict built here from the same records holds each of them to the same bytes.
"""

import ast
import hashlib
import json
import math
from datetime import timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import models

from bipan import io
from bipan.canon import (
    canonical_bytes,
    events_bytes,
    model_bytes,
    plan_bytes,
    state_bytes,
    trace_bytes,
    twin_bytes,
)
from bipan.execute import ExecState, Trace, initial_inventory, run
from bipan.model import (
    COMPONENT_KINDS,
    BiPanModel,
    FastensLink,
    FlowEdge,
    FlowRole,
    ProcessNode,
    ProductKind,
    ProductNode,
)
from bipan.pdt import Event, Health, PdtInstance
from bipan.plan import (
    Direction,
    DisassemblyMode,
    Plan,
    PlanStep,
    assembly_recipe,
    disassembly_to,
    full_disassembly,
    repair_plan,
)

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


def model_doc(model: BiPanModel) -> dict:
    """The model document as a dict, field by field from the records: the reference."""

    def product(node: ProductNode) -> dict:
        entry = {"id": node.id, "kind": node.kind.value, "label": node.label}
        if node.type_ref is not None:
            entry["type_ref"] = node.type_ref
        if node.position is not None:
            entry["position"] = list(node.position)
        if node.attributes:
            entry["attributes"] = dict(node.attributes)
        return entry

    return {
        "id": model.id,
        "products": [product(p) for p in model.products],
        "processes": [{"id": p.id, "label": p.label} for p in model.processes],
        "skills": [{"id": s.id, "label": s.label} for s in model.skills],
        "flows": [
            {"process": f.process, "product": f.product, "role": f.role.value} for f in model.flows
        ],
        "skill_edges": [{"process": e.process, "skill": e.skill} for e in model.skill_edges],
        "fastens": [{"fastener": l.fastener, "secures": sorted(l.secures)} for l in model.fastens],
    }


def plan_doc(plan: Plan) -> dict:
    """The plan document as a dict, field by field from the steps: the reference."""
    steps = []
    for step in plan.steps:
        entry = {
            "consumed": list(step.consumed),
            "direction": step.direction.value,
            "process": step.process,
            "produced": list(step.produced),
            "required_skills": list(step.required_skills),
        }
        if step.direction is Direction.SWAP:
            entry["swap_replacement"] = step.swap_replacement
            entry["swap_target"] = step.swap_target
        steps.append(entry)
    return {"model_digest": plan.model_digest, "model_id": plan.model_id, "steps": steps}


def every_plan(model: BiPanModel):
    """Each planner's plans for ``model``: assembly, full and partial disassembly, repair."""
    yield assembly_recipe(model)
    yield full_disassembly(model)
    for product in model.products:
        if product.kind is not ProductKind.FINAL:
            for mode in DisassemblyMode:
                yield disassembly_to(model, product.id, mode)
    components = [p.id for p in model.products if p.kind in COMPONENT_KINDS]
    broken = components[: max(1, len(components) // 3)]
    yield repair_plan(model, broken, {b: f"{b}.new" for b in broken})


@given(models())
def test_model_and_plan_bytes_equal_the_oracle_of_their_records(model):
    assert model_bytes(model) == oracle(model_doc(model))
    assert model.digest == hashlib.sha256(io.save_model(model)).hexdigest()
    for plan in every_plan(model):
        assert plan_bytes(plan) == oracle(plan_doc(plan))


FLOATS = st.floats() | st.sampled_from([x for x in EDGE_NUMBERS if type(x) is float])
PRODUCTS = st.builds(
    ProductNode,
    id=st.just("p"),
    label=TEXT,
    kind=st.sampled_from(ProductKind),
    type_ref=st.none() | TEXT,
    position=st.none() | st.tuples(FLOATS, FLOATS, FLOATS),
    attributes=st.dictionaries(TEXT, TEXT, max_size=4),
)


@settings(max_examples=200)
@given(TEXT, PRODUCTS)
def test_tricky_product_bytes_equal_the_oracle(model_id, product):
    model = BiPanModel(model_id, (product,))
    assert model_bytes(model) == oracle(model_doc(model))


TEXTS = st.lists(TEXT, max_size=3)


def plans():
    """Plans of tricky text, their lists drawn as lists; a swap consumes one id and produces one."""

    def steps(direction):
        ids = st.lists(TEXT, min_size=1, max_size=1) if direction is Direction.SWAP else TEXTS
        return st.builds(PlanStep, process=TEXT, direction=st.just(direction), consumed=ids,
                         produced=ids, required_skills=TEXTS)

    step_lists = st.lists(st.sampled_from(Direction).flatmap(steps), max_size=3)
    return st.builds(Plan, model_id=TEXT, model_digest=TEXT, steps=step_lists)


@settings(max_examples=200)
@given(plans())
def test_tricky_plan_bytes_equal_the_oracle(plan):
    assert plan_bytes(plan) == oracle(plan_doc(plan))


@settings(max_examples=200)
@given(plans())
def test_tricky_plans_load_as_they_were_saved(plan):
    """A plan's document holds every field of its steps, so it loads back to an equal plan."""
    assert io.load_plan(io.save_plan(plan)) == plan


def test_sparse_documents_equal_the_oracle():
    """Empty collections, an empty ``secures`` and a swap step without skills."""
    fastener = ProductNode("f", "F", ProductKind.FASTENER)
    for model in (BiPanModel("m"), BiPanModel("m", (fastener,), fastens=(FastensLink("f", ()),))):
        assert model_bytes(model) == oracle(model_doc(model))
    swap = Plan("m", "d", (PlanStep("p", Direction.SWAP, ("b",), ("a",), ()),))
    for plan in (Plan("m", "", ()), swap):
        assert plan_bytes(plan) == oracle(plan_doc(plan))


def twin_doc(twin: PdtInstance) -> dict:
    """The twin document as a dict, field by field from the record: the reference."""
    return {
        "instance_id": twin.instance_id,
        "model_id": twin.model_id,
        "model_digest": twin.model_digest,
        "health": {component: health.value for component, health in twin.health.items()},
        "events": [
            {"timestamp": e.timestamp, "kind": e.kind, "payload": dict(e.payload)}
            for e in twin.events
        ],
    }


def state_doc(state: ExecState) -> dict:
    """An inventory state as a dict: the reference."""
    return {"present": sorted(state.present), "substitutions": dict(state.substitutions)}


def trace_doc(trace: Trace) -> dict:
    """The trace document as a dict, state by state: the reference."""
    return {
        "initial": state_doc(trace.initial),
        "final": state_doc(trace.final),
        "steps": [{"index": i, "state": state_doc(s)} for i, s in enumerate(trace.entries)],
    }


def every_trace(model: BiPanModel):
    """The replay of each plan of :func:`every_plan`: the assembly from the leaves, every
    other plan from the final product plus its replacements, as ``exec --inventory final``.
    """
    assembly, *others = every_plan(model)
    yield run(assembly, initial_inventory(model), model)
    for plan in others:
        yield run(plan, ExecState({*model.final_products(), *plan.replacement_ids()}), model)


@given(models())
def test_trace_bytes_of_every_replay_equal_the_oracle(model):
    for trace in every_trace(model):
        assert trace_bytes(trace) == oracle(trace_doc(trace))
        assert state_bytes(trace.final) == oracle(state_doc(trace.final))


EVENTS = st.lists(
    st.tuples(
        st.datetimes(timezones=st.just(timezone.utc)),
        st.booleans(),
        TEXT,
        st.dictionaries(TEXT, TEXT, max_size=3),
    ),
    max_size=4,
).map(
    lambda rows: tuple(
        Event(when.isoformat().replace("+00:00", "Z") if zulu else when.isoformat(), kind, payload)
        for when, zulu, kind, payload in sorted(rows, key=lambda row: row[0])
    )
)
TWINS = st.builds(
    PdtInstance,
    instance_id=st.text(alphabet="AZaz09_.-", min_size=1, max_size=6),
    model_id=TEXT,
    model_digest=TEXT,
    health=st.dictionaries(TEXT, st.sampled_from(Health), max_size=5),
    events=EVENTS,
)


@settings(max_examples=200)
@given(TWINS)
def test_tricky_twin_bytes_equal_the_oracle(twin):
    assert twin_bytes(twin) == oracle(twin_doc(twin))
    assert io.save_instance(twin) == twin_bytes(twin)
    assert events_bytes(twin.events) == oracle(twin_doc(twin)["events"])


def swap_site(inputs):
    """A one-process model whose site ``p`` turns ``inputs`` into ``out``.

    A swap there needs only ``out`` present, a target among ``inputs``, and a
    replacement that names none of these nodes.
    """
    return BiPanModel(
        "m",
        (
            *(ProductNode(i, i, ProductKind.ELEMENTARY) for i in inputs),
            ProductNode("out", "Out", ProductKind.FINAL),
        ),
        (ProcessNode("p", "P"),),
        flows=(
            *(FlowEdge(i, "p", FlowRole.INPUT) for i in inputs),
            FlowEdge("out", "p", FlowRole.OUTPUT),
        ),
    )


SWAP_SITE = swap_site(("in",))
NODE_IDS = st.text(alphabet="AZaz09_.-", min_size=1, max_size=6).filter(
    lambda text: text not in ("out", "p")
)
STATES = st.builds(
    ExecState,
    present=st.frozensets(TEXT, max_size=4),
    substitutions=st.dictionaries(TEXT, TEXT, max_size=4),
)


@settings(max_examples=200)
@given(
    STATES,
    st.lists(NODE_IDS, unique=True, max_size=4),
    st.lists(TEXT.filter(lambda text: text not in ("out", "p")), unique=True, max_size=4),
)
def test_tricky_state_and_trace_bytes_equal_the_oracle(state, targets, replacements):
    """A state as drawn, and the replay of hand-built swaps at ``p``, from drawn inputs of
    ``p`` to tricky ids: each swap adds one tricky substitution to the states the trace writes.
    """
    assert state_bytes(state) == oracle(state_doc(state))
    assert io.save_state(state) == state_bytes(state)
    pairs = [(t, r) for t, r in zip(targets, replacements) if r not in targets]
    steps = tuple(
        PlanStep("p", Direction.SWAP, (replacement,), (target,), ())
        for target, replacement in pairs
    )
    start = ExecState({"out", *(replacement for _, replacement in pairs)}, state.substitutions)
    site = swap_site(targets)
    trace = run(Plan("m", site.digest, steps), start, site)
    assert trace_bytes(trace) == oracle(trace_doc(trace))


def test_sparse_twins_states_and_traces_equal_the_oracle():
    """Empty events, health, payloads, states and traces, and a health map of every value."""
    empty = PdtInstance("V", "m", "", {})
    every_health = PdtInstance(
        "V", "m", "d", {health.name: health for health in Health},
        (Event("2024-05-01T10:00:00Z", "", {}), Event("2024-05-01T10:00:00+00:00", "k", {})),
    )
    for twin in (empty, every_health):
        assert twin_bytes(twin) == oracle(twin_doc(twin))
        assert events_bytes(twin.events) == oracle(twin_doc(twin)["events"])
    assert b'"health": {}' in twin_bytes(empty) and b'"payload": {}' in twin_bytes(every_health)
    state = ExecState(frozenset())
    assert state_bytes(state) == oracle(state_doc(state))
    trace = run(Plan("m", SWAP_SITE.digest, ()), state, SWAP_SITE)
    assert trace_bytes(trace) == oracle(trace_doc(trace))


def _json_dumps_keywords(tree: ast.AST):
    """The keyword names of every ``json.dumps(...)`` or bare ``dumps(...)`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps":
                yield node.lineno, {kw.arg for kw in node.keywords}


def _names(tree: ast.AST):
    """Each name ``tree`` imports, reads or takes as an attribute, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_only_canon_formats_documents():
    """Every payload goes through ``canon``: no module outside ``canon.py`` calls
    ``json.dumps`` with ``indent`` or ``sort_keys``, or uses ``json``'s string
    escaper ``encode_basestring`` to write JSON text of its own.
    """
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "canon.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, keywords in _json_dumps_keywords(tree):
            if keywords & {"indent", "sort_keys"}:
                offenders.append(f"{path.name}:{line}")
        for line, name in _names(tree):
            if name.startswith("encode_basestring"):
                offenders.append(f"{path.name}:{line}")
    assert offenders == []
