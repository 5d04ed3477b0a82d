"""The value contract every record keeps: equality, hashing, repr, pickling, copying, freezing."""

import copy
import dataclasses
import pickle

import pytest

from bipan import io
from bipan.errors import BiPanError
from bipan.exchange import AmlFragment
from bipan.execute import ExecState, Trace
from bipan.model import (
    BiPanModel,
    FastensLink,
    FlowEdge,
    FlowRole,
    FrozenMap,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillEdge,
    SkillNode,
    replace,
)
from bipan.pdt import Event, Health, PdtInstance
from bipan.plan import Direction, Plan, PlanStep
from bipan.validate import Diagnostic, Diagnostics


def node():
    return ProductNode("s", "S", ProductKind.FASTENER, "screw-set", (1, 2, 3), {"skill": "bolt"})


def model():
    return BiPanModel(
        "m",
        (ProductNode("a", "A", ProductKind.ELEMENTARY), ProductNode("f", "F", ProductKind.FINAL)),
        (ProcessNode("p", "P"),),
        (SkillNode("k", "K"),),
        (FlowEdge("a", "p", FlowRole.INPUT), FlowEdge("f", "p", FlowRole.OUTPUT)),
        (SkillEdge("p", "k"),),
    )


def step():
    return PlanStep("p", Direction.FORWARD, ("a",), ("f",), ("K",))


def state():
    return ExecState(frozenset({"a"}), {"a": "b"})


def event():
    return Event("2024-05-01T10:00:00Z", "note", {"k": "v"})


def diagnostic():
    return Diagnostic("V009", ("p",), "a warning")


_NODE = (
    "ProductNode(id='s', label='S', kind=<ProductKind.FASTENER: 'Fastener'>, type_ref='screw-set', "
    "position=(1.0, 2.0, 3.0), attributes={'skill': 'bolt'})"
)
_MODEL = (
    "BiPanModel(id='m', products=(ProductNode(id='a', label='A', kind=<ProductKind.ELEMENTARY: "
    "'Elementary'>, type_ref=None, position=None, attributes={}), ProductNode(id='f', label='F', "
    "kind=<ProductKind.FINAL: 'Final'>, type_ref=None, position=None, attributes={})), "
    "processes=(ProcessNode(id='p', label='P'),), skills=(SkillNode(id='k', label='K'),), "
    "flows=(FlowEdge(product='a', process='p', role=<FlowRole.INPUT: 'Input'>), "
    "FlowEdge(product='f', process='p', role=<FlowRole.OUTPUT: 'Output'>)), "
    "skill_edges=(SkillEdge(process='p', skill='k'),), fastens=())"
)
_STEP = (
    "PlanStep(process='p', direction=<Direction.FORWARD: 'Forward'>, consumed=('a',), "
    "produced=('f',), required_skills=('K',))"
)
_STATE = "ExecState(present=frozenset({'a'}), substitutions={'a': 'b'})"
_EVENT = "Event(timestamp='2024-05-01T10:00:00Z', kind='note', payload={'k': 'v'})"
_DIAGNOSTIC = "Diagnostic(code='V009', nodes=('p',), message='a warning')"

#: A builder of one instance of each record class, and that instance's ``repr``,
#: recorded when the records were still frozen dataclasses. A ``PlanStep``'s swap
#: ids are not fields: it reads them from its lists.
RECORDS = {
    ProductNode: (node, _NODE),
    ProcessNode: (lambda: ProcessNode("p", "P"), "ProcessNode(id='p', label='P')"),
    SkillNode: (lambda: SkillNode("k", "K"), "SkillNode(id='k', label='K')"),
    FlowEdge: (
        lambda: FlowEdge("a", "p", FlowRole.INPUT),
        "FlowEdge(product='a', process='p', role=<FlowRole.INPUT: 'Input'>)",
    ),
    SkillEdge: (lambda: SkillEdge("p", "k"), "SkillEdge(process='p', skill='k')"),
    FastensLink: (
        lambda: FastensLink("s", frozenset({"a"})),
        "FastensLink(fastener='s', secures=frozenset({'a'}))",
    ),
    BiPanModel: (model, _MODEL),
    Diagnostic: (diagnostic, _DIAGNOSTIC),
    Diagnostics: (lambda: Diagnostics((diagnostic(),)), f"Diagnostics(items=({_DIAGNOSTIC},))"),
    PlanStep: (step, _STEP),
    Plan: (
        lambda: Plan("m", "d", (step(),)), f"Plan(model_id='m', model_digest='d', steps=({_STEP},))"
    ),
    ExecState: (state, _STATE),
    Trace: (
        lambda: Trace(state(), (step(),), ExecState(frozenset({"f"}))),
        f"Trace(initial={_STATE}, steps=({_STEP},), "
        "final=ExecState(present=frozenset({'f'}), substitutions={}))",
    ),
    Event: (event, _EVENT),
    PdtInstance: (
        lambda: PdtInstance("VIN-1", "m", "d", {"a": Health.OK}, (event(),)),
        "PdtInstance(instance_id='VIN-1', model_id='m', model_digest='d', "
        f"health={{'a': <Health.OK: 'Ok'>}}, events=({_EVENT},))",
    ),
    AmlFragment: (
        lambda: AmlFragment((node(),), frozenset({"s"})),
        f"AmlFragment(products=({_NODE},), explicit_kinds=frozenset({{'s'}}))",
    ),
}

#: The read-only mappings each record holds, by field; a model's are its adjacency maps.
MAPPINGS = {
    ProductNode: "attributes",
    ExecState: "substitutions",
    Event: "payload",
    PdtInstance: "health",
    BiPanModel: "adjacency",
}

#: Per record, a mapping field and another value for it.
CHANGED_MAPS = {
    ProductNode: ("attributes", {"skill": "welding"}),
    ExecState: ("substitutions", {}),
    Event: ("payload", {"k": "w"}),
    PdtInstance: ("health", {"a": Health.BROKEN}),
}

#: A change to a record that its checks refuse, and the code they refuse it with.
REFUSED = [
    (ProductNode, {"id": "a b"}, "invalid-id"),
    (ProductNode, {"kind": "Elementary"}, "invalid-kind"),
    (ProductNode, {"position": (1, 2)}, "invalid-position"),
    (ProcessNode, {"id": "a b"}, "invalid-id"),
    (SkillNode, {"id": ""}, "invalid-id"),
    (FlowEdge, {"role": "Input"}, "invalid-role"),
    (FastensLink, {"secures": [["a"]]}, "invalid-id"),
    (BiPanModel, {"skills": (SkillNode("k", "K"), SkillNode("k", "L"))}, "duplicate-id"),
    (BiPanModel, {"flows": (FlowEdge("b", "p", FlowRole.INPUT),)}, "dangling-reference"),
    (Event, {"timestamp": "2024-05-01T10:00:00+02:00"}, "invalid-timestamp"),
    (PlanStep, {"direction": Direction.SWAP, "consumed": ()}, "malformed-step"),
    (PdtInstance, {"instance_id": ""}, "invalid-id"),
    (PdtInstance, {"events": (event(), replace(event(), timestamp="2024-04-01T10:00:00Z"))},
     "time-regression"),
]

#: Per record, the fields that hold sequences or sets.
SEQUENCES = {
    PlanStep: ("consumed", "produced", "required_skills"),
    Plan: ("steps",),
    Trace: ("steps",),
    PdtInstance: ("events",),
    Diagnostic: ("nodes",),
    Diagnostics: ("items",),
    AmlFragment: ("products", "explicit_kinds"),
}

#: The writer and reader of each record that has a native document.
DOCUMENTS = {Plan: (io.save_plan, io.load_plan), PdtInstance: (io.save_instance, io.load_instance)}

COPIES = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

classes = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def build(cls):
    return RECORDS[cls][0]()


def frozen_maps(record):
    value = getattr(record, MAPPINGS[type(record)])
    return value if type(record) is BiPanModel else (value,)


@classes
def test_equal_instances_hash_equal(cls):
    one, two = build(cls), build(cls)
    assert one is not two and one == two and not one != two
    assert hash(one) == hash(two) and len({one, two}) == 1


@classes
def test_records_of_other_classes_differ(cls):
    record = build(cls)
    assert all(record != build(other) for other in RECORDS if other is not cls)
    assert record != object() and record != repr(record)


def test_every_field_counts_for_equality_and_hash():
    """Changing a record's map changes equality; equal records, maps and all, hash equal."""
    for cls, (name, other) in CHANGED_MAPS.items():
        record = build(cls)
        changed = replace(record, **{name: other})
        assert changed != record and type(getattr(changed, name)) is FrozenMap
        back = replace(changed, **{name: dict(getattr(record, name))})
        assert back == record and hash(back) == hash(record)


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=list(COPIES))
@classes
def test_copies_are_equal_and_keep_frozen_maps(cls, copy_of):
    record = build(cls)
    copied = copy_of(record)
    assert type(copied) is cls and copied == record and hash(copied) == hash(record)
    if cls in MAPPINGS:
        for mapping, original in zip(frozen_maps(copied), frozen_maps(record)):
            assert type(mapping) is FrozenMap and mapping == original


@classes
def test_assignment_raises(cls):
    record = build(cls)
    name = cls.__slots__[0]
    before = getattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, "other")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.no_such_field = 1
    assert getattr(record, name) is before and not hasattr(record, "no_such_field")


@classes
def test_replace_builds_an_equal_copy(cls):
    record = build(cls)
    copied = replace(record)
    assert copied is not record and copied == record
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)


@pytest.mark.parametrize(
    "cls,changes,code", REFUSED, ids=[f"{cls.__name__}-{code}" for cls, _, code in REFUSED]
)
def test_replace_reruns_the_checks(cls, changes, code):
    with pytest.raises(BiPanError) as err:
        replace(build(cls), **changes)
    assert err.value.code == code


@pytest.mark.parametrize("cls", SEQUENCES, ids=lambda cls: cls.__name__)
def test_records_freeze_the_sequences_they_are_given(cls):
    """Built from lists and sets, a record equals and hashes as the tuple-built one, stays
    as built when those lists change, and, with a document, loads as it was saved."""
    record = build(cls)
    given = {}
    for name in SEQUENCES[cls]:
        value = getattr(record, name)
        given[name] = set(value) if isinstance(value, frozenset) else list(value)
    built = replace(record, **given)
    assert built == record and hash(built) == hash(record)
    for value in given.values():
        value.clear()
    assert built == record
    if cls in DOCUMENTS:
        save, load = DOCUMENTS[cls]
        assert load(save(built)) == built


@classes
def test_repr_is_unchanged(cls):
    factory, expected = RECORDS[cls]
    assert repr(factory()) == expected

