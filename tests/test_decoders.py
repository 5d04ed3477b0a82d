"""Single-fault documents of every native kind and the error each one reports.

Each document breaks exactly one rule of its format. The expected code and
detail pin the decoders' messages, so a change to how a document is decoded
cannot silently change what a user is told.
"""

import itertools
import json

import pytest

from bipan import io
from bipan.errors import BiPanError
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

LOADERS = {
    "model": io.load_model,
    "plan": io.load_plan,
    "twin": io.load_instance,
    "state": io.load_state,
    "registry": io.load_registry,
}

SWAP_KEYS = ("steps[0]: swap_replacement and swap_target must be a Swap's one consumed and "
             "one produced id, and null on other steps")

# (kind, document text, code, detail or None)
CORPUS = [
    ('model', '[]',
     'parse-error', 'document must be an object'),
    ('model', '{"id": 5}',
     'parse-error', 'id must be a string'),
    ('model', '{"products": {}}',
     'parse-error', 'products must be an array'),
    ('model', '{"products": [7]}',
     'parse-error', 'products[0] must be an object'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "position": 1}]}',
     'parse-error', 'products[0].position must be an array'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "position": [1, 2]}]}',
     'parse-error', 'products[0].position must be three numbers'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "position": [1, "2", 3]}]}',
     'parse-error', 'products[0].position must be three numbers'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "position": [1, null, 3]}]}',
     'parse-error', 'products[0].position must be three numbers'),
    ('model', '{"id": "m", "products": [{"kind": "Elementary"}]}',
     'parse-error', 'products[0].id must be a string'),
    ('model', '{"id": "m", "products": [{"id": 5, "kind": "Elementary"}]}',
     'parse-error', 'products[0].id must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a/b", "kind": "Elementary"}]}',
     'invalid-id', "node id 'a/b' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": 3}]}',
     'parse-error', 'products[0].label must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": null}]}',
     'parse-error', 'products[0].label must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a", "label": "A"}]}',
     'parse-error', 'products[0].kind must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": 1}]}',
     'parse-error', 'products[0].kind must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Gizmo"}]}',
     'parse-error', "products[0].kind: 'Gizmo' is not one of Elementary, SubProduct, Fastener, Final, Stage"),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "type_ref": 4}]}',
     'parse-error', 'products[0].type_ref must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "attributes": []}]}',
     'parse-error', 'products[0].attributes must be an object'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "attributes": {"k": 1}}]}',
     'parse-error', 'products[0].attributes must map strings to strings'),
    ('model', '{"processes": {}}',
     'parse-error', 'processes must be an array'),
    ('model', '{"processes": [1]}',
     'parse-error', 'processes[0] must be an object'),
    ('model', '{"processes": [{}]}',
     'parse-error', 'processes[0].id must be a string'),
    ('model', '{"processes": [{"id": "p", "label": 1}]}',
     'parse-error', 'processes[0].label must be a string'),
    ('model', '{"processes": [{"id": "p q"}]}',
     'invalid-id', "node id 'p q' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('model', '{"skills": "x"}',
     'parse-error', 'skills must be an array'),
    ('model', '{"skills": [{"id": 1}]}',
     'parse-error', 'skills[0].id must be a string'),
    ('model', '{"flows": [1]}',
     'parse-error', 'flows[0] must be an object'),
    ('model', '{"flows": [{"product": 1, "process": "p", "role": "Input"}]}',
     'parse-error', 'flows[0].product must be a string'),
    ('model', '{"flows": [{"product": "a", "role": "Input"}]}',
     'parse-error', 'flows[0].process must be a string'),
    ('model', '{"flows": [{"product": "a", "process": "p", "role": "Sideways"}]}',
     'parse-error', "flows[0].role: 'Sideways' is not one of Input, Output"),
    ('model', '{"products": [{"id": "a", "kind": "Elementary", "label": "A"}], "flows": [{"product": "a", "process": "p", "role": "Input"}]}',
     'dangling-reference', "flow references unknown process 'p'"),
    # Edge records leave their ids to the model: a document reports its structural
    # faults first, in spec order, then what BiPanModel raises for the same records,
    # the first endpoint that names no node in canonical edge order.
    ('model', '{"products": [{"id": "a", "kind": "Elementary", "label": "A"}], "processes": [{"id": "p"}], "flows": [{"product": "a b", "process": "p", "role": "Input"}]}',
     'invalid-id', "node id 'a b' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('model', '{"processes": [{"id": "p"}], "flows": [{"product": "a", "process": "p/q", "role": "Input"}]}',
     'dangling-reference', "flow references unknown product 'a'"),
    ('model', '{"processes": [{"id": "p"}], "skills": [{"id": "s"}], "skill_edges": [{"process": "p", "skill": "s t"}]}',
     'invalid-id', "node id 's t' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('model', '{"skill_edges": [{"process": "", "skill": "s"}]}',
     'invalid-id', "node id '' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('model', '{"products": [{"id": "a", "kind": "Elementary", "label": "A"}], "fastens": [{"fastener": "a", "secures": ["a", "b c", "d e"]}]}',
     'invalid-id', "node id 'b c' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('model', '{"fastens": [{"fastener": "f f", "secures": ["b c"]}]}',
     'invalid-id', "node id 'f f' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('model', '{"flows": [{"product": "a b", "process": "p", "role": "Sideways"}]}',
     'parse-error', "flows[0].role: 'Sideways' is not one of Input, Output"),
    ('model', '{"flows": [{"product": "a b", "process": 1, "role": "Input"}]}',
     'parse-error', 'flows[0].process must be a string'),
    ('model', '{"flows": [{"product": "a b", "process": "p", "role": "Input"}, {"product": "a", "process": "p", "role": "Sideways"}]}',
     'parse-error', "flows[1].role: 'Sideways' is not one of Input, Output"),
    ('model', '{"products": [{"id": "a", "kind": "Elementary", "label": "A"}, {"id": "a", "kind": "Elementary", "label": "A"}], "flows": [{"product": "a", "process": "p q", "role": "Input"}]}',
     'duplicate-id', "duplicate product id 'a'"),
    ('model', '{"products": [{"id": "a", "kind": "Elementary", "label": "A"}], "flows": [{"product": "a", "process": "p", "role": "Input"}], "skill_edges": [{"process": "p", "skill": "s t"}]}',
     'dangling-reference', "flow references unknown process 'p'"),
    ('model', '{"id": 5, "flows": [{"product": "a b", "process": "p", "role": "Input"}]}',
     'parse-error', 'id must be a string'),
    ('model', '{"skill_edges": [{"process": "p", "skill": 2}]}',
     'parse-error', 'skill_edges[0].skill must be a string'),
    ('model', '{"skill_edges": {}}',
     'parse-error', 'skill_edges must be an array'),
    ('model', '{"fastens": [{"fastener": 1}]}',
     'parse-error', 'fastens[0].fastener must be a string'),
    ('model', '{"fastens": [{"fastener": "a", "secures": "b"}]}',
     'parse-error', 'fastens[0].secures must be an array'),
    ('model', '{"fastens": [{"fastener": "a", "secures": [1]}]}',
     'parse-error', 'fastens[0].secures[0] must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A"}, {"id": "a", "kind": "Elementary", "label": "A"}]}',
     'duplicate-id', "duplicate product id 'a'"),
    ('model', '{"products": [{"id": "a", "kind": "Elementary", "label": "A"}], "processes": [{"id": "a"}]}',
     'duplicate-id', "id 'a' used by both a product and a process"),
    ('model', '{\n  "id": }\n',
     'parse-error', 'line 2, column 9: Expecting value'),
    ('model', '{"id": "m"',
     'parse-error', "line 1, column 11: Expecting ',' delimiter"),
    ('model', '[' * 100_000,
     'parse-error', 'document nests too deeply'),
    ('plan', '[]',
     'parse-error', 'document must be an object'),
    ('plan', '{"steps": {}}',
     'parse-error', 'steps must be an array'),
    ('plan', '{"steps": [1]}',
     'parse-error', 'steps[0] must be an object'),
    ('plan', '{"steps": [{"process": "p"}]}',
     'parse-error', 'steps[0].direction must be a string'),
    ('plan', '{"steps": [{"process": "p", "direction": "Up"}]}',
     'parse-error', "steps[0].direction: 'Up' is not one of Forward, Reverse, Swap"),
    ('plan', '{"steps": [{"process": "p", "direction": "Swap", "swap_target": 1, "swap_replacement": "b"}]}',
     'parse-error', 'steps[0].swap_target must be a string'),
    ('plan', '{"steps": [{"process": "p", "direction": "Swap", "swap_replacement": "b"}]}',
     'parse-error', SWAP_KEYS),
    ('plan', '{"steps": [{"process": "p", "direction": "Swap", "swap_target": "a"}]}',
     'parse-error', SWAP_KEYS),
    ('plan', '{"steps": [{"direction": "Forward"}]}',
     'parse-error', 'steps[0].process must be a string'),
    ('plan', '{"steps": [{"process": "p", "direction": "Forward", "consumed": "x"}]}',
     'parse-error', 'steps[0].consumed must be an array'),
    ('plan', '{"steps": [{"process": "p", "direction": "Forward", "consumed": [1]}]}',
     'parse-error', 'steps[0].consumed[0] must be a string'),
    ('plan', '{"steps": [{"process": "p", "direction": "Forward", "produced": [1]}]}',
     'parse-error', 'steps[0].produced[0] must be a string'),
    ('plan', '{"steps": [{"process": "p", "direction": "Forward", "required_skills": {}}]}',
     'parse-error', 'steps[0].required_skills must be an array'),
    ('plan', '{"steps": [{"process": "p", "direction": "Reverse", "required_skills": [null]}]}',
     'parse-error', 'steps[0].required_skills[0] must be a string'),
    ('plan', '{"model_id": 1}',
     'parse-error', 'model_id must be a string'),
    ('plan', '{"model_digest": []}',
     'parse-error', 'model_digest must be a string'),
    ('twin', '[]',
     'parse-error', 'document must be an object'),
    ('twin', '{"instance_id": "V", "health": []}',
     'parse-error', 'health must be an object'),
    ('twin', '{"instance_id": "V", "health": {"a": 1}}',
     'parse-error', 'health[a] must be a string'),
    ('twin', '{"instance_id": "V", "health": {"a": "Fine"}}',
     'parse-error', "health[a]: 'Fine' is not one of Ok, Degraded, Broken, Unknown"),
    ('twin', '{"instance_id": "V", "events": {}}',
     'parse-error', 'events must be an array'),
    ('twin', '{"instance_id": "V", "events": [1]}',
     'parse-error', 'events[0] must be an object'),
    ('twin', '{"instance_id": "V", "events": [{"kind": "k"}]}',
     'parse-error', 'events[0].timestamp must be a string'),
    ('twin', '{"instance_id": "V", "events": [{"timestamp": "yesterday", "kind": "k"}]}',
     'invalid-timestamp', "not an ISO-8601 timestamp: 'yesterday'"),
    ('twin', '{"instance_id": "V", "events": [{"timestamp": "2024-05-01T10:00:00+02:00", "kind": "k"}]}',
     'invalid-timestamp', "timestamp must be UTC: '2024-05-01T10:00:00+02:00'"),
    ('twin', '{"instance_id": "V", "events": [{"timestamp": "2024-05-01T10:00:00Z"}]}',
     'parse-error', 'events[0].kind must be a string'),
    ('twin', '{"instance_id": "V", "events": [{"timestamp": "2024-05-01T10:00:00Z", "kind": "k", "payload": []}]}',
     'parse-error', 'events[0].payload must be an object'),
    ('twin', '{"instance_id": "V", "events": [{"timestamp": "2024-05-01T10:00:00Z", "kind": "k", "payload": {"a": 1}}]}',
     'parse-error', 'events[0].payload must map strings to strings'),
    ('twin', '{"instance_id": "V", "events": [{"timestamp": "2024-05-01T10:00:00Z", "kind": "k"}, {"timestamp": "2024-04-30T10:00:00Z", "kind": "k"}]}',
     'time-regression', "event log timestamps decrease at '2024-04-30T10:00:00Z'"),
    ('twin', '{}',
     'parse-error', 'instance_id must be a string'),
    ('twin', '{"instance_id": ""}',
     'invalid-id', "node id '' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('twin', '{"instance_id": "../x"}',
     'invalid-id', "node id '../x' must be a non-empty string matching [A-Za-z0-9_.-]+"),
    ('twin', '{"instance_id": "V", "model_id": 1}',
     'parse-error', 'model_id must be a string'),
    ('twin', '{"instance_id": "V", "model_digest": 1}',
     'parse-error', 'model_digest must be a string'),
    ('state', '[]',
     'parse-error', 'document must be an object'),
    ('state', '{"present": {}}',
     'parse-error', 'present must be an array'),
    ('state', '{"present": [1]}',
     'parse-error', 'present[0] must be a string'),
    ('state', '{"substitutions": []}',
     'parse-error', 'substitutions must be an object'),
    ('state', '{"substitutions": {"a": 1}}',
     'parse-error', 'substitutions must map strings to strings'),
    ('registry', '[]',
     'parse-error', 'document must be an object'),
    ('registry', '{}',
     'parse-error', 'resources must be an array'),
    ('registry', '{"resources": {}}',
     'parse-error', 'resources must be an array'),
    ('registry', '{"resources": [1]}',
     'parse-error', 'resources[0] must be an object'),
    ('registry', '{"resources": [{"skills": []}]}',
     'parse-error', 'resources[0].id must be a string'),
    ('registry', '{"resources": [{"id": 1}]}',
     'parse-error', 'resources[0].id must be a string'),
    ('registry', '{"resources": [{"id": "r", "skills": "s"}]}',
     'parse-error', 'resources[0].skills must be an array'),
    ('registry', '{"resources": [{"id": "r", "skills": [1]}]}',
     'parse-error', 'resources[0].skills[0] must be a string'),
    ('registry', '{"resources": [{"id": "r"}, {"id": "r"}]}',
     'duplicate-id', "duplicate resource id 'r'"),
    ('registry', '{"resources": [{"id": "a"}, {"id": "b"}, {"id": "b"}, {"id": "a"}]}',
     'duplicate-id', "duplicate resource id 'b'"),
    ('registry', '{"resources": [{"id": "r"}, {"id": "r", "skills": [1]}]}',
     'parse-error', 'resources[1].skills[0] must be a string'),
    ('model', '{"id": "m", "products": [{"id": "a", "kind": "Elementary", "label": "A", "position": [1, true, 3]}]}',
     'parse-error', 'products[0].position must be three numbers'),
    ('plan', '{}',
     'parse-error', 'steps must be an array'),
    ('plan', '{"model_id": "m", "model_digest": "d"}',
     'parse-error', 'steps must be an array'),
    ('state', '{}',
     'parse-error', 'present must be an array'),
    ('state', '{"presnt": []}',
     'parse-error', 'present must be an array'),
    ('plan', '{"steps": [{"process": "p", "direction": "Swap", "consumed": ["bogus"], "produced": ["cover", "battery"], "swap_replacement": "bogus", "swap_target": "cover"}]}',
     'parse-error', SWAP_KEYS),
    ('plan', '{"steps": [{"process": "p", "direction": "Swap", "consumed": ["r"], "produced": ["t"], "swap_replacement": "t", "swap_target": "r"}]}',
     'parse-error', SWAP_KEYS),
    ('plan', '{"steps": [{"process": "p", "direction": "Swap", "consumed": ["r"], "produced": ["t"]}]}',
     'parse-error', SWAP_KEYS),
    ('plan', '{"steps": [{"process": "p", "direction": "Forward", "consumed": ["r"], "produced": ["t"], "swap_target": "t"}]}',
     'parse-error', SWAP_KEYS),
    ('plan', '{"steps": [{"process": "p", "direction": "Reverse", "swap_replacement": "r"}]}',
     'parse-error', SWAP_KEYS),
]


@pytest.mark.parametrize(
    "kind,text,code,detail", CORPUS, ids=[f"{c[0]}-{i}" for i, c in enumerate(CORPUS)]
)
def test_single_fault_reports_pinned_error(kind, text, code, detail):
    with pytest.raises(BiPanError) as err:
        LOADERS[kind](text.encode("utf-8"))
    assert err.value.code == code
    if detail is not None:
        assert err.value.detail == detail


@pytest.mark.parametrize(
    "family,edge_cls,fields",
    [
        ("flows", FlowEdge, ("a b", "q", FlowRole.INPUT)),
        ("flows", FlowEdge, ("f", "q/r", FlowRole.OUTPUT)),
        ("skill_edges", SkillEdge, ("q", "")),
        ("fastens", FastensLink, ("a b", frozenset())),
        ("fastens", FastensLink, ("f", frozenset({"b c"}))),
    ],
)
def test_model_checks_edge_ids_it_cannot_resolve(family, edge_cls, fields):
    """Edge records hold any id; the model reports one that names no node as ``invalid-id``."""
    products = (ProductNode("f", "F", ProductKind.FINAL),)
    with pytest.raises(BiPanError) as err:
        BiPanModel("m", products, (ProcessNode("q", "Q"),), **{family: (edge_cls(*fields),)})
    assert err.value.code == "invalid-id"


def _flow(product, process, role="Input"):
    return {"product": product, "process": process, "role": role}


#: Edge arrays, each with two or more endpoints that name no node, malformed or dangling.
UNRESOLVABLE = [
    {"flows": [_flow("a b", "p"), _flow("c d", "p")]},
    {"flows": [_flow("x", "p"), _flow("a", "p/q"), _flow("b", "p", "Output")],
     "skill_edges": [{"process": "p", "skill": "z"}, {"process": "", "skill": "s"}]},
    {"skill_edges": [{"process": "p", "skill": "s t"}, {"process": "q", "skill": "s"}],
     "fastens": [{"fastener": "f", "secures": ["y", "a b", "a"]},
                 {"fastener": "g g", "secures": []}]},
    {"fastens": [{"fastener": "f", "secures": ["a", "d e", "zz", "b c"]}]},
]

_KINDS = {"a": ProductKind.ELEMENTARY, "b": ProductKind.FINAL, "f": ProductKind.FASTENER}


def _orderings(edges):
    """``edges`` in every order: each array, and the ``secures`` of each fastens link."""
    arrays = (itertools.permutations(edges.get(key, ())) for key in
              ("flows", "skill_edges", "fastens"))
    for flows, skill_edges, fastens in itertools.product(*arrays):
        for secures in itertools.product(*(itertools.permutations(l["secures"]) for l in fastens)):
            yield {"flows": list(flows), "skill_edges": list(skill_edges),
                   "fastens": [{**l, "secures": list(s)} for l, s in zip(fastens, secures)]}


def _python_error(edges):
    """What ``BiPanModel`` raises, built in Python from the records of the document."""
    with pytest.raises(BiPanError) as err:
        BiPanModel(
            "m",
            tuple(ProductNode(i, "", kind) for i, kind in _KINDS.items()),
            (ProcessNode("p", ""),),
            (SkillNode("s", ""),),
            tuple(FlowEdge(f["product"], f["process"], FlowRole(f["role"]))
                  for f in edges.get("flows", ())),
            tuple(SkillEdge(e["process"], e["skill"]) for e in edges.get("skill_edges", ())),
            tuple(FastensLink(l["fastener"], frozenset(l["secures"]))
                  for l in edges.get("fastens", ())),
        )
    return err.value.code, err.value.detail


@pytest.mark.parametrize("edges", UNRESOLVABLE, ids=range(len(UNRESOLVABLE)))
def test_edge_order_never_changes_a_model_documents_error(edges):
    """Reordering the edges of a model document changes neither its error code nor its detail."""
    expected = _python_error(edges)
    nodes = {"products": [{"id": i, "kind": kind.value} for i, kind in _KINDS.items()],
             "processes": [{"id": "p"}], "skills": [{"id": "s"}]}
    for reordered in _orderings(edges):
        with pytest.raises(BiPanError) as err:
            io.load_model(json.dumps({"id": "m", **nodes, **reordered}).encode("utf-8"))
        assert (err.value.code, err.value.detail) == expected, reordered
