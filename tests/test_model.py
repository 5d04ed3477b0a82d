import copy
import dataclasses
import operator
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipan.canon import model_digest
from bipan.errors import BiPanError
from bipan.execute import ExecState
from bipan.fixtures import battery_model
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
    check_id,
)
from bipan.pdt import Event, Health, PdtInstance
from bipan.plan import INVERSION, DisassemblyMode, disassembly_to
from bipan.validate import ensure_valid, validate
from mutations import MUTANTS
from strategies import models


def tiny_model(extra_products=(), extra_flows=()):
    """{a, b} -> q -> f, plus whatever the test tacks on."""
    return BiPanModel(
        id="tiny",
        products=(
            ProductNode("a", "A", ProductKind.ELEMENTARY),
            ProductNode("b", "B", ProductKind.ELEMENTARY),
            ProductNode("f", "F", ProductKind.FINAL),
            *extra_products,
        ),
        processes=(ProcessNode("q", "Q"),),
        flows=(
            FlowEdge("a", "q", FlowRole.INPUT),
            FlowEdge("b", "q", FlowRole.INPUT),
            FlowEdge("f", "q", FlowRole.OUTPUT),
            *extra_flows,
        ),
    )


class TestQueries:
    def test_producer_of(self, f1):
        assert f1.adjacency.producers["stage2"] == ("p2",)
        assert f1.adjacency.producers["box"] == ()
        assert f1.adjacency.producers["battery"] == ("p5",)

    def test_consumer_of(self, f1):
        assert f1.adjacency.consumers["stage1"] == ("p2",)
        assert f1.adjacency.consumers["battery"] == ()
        assert f1.adjacency.consumers["mod3"] == ("p2",)

    def test_unknown_node(self, f1):
        with pytest.raises(BiPanError) as err:
            f1.product("flux-capacitor")
        assert err.value.code == "unknown-node"
        with pytest.raises(BiPanError) as err:
            f1.skill_labels_of("flux-capacitor")
        assert err.value.code == "unknown-node"

    def test_inputs_outputs(self, f1):
        assert f1.adjacency.inputs["p4"] == ("blanket", "stage3")
        assert f1.adjacency.outputs["p4"] == ("stage4",)
        assert f1.skill_labels_of("p2") == ("connecting-cables", "manipulation", "screwing")

    def test_leaves(self, f1):
        leaves = f1.leaf_products()
        assert len(leaves) == 23
        assert "stage1" not in leaves and "battery" not in leaves


# The one accessor left, with an id of each family it does not answer for and an
# unknown id. The details are those from when it looked its node up with
# ``process()`` first.
MISSES = [
    *(("skill_labels_of", node_id, "process") for node_id in ("mod3", "screwing")),
    ("skill_labels_of", "flux-capacitor", "process"),
]


@pytest.mark.parametrize("accessor,node_id,family", MISSES)
def test_accessor_miss_is_unknown_node(f1, accessor, node_id, family):
    with pytest.raises(BiPanError) as err:
        getattr(f1, accessor)(node_id)
    assert err.value.code == "unknown-node"
    assert err.value.detail == f"no {family} '{node_id}' in model 'ev-battery'"


def spine(model, product):
    """The processes from ``product``'s consumer up to the root, as extracting it walks them."""
    return disassembly_to(model, product, DisassemblyMode.EXTRACT).process_sequence()[::-1]


class TestSpine:
    """The walk up the in-tree, which the planners make from ``model.adjacency``."""

    def test_mid_component(self, f1):
        assert spine(f1, "mod5") == ("p2", "p3", "p4", "p5")

    def test_last_process_input(self, f1):
        assert spine(f1, "cover") == ("p5",)

    def test_one_hop(self, f1):
        assert spine(f1, "stage4") == ("p5",)

    def test_final_is_empty(self, f1):
        assert f1.adjacency.consumers["battery"] == ()  # nothing to walk up from
        with pytest.raises(BiPanError) as err:
            spine(f1, "battery")
        assert err.value.code == "target-is-final"

    def test_detached(self):
        model = tiny_model(extra_products=(ProductNode("loose", "Loose", ProductKind.ELEMENTARY),))
        for mode in DisassemblyMode:
            with pytest.raises(BiPanError) as err:
                disassembly_to(model, "loose", mode)
            assert err.value.code == "detached-node"
            assert err.value.detail == (
                "product 'loose' has no consumer and is not the final product"
            )

    def test_unknown(self, f1):
        with pytest.raises(BiPanError) as err:
            spine(f1, "nope")
        assert err.value.code == "unknown-node"


class TestConstruction:
    def test_duplicate_product_id(self):
        with pytest.raises(BiPanError) as err:
            tiny_model(extra_products=(ProductNode("a", "again", ProductKind.ELEMENTARY),))
        assert err.value.code == "duplicate-id"

    def test_id_shared_across_families(self):
        with pytest.raises(BiPanError) as err:
            tiny_model(extra_products=(ProductNode("q", "clash", ProductKind.ELEMENTARY),))
        assert err.value.code == "duplicate-id"

    def test_dangling_flow(self):
        with pytest.raises(BiPanError) as err:
            tiny_model(extra_flows=(FlowEdge("ghost", "q", FlowRole.INPUT),))
        assert err.value.code == "dangling-reference"

    def test_first_dangling_endpoint_in_canonical_order_is_named(self):
        """Edges in any order denote one model, so they fail with one detail."""
        ghosts = (FlowEdge("zeta", "q", FlowRole.INPUT), FlowEdge("alpha", "q", FlowRole.INPUT))
        for extra_flows in (ghosts, tuple(reversed(ghosts))):
            with pytest.raises(BiPanError) as err:
                tiny_model(extra_flows=extra_flows)
            assert err.value.code == "dangling-reference"
            assert err.value.detail == "flow references unknown product 'alpha'"

    def test_bad_id_pattern(self):
        with pytest.raises(BiPanError) as err:
            ProductNode("not ok", "x", ProductKind.ELEMENTARY)
        assert err.value.code == "invalid-id"
        with pytest.raises(BiPanError):
            SkillNode("", "x")

    @given(st.text(alphabet="aZ09_.-/ \n\x00é") | st.text())
    def test_id_rule_is_the_documented_pattern(self, value):
        well_formed = re.fullmatch(r"[A-Za-z0-9_.-]+", value) is not None
        try:
            check_id(value)
        except BiPanError as err:
            assert err.code == "invalid-id" and not well_formed
        else:
            assert well_formed

    # An id that is no string, as a Python caller may pass against the annotations:
    # unhashable, or (with the string "b") unsortable.
    @pytest.mark.parametrize(
        "extra",
        [
            {"flows": (FlowEdge(["x"], "q", FlowRole.INPUT),)},
            {"flows": (FlowEdge("a", {}, FlowRole.INPUT),)},
            {"skill_edges": (SkillEdge("q", ["s"]),)},
            {"skill_edges": (SkillEdge(["q"], "s"),)},
            {"fastens": (FastensLink(["a"], ["b"]),)},
            {"fastens": (FastensLink("a", ["b", 5]),)},
        ],
    )
    def test_edge_id_that_is_no_string_is_invalid_id(self, extra):
        tiny = tiny_model()
        skills = (SkillNode("s", "screwing"),)
        with pytest.raises(BiPanError) as err:
            BiPanModel("tiny", tiny.products, tiny.processes, skills, **{"flows": (), **extra})
        assert err.value.code == "invalid-id"

    def test_unhashable_secured_id_is_invalid_id(self):
        with pytest.raises(BiPanError) as err:
            FastensLink("f", [["x"]])
        assert err.value.code == "invalid-id"
        assert "['x']" in err.value.detail

    def test_bad_position(self):
        with pytest.raises(BiPanError) as err:
            ProductNode("a", "x", ProductKind.ELEMENTARY, position=(1.0, 2.0))
        assert err.value.code == "invalid-position"

    def test_non_numeric_position(self):
        with pytest.raises(BiPanError) as err:
            ProductNode("a", "x", ProductKind.ELEMENTARY, position=("a", 1, 2))
        assert (err.value.code, err.value.detail) == (
            "invalid-position", "product 'a': position components must be numbers"
        )

    def test_duplicate_flows_collapse(self):
        model = tiny_model(extra_flows=(FlowEdge("a", "q", FlowRole.INPUT),))
        assert model.flows == tiny_model().flows

    def test_normalization_is_order_insensitive(self, f1):
        shuffled = BiPanModel(
            id=f1.id,
            products=tuple(reversed(f1.products)),
            processes=tuple(reversed(f1.processes)),
            skills=tuple(reversed(f1.skills)),
            flows=tuple(reversed(f1.flows)),
            skill_edges=tuple(reversed(f1.skill_edges)),
        )
        assert shuffled == f1


class TestInvariants:
    @given(models())
    def test_at_most_one_producer_and_consumer(self, model):
        for product in model.products:
            assert len(model.adjacency.producers[product.id]) <= 1
            assert len(model.adjacency.consumers[product.id]) <= 1

    @given(models())
    def test_spine_reaches_final_producer(self, model):
        (final,) = model.final_products()
        (root,) = model.adjacency.producers[final]
        for product in model.products:
            if product.kind is not ProductKind.FINAL:
                assert spine(model, product.id)[-1] == root

    @given(models())
    def test_producer_consumer_flow_symmetry(self, model):
        adjacency = model.adjacency
        for product in model.products:
            for producer in adjacency.producers[product.id]:
                assert product.id in adjacency.outputs[producer]
            for consumer in adjacency.consumers[product.id]:
                assert product.id in adjacency.inputs[consumer]

    def test_model_is_immutable(self, f1):
        with pytest.raises(dataclasses.FrozenInstanceError):
            f1.id = "other"


class TestCachedFacts:
    @given(models())
    def test_digest_is_model_digest(self, model):
        assert model.digest == model_digest(model)

    @given(models())
    def test_diagnostics_is_validate(self, model):
        assert model.diagnostics == validate(model)

    @given(models())
    def test_adjacency_is_rebuilt_from_the_edges(self, model):
        rebuilt = {name: {p.id: [] for p in model.processes} for name in ("inputs", "outputs")}
        rebuilt["skill_ids"] = {p.id: [] for p in model.processes}
        rebuilt.update({name: {p.id: [] for p in model.products}
                        for name in ("producers", "consumers")})
        for f in model.flows:
            by_process, by_product = (
                ("inputs", "consumers") if f.role is FlowRole.INPUT else ("outputs", "producers")
            )
            rebuilt[by_process][f.process].append(f.product)
            rebuilt[by_product][f.product].append(f.process)
        for e in model.skill_edges:
            rebuilt["skill_ids"][e.process].append(e.skill)
        for name, mapping in model.adjacency._asdict().items():
            assert type(mapping) is FrozenMap
            assert mapping == {k: tuple(sorted(ids)) for k, ids in rebuilt[name].items()}

    def test_facts_computed_once(self, f1):
        assert f1.digest is f1.digest
        assert f1.diagnostics is f1.diagnostics
        assert f1.skill_labels_of("p2") is f1.skill_labels_of("p2")

    @given(models())
    def test_skill_labels_are_the_sorted_labels_of_skill_ids(self, model):
        for process in model.processes:
            ids = model.adjacency.skill_ids[process.id]
            labels = {skill.label for skill in model.skills if skill.id in ids}
            assert model.skill_labels_of(process.id) == tuple(sorted(labels))

    def test_attributes_are_read_only(self, f1):
        bolts = f1.product("bolts1")
        with pytest.raises(TypeError):
            bolts.attributes["skill"] = "welding"
        assert "skill" not in bolts.attributes

    def test_attributes_copied_from_caller(self):
        given_attributes = {"skill": "screwing"}
        node = ProductNode("s", "S", ProductKind.FASTENER, attributes=given_attributes)
        given_attributes["skill"] = "welding"
        assert node.attributes == {"skill": "screwing"}

    def test_equal_models_hash_equal(self):
        one, two = battery_model(), battery_model()
        assert one is not two and hash(one) == hash(two)
        assert len({one, two}) == 1

    def test_products_differing_in_attributes_only(self):
        plain = ProductNode("s", "S", ProductKind.FASTENER)
        declared = ProductNode("s", "S", ProductKind.FASTENER, attributes={"skill": "screwing"})
        assert plain != declared
        assert len({plain, declared}) == 2

    def test_model_still_pickles(self, f1):
        f1.digest, f1.diagnostics  # every cached fact; the adjacency maps are built with the model
        copied = pickle.loads(pickle.dumps(f1))
        assert copied == f1 and copied.digest == f1.digest
        assert copied.adjacency == f1.adjacency
        assert copy.deepcopy(f1) == f1

    def test_ensure_valid_raises_on_every_call(self, f1):
        broken = MUTANTS["V004"][0](f1)
        for _ in range(3):
            with pytest.raises(BiPanError) as err:
                ensure_valid(broken)
            assert err.value.code == "invalid-model"


#: One record of each kind that holds a mapping, by the name of that mapping's field.
RECORDS = {
    "attributes": lambda m: ProductNode("s", "S", ProductKind.FASTENER, attributes={"k": "v"}),
    "payload": lambda m: Event("2024-05-01T10:00:00Z", "note", {"k": "v"}),
    "health": lambda m: PdtInstance("VIN-1", "m", "d", {"mod1": Health.OK}),
    "substitutions": lambda m: ExecState(frozenset({"a"}), {"k": "v"}),
    "adjacency": lambda m: m,
}

MAPPINGS = {
    **{field: lambda m, field=field: getattr(RECORDS[field](m), field) for field in RECORDS},
    "adjacency": lambda m: m.adjacency.inputs,
    "INVERSION": lambda m: INVERSION,
}

MUTATIONS = {
    "__setitem__": lambda d: operator.setitem(d, "k", "w"),
    "__delitem__": lambda d: operator.delitem(d, next(iter(d))),
    "__ior__": lambda d: operator.ior(d, {"k": "w"}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop(next(iter(d))),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("new", "w"),
    "update": lambda d: d.update(k="w"),
}


class TestFrozenMap:
    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=list(MUTATIONS))
    @pytest.mark.parametrize("name", MAPPINGS)
    def test_every_mutation_raises_and_changes_nothing(self, f1, name, mutate):
        mapping = MAPPINGS[name](f1)
        before = dict(mapping)
        assert type(mapping) is FrozenMap and before
        with pytest.raises(TypeError):
            mutate(mapping)
        assert mapping == before

    @pytest.mark.parametrize(
        "copy_of",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    @pytest.mark.parametrize("field", RECORDS)
    def test_copies_hold_frozen_maps(self, f1, field, copy_of):
        record = RECORDS[field](f1)
        getattr(record, field)  # the model's adjacency maps are built at construction
        copied = copy_of(record)
        assert copied == record
        value = getattr(copied, field)
        for mapping in value if field == "adjacency" else (value,):
            assert type(mapping) is FrozenMap

    def test_operators_that_build_a_new_map_still_work(self):
        frozen = FrozenMap({"a": "b"})
        assert frozen | {"c": "d"} == {"a": "b", "c": "d"} and frozen == {"a": "b"}
        assert pickle.loads(pickle.dumps(frozen)) == frozen
