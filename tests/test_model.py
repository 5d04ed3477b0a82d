import copy
import dataclasses
import gc
import json
import math
import operator
import pickle
import re
import time
from pathlib import Path
from types import GeneratorType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipan import io
from bipan.canon import model_digest
from bipan.errors import BiPanError
from bipan.execute import ExecState, run
from bipan.fixtures import battery_model
from bipan.model import (
    INVERSION,
    BiPanModel,
    FastensLink,
    FlowRole,
    FrozenMap,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
    check_id,
    replace,
)
from bipan.pdt import Event, Health, PdtInstance, create_instance, plan_repair_for, set_health
from bipan.plan import DisassemblyMode, disassembly_to
from bipan.validate import Diagnostic, validate
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
            ("a", "q", FlowRole.INPUT),
            ("b", "q", FlowRole.INPUT),
            ("f", "q", FlowRole.OUTPUT),
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
            tiny_model(extra_flows=(("ghost", "q", FlowRole.INPUT),))
        assert err.value.code == "dangling-reference"

    def test_first_dangling_endpoint_in_canonical_order_is_named(self):
        """Edges in any order denote one model, so they fail with one detail."""
        ghosts = (("zeta", "q", FlowRole.INPUT), ("alpha", "q", FlowRole.INPUT))
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
    # unhashable, or a number.
    @pytest.mark.parametrize(
        "extra",
        [
            {"flows": ((["x"], "q", FlowRole.INPUT),)},
            {"flows": (("a", {}, FlowRole.INPUT),)},
            {"skill_edges": (("q", ["s"]),)},
            {"skill_edges": ((["q"], "s"),)},
            {"fastens": (FastensLink(["a"], ["b"]),)},
            {"fastens": (FastensLink("a", [5]),)},
        ],
    )
    def test_edge_id_that_is_no_string_is_a_parse_error(self, extra):
        tiny = tiny_model()
        skills = (SkillNode("s", "screwing"),)
        with pytest.raises(BiPanError) as err:
            BiPanModel("tiny", tiny.products, tiny.processes, skills, **{"flows": (), **extra})
        assert err.value.code == "parse-error"

    # A row of the wrong shape, as a Python caller may pass against the annotations.
    @pytest.mark.parametrize(
        "extra,detail",
        [
            ({"flows": (("a", "q"),)}, "flow ('a', 'q') is not a row of 3 items"),
            ({"flows": (("a", "q", FlowRole.INPUT, "x"),)},
             "flow ('a', 'q', <FlowRole.INPUT: 'Input'>, 'x') is not a row of 3 items"),
            ({"flows": (5,)}, "flow 5 is not a row of 3 items"),
            ({"skill_edges": (("q",),)}, "skill edge ('q',) is not a row of 2 items"),
            ({"skill_edges": (("q", "s", "t"),)},
             "skill edge ('q', 's', 't') is not a row of 2 items"),
            ({"skill_edges": (None,)}, "skill edge None is not a row of 2 items"),
        ],
    )
    def test_edge_row_of_the_wrong_shape_is_a_parse_error(self, extra, detail):
        tiny = tiny_model()
        skills = (SkillNode("s", "screwing"),)
        fields = {"flows": tiny.flows, **extra}
        with pytest.raises(BiPanError) as err:
            BiPanModel("tiny", tiny.products, tiny.processes, skills, **fields)
        assert (err.value.code, err.value.detail) == ("parse-error", detail)

    def test_unhashable_secured_id_is_a_parse_error(self):
        """So is one that does not sort with the others: a link holds ``secures`` sorted."""
        for secures, named in (([["x"]], "['x']"), (["b", 5], "5")):
            with pytest.raises(BiPanError) as err:
                FastensLink("f", secures)
            assert err.value.code == "parse-error"
            assert err.value.detail.startswith(f"node id {named} ")

    def test_secured_ids_from_a_generator_are_read_once(self):
        """The failed sort must not use up the ids that ``check_id`` then names."""
        with pytest.raises(BiPanError) as err:
            FastensLink("f", (node_id for node_id in [1, "a"]))
        assert err.value.code == "parse-error"
        assert err.value.detail.startswith("node id 1 ")
        assert FastensLink("f", (node_id for node_id in "ba")).secures == ("a", "b")

    def test_bad_position(self):
        with pytest.raises(BiPanError) as err:
            ProductNode("a", "x", ProductKind.ELEMENTARY, position=(1.0, 2.0))
        assert err.value.code == "invalid-position"

    def test_a_position_that_is_no_number_is_invalid_position(self):
        with pytest.raises(BiPanError) as err:
            ProductNode("a", "x", ProductKind.ELEMENTARY, position=("a", 1, 2))
        assert (err.value.code, err.value.detail) == (
            "invalid-position", "product 'a': position must be three finite numbers"
        )

    @pytest.mark.parametrize(
        "field", ["products", "processes", "skills", "flows", "skill_edges", "fastens"]
    )
    def test_each_collection_may_be_a_generator(self, f1, field):
        """Each collection is read once, so a generator builds the model a tuple does."""
        model = replace(f1, fastens=(FastensLink("bolts1", ("mod8", "cover")),))
        fields = {name: getattr(model, name) for name in model._fields}
        built = BiPanModel(**{**fields, field: (item for item in fields[field])})
        assert built == model and getattr(built, field) == fields[field]

    def test_duplicate_flows_collapse(self):
        model = tiny_model(extra_flows=(("a", "q", FlowRole.INPUT),))
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

    @staticmethod
    def _fan(width):
        """The nodes and flows of ``width`` processes that all consume ``a`` and produce ``f``."""
        pids = [f"p{i:05d}" for i in range(width)]
        products = (ProductNode("a", "A", ProductKind.ELEMENTARY),
                    ProductNode("f", "F", ProductKind.FINAL))
        flows = [(node, pid, role) for pid in reversed(pids)
                 for node, role in (("a", FlowRole.INPUT), ("f", FlowRole.OUTPUT))]
        return pids, products, [ProcessNode(pid, pid) for pid in pids], flows

    def test_a_product_of_many_processes_is_filed_in_linear_time(self):
        """A product named by many processes is filed in time linear in them, ascending, and
        V003 still names them all. 16 times the processes took 19 to 25 times as long; a
        per-edge ``tuple +=`` took about 260 times as long. The bound of 80 is about 3 times
        from both.

        The cyclic GC is off while a model is built: its full collections scan the whole
        test process, whose size does not grow with the model.
        """
        walls = []
        for width in (2_500, 40_000):
            pids, products, processes, flows = self._fan(width)
            times = []
            for _ in range(3):
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    model = BiPanModel("fan", products, processes, flows=flows)
                    times.append(time.perf_counter() - start)
                finally:
                    gc.enable()
            walls.append(min(times))
            assert model.adjacency.consumers["a"] == model.adjacency.producers["f"] == tuple(pids)
        assert walls[1] / walls[0] < 80, walls
        v003 = [d for d in validate(model).items if d.code == "V003"]
        listed = ", ".join(pids)
        assert v003 == [
            Diagnostic("V003", ("a", *pids), f"product 'a' has {width} consumers ({listed})"),
            Diagnostic("V003", ("f", *pids), f"product 'f' has {width} producers ({listed})"),
        ]


def _finite(value):
    try:
        return type(value) in (int, float) and abs(float(value)) < math.inf
    except OverflowError:  # an int past the float range
        return False


def is_position(value):
    """The position rule, stated apart from ``ProductNode``: a list or tuple of three ints
    or floats (no bool, no str), each finite as a float."""
    return type(value) in (list, tuple) and len(value) == 3 and all(map(_finite, value))


COORDINATES = (
    st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308])
    | st.booleans() | st.sampled_from(["1", "-2.5", "1e400", "nan"])
)
FINITE = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
SEQUENCES = (st.lists(COORDINATES, max_size=4) | st.lists(COORDINATES, min_size=3, max_size=3)
             | st.lists(FINITE, min_size=3, max_size=3))
POSITIONS = (
    st.none() | SEQUENCES | SEQUENCES.map(tuple)
    | st.sampled_from(["123", {"x": 1.0, "y": 2.0, "z": 3.0}])
    | st.builds(lambda: (c for c in (1.0, 2.0, 3.0)))
)
POSITION_DETAIL = "product 'a': position must be three finite numbers"


def _refuse(constant):
    raise ValueError(f"{constant} is no RFC 8259 JSON")


class TestPositionRule:
    """``ProductNode`` alone states the position rule, and every source of a product,
    a Python caller or a model document, meets it there."""

    @given(POSITIONS)
    def test_invalid_position_exactly_when_not_three_finite_numbers(self, position):
        valid = position is None or is_position(position)  # reads no generator
        document = None if isinstance(position, GeneratorType) else json.dumps(
            {"id": "m", "products": [{"id": "a", "kind": "Final", "label": "A",
                                     "position": position}]}).encode("utf-8")
        try:
            node = ProductNode("a", "A", ProductKind.FINAL, position=position)
        except BiPanError as exc:
            assert not valid, position
            assert (exc.code, exc.detail) == ("invalid-position", POSITION_DETAIL)
            if document is not None:
                with pytest.raises(BiPanError) as err:
                    io.load_model(document)
                assert (err.value.code, err.value.detail) == (exc.code, exc.detail)
            return
        assert valid, position
        model = BiPanModel("m", (node,))
        data = io.save_model(model)
        assert io.load_model(data) == model
        json.loads(data, parse_constant=_refuse)
        assert io.load_model(document) == model

    def test_the_rule_is_stated_once(self):
        """Only ``model`` tests finiteness: no other module re-checks a position or writes
        one that is not finite."""
        source = Path(io.__file__).parent
        assert [path.name for path in sorted(source.glob("*.py"))
                if "isfinite" in path.read_text(encoding="utf-8")] == ["model.py"]


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
        for product, process, role in model.flows:
            by_process, by_product = (
                ("inputs", "consumers") if role is FlowRole.INPUT else ("outputs", "producers")
            )
            rebuilt[by_process][process].append(product)
            rebuilt[by_product][product].append(process)
        for process, skill in model.skill_edges:
            rebuilt["skill_ids"][process].append(skill)
        for name, mapping in model.adjacency._asdict().items():
            assert type(mapping) is FrozenMap
            assert mapping == {k: tuple(sorted(ids)) for k, ids in rebuilt[name].items()}

    def test_edge_views_are_plain_rows(self, f1):
        """Built in Python, loaded from a document or decoded from its parsed object, a
        model's edges are tuples, with no record per edge."""
        data = io.save_model(f1)
        for model in (f1, io.load_model(data), io._model_from(json.loads(data))):
            assert model == f1 and model.flows and model.skill_edges
            assert all(type(row) is tuple for row in (*model.flows, *model.skill_edges))

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
                broken.ensure_valid()
            assert err.value.code == "invalid-model"

    def test_a_digest_mismatch_names_what_is_bound(self, f1):
        """The replay and the twin each bind to a digest, and each names its holder."""
        other = replace(f1, id="other-model")
        plan = disassembly_to(f1, "mod8", DisassemblyMode.EXTRACT)
        with pytest.raises(BiPanError) as err:
            run(plan, ExecState({"battery"}), other)
        assert (err.value.code, err.value.detail) == ("digest-mismatch", (
            "plan was built for digest de67af255579..., model 'other-model' has 23b3081fcd24..."))
        t0, t1 = "2024-05-01T10:00:00Z", "2024-05-01T11:00:00Z"
        twin = set_health(create_instance("VIN-1", f1), "mod8", Health.BROKEN, t0)
        with pytest.raises(BiPanError) as err:
            plan_repair_for(twin, other, {"mod8": "mod8r"}, t1)
        assert (err.value.code, err.value.detail) == ("digest-mismatch", (
            "instance 'VIN-1' is bound to digest de67af255579..., "
            "model 'other-model' has 23b3081fcd24..."))


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
