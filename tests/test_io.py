import ast
import hashlib
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipan import canon, exchange, io
from bipan.errors import BiPanError
from bipan.execute import ExecState
from bipan.fixtures import battery_model
from bipan.model import (
    COMPONENT_KINDS,
    BiPanModel,
    Direction,
    FastensLink,
    FlowRole,
    Plan,
    PlanStep,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
)
from bipan.pdt import Event, Health, PdtInstance, create_instance, set_health
from bipan.plan import assembly_recipe, full_disassembly, repair_plan
from bipan.validate import validate
from strategies import models
from test_cli_contract import TARGETS, mutated
from test_decoders import LOADERS


class TestModelDocuments:
    def test_golden_fixture_bytes(self, f1, fixtures_dir):
        assert io.save_model(f1) == (fixtures_dir / "f1.bipan.json").read_bytes()

    def test_load_save_identity(self, f1):
        assert io.load_model(io.save_model(f1)) == f1

    def test_save_is_deterministic(self, f1):
        assert io.save_model(f1) == io.save_model(f1)

    def test_noncanonical_input_normalizes(self, f1):
        doc = json.loads(io.save_model(f1).decode("utf-8"))
        doc["products"].reverse()
        doc["flows"].reverse()
        scrambled = json.dumps(doc, indent=None, sort_keys=False).encode("utf-8")
        assert io.save_model(io.load_model(scrambled)) == io.save_model(f1)

    def test_parse_error_carries_position(self):
        with pytest.raises(BiPanError) as err:
            io.load_model(b'{\n  "id": }\n')
        assert err.value.code == "parse-error"
        assert "line 2" in err.value.detail

    def test_dangling_reference(self, f1):
        doc = json.loads(io.save_model(f1).decode("utf-8"))
        doc["flows"].append({"process": "p5", "product": "stage9", "role": "Input"})
        with pytest.raises(BiPanError) as err:
            io.load_model(json.dumps(doc).encode("utf-8"))
        assert err.value.code == "dangling-reference"
        assert "stage9" in err.value.detail

    def test_duplicate_id(self, f1):
        doc = json.loads(io.save_model(f1).decode("utf-8"))
        doc["products"].append(doc["products"][0])
        with pytest.raises(BiPanError) as err:
            io.load_model(json.dumps(doc).encode("utf-8"))
        assert err.value.code == "duplicate-id"

    def test_empty_document_loads_and_fails_validation(self):
        model = io.load_model(b'{"id": "bare", "products": [], "flows": []}')
        assert model.products == ()
        assert "V004" in {d.code for d in validate(model).items}

    def test_bad_kind_is_parse_error(self):
        with pytest.raises(BiPanError) as err:
            io.load_model(b'{"id": "m", "products": [{"id": "a", "kind": "Gizmo", "label": ""}]}')
        assert err.value.code == "parse-error"
        assert "Gizmo" in err.value.detail

    @given(models())
    def test_round_trip_over_random_models(self, model):
        data = io.save_model(model)
        assert io.load_model(data) == model
        assert io.save_model(io.load_model(data)) == data

    def test_digest_is_sha256_of_file_bytes(self, f1, fixtures_dir):
        digest = hashlib.sha256((fixtures_dir / "f1.bipan.json").read_bytes()).hexdigest()
        assert canon.model_digest(f1) == digest


#: Per document kind, the value a Python caller builds from a parsed document's records
#: and rows, each left-out key given the default its format states.
PYTHON_BUILDS = {
    "model": lambda doc: BiPanModel(
        doc.get("id", ""),
        [ProductNode(row["id"], row.get("label", ""), ProductKind(row["kind"]),
                     row.get("type_ref"), row.get("position"), row.get("attributes", {}))
         for row in doc.get("products", [])],
        [ProcessNode(row["id"], row.get("label", "")) for row in doc.get("processes", [])],
        [SkillNode(row["id"], row.get("label", "")) for row in doc.get("skills", [])],
        [(row["product"], row["process"], FlowRole(row["role"])) for row in doc.get("flows", [])],
        [(row["process"], row["skill"]) for row in doc.get("skill_edges", [])],
        [FastensLink(row["fastener"], row.get("secures", [])) for row in doc.get("fastens", [])],
    ),
    "plan": lambda doc: Plan(
        doc.get("model_id", ""), doc.get("model_digest", ""),
        [PlanStep(row["process"], Direction(row["direction"]), row.get("consumed", []),
                  row.get("produced", []), row.get("required_skills", [])) for row in doc["steps"]],
    ),
    "twin": lambda doc: PdtInstance(
        doc["instance_id"], doc.get("model_id", ""), doc.get("model_digest", ""),
        {component: Health(state) for component, state in doc.get("health", {}).items()},
        [Event(row["timestamp"], row["kind"], row.get("payload", {}))
         for row in doc.get("events", [])],
    ),
    "state": lambda doc: ExecState(frozenset(doc["present"]), doc.get("substitutions", {})),
    "registry": lambda doc: frozenset().union(*(row.get("skills", []) for row in doc["resources"])),
}

#: Per document kind but the registry, which no template writes, its encoder.
SAVERS = {"model": io.save_model, "plan": io.save_plan, "twin": io.save_instance,
          "state": io.save_state}


#: A parse-error's path: names and indices up to the first space or colon of its detail.
PATH_STEPS = re.compile(r"\[([^\]]*)\]|\.?([^.\[]+)")


def _locates(doc, detail: str) -> bool:
    """Whether the path a ``parse-error`` detail names resolves in ``doc``: every step but
    the last to a value, and the last to a value or a key its object does not hold. An
    unknown key is named after the path of its object, which must hold it."""
    path, _, rest = re.split("([ :])", detail, maxsplit=1)
    if rest.startswith(" unknown key "):
        obj = doc if path == "document" else _resolve(doc, PATH_STEPS.findall(path))
        return type(obj) is dict and ast.literal_eval(rest[len(" unknown key "):]) in obj
    *steps, (index, name) = PATH_STEPS.findall(path)
    value = _resolve(doc, steps)
    if type(value) is list:
        return int(index) < len(value)
    return type(value) is dict and (bool(name) or index in value)


def _resolve(doc, steps):
    for index, name in steps:
        doc = doc[int(index)] if type(doc) is list else doc[index or name]
    return doc


def _loads_as_python_builds(kind: str, document: bytes) -> None:
    """``document`` loads to what a Python caller builds from its records and rows, printed
    alike, or raises ``BiPanError`` and nothing else; a ``parse-error`` that the decoder,
    not the JSON codec, finds has a path into the document."""
    try:
        loaded = LOADERS[kind](document)
    except BiPanError as exc:
        try:
            doc = io._parse_json(document)
        except BiPanError:
            return  # a fault of the bytes or of the JSON text, which no path names
        assert exc.code != "parse-error" or _locates(doc, exc.detail), exc.detail
        return
    built = PYTHON_BUILDS[kind](json.loads(document))
    assert loaded == built
    if kind in SAVERS:
        assert SAVERS[kind](loaded) == SAVERS[kind](built)


def _shuffled(value, rnd):
    """``value`` with every array and every object's keys in random order.

    A ``position`` is a coordinate triple, not a collection, so it keeps its order.
    """
    if isinstance(value, dict):
        keys = list(value)
        rnd.shuffle(keys)
        return {k: value[k] if k == "position" else _shuffled(value[k], rnd) for k in keys}
    if isinstance(value, list):
        items = [_shuffled(item, rnd) for item in value]
        rnd.shuffle(items)
        return items
    return value


class TestDecodersAgreeWithPythonCallers:
    """Each document kind's one decoder builds what a Python caller builds from the same
    records and rows, and names a fault it cannot build by a path into the document."""

    @pytest.mark.parametrize("kind", sorted(TARGETS))
    @given(data=st.data())
    def test_mutated_documents_load_as_python_builds_them(self, kind, data):
        _loads_as_python_builds(kind, data.draw(mutated(TARGETS[kind][0]), label="document"))

    @given(st.data())
    def test_mutated_models_load_as_python_builds_them(self, data):
        source = data.draw(st.just(battery_model()) | models(), label="model")
        _loads_as_python_builds("model", data.draw(mutated(io.save_model(source)), label="document"))

    @pytest.mark.parametrize(
        "fields,detail",
        [
            ('"products": {}', "products must be an array"),
            ('"products": {"a": {}}', "products must be an array"),
            ('"flows": {}', "flows must be an array"),
            ('"id": 7', "id must be a string"),
            ('"products": [{"id": "a", "kind": "Fastener", "label": 1}]',
             "products[0].label must be a string"),
            ('"products": [{"id": "a", "kind": ["Fastener"]}]', "products[0].kind must be a string"),
            ('"products": [{"id": "a", "kind": "Fastener", "type_ref": 1}]',
             "products[0].type_ref must be a string"),
            ('"products": [{"id": "a", "kind": "Fastener", "attributes": [["k", "v"]]}]',
             "products[0].attributes must be an object"),
            ('"products": [{"id": "a", "kind": "Fastener", "attributes": {"k": 1}}]',
             "products[0].attributes must map strings to strings"),
            ('"products": [{"id": "a", "kind": "Fastener"}, {"id": "b", "kind": "Elementary"}], '
             '"fastens": [{"fastener": "a", "secures": "b"}]', "fastens[0].secures must be an array"),
            ('"products": [{"id": "a", "kind": "Fastener"}, {"id": "b", "kind": "Elementary"}], '
             '"fastens": [{"fastener": "a", "secures": {"b": 1}}]',
             "fastens[0].secures must be an array"),
            ('"products": [{"id": "a", "kind": "Fastener"}], "processes": [{"id": "p"}], '
             '"flows": [{"product": "a", "process": "p", "role": ["Input"]}]',
             "flows[0].role must be a string"),
        ],
    )
    def test_near_valid_models_name_their_fault(self, fields, detail):
        """Faults a lax decoder could miss: a container of the wrong kind whose iteration
        still yields valid ids or numbers, and a value of the wrong type.
        """
        document = ('{"id": "m", ' + fields + "}").encode("utf-8")
        with pytest.raises(BiPanError) as err:
            io.load_model(document)
        assert (err.value.code, err.value.detail) == ("parse-error", detail)
        assert _locates(json.loads(document), detail)

    @pytest.mark.parametrize("position", ['"123"', '{"1": 0, "2": 0, "3": 0}', '[0, "2", 0]'])
    def test_near_valid_positions_are_refused_by_the_product(self, position):
        """A string or an object that iterates to three numbers, or a numeric string among
        numbers, is no position; ``ProductNode`` says so, as to a Python caller."""
        document = ('{"id": "m", "products": [{"id": "a", "kind": "Fastener", "position": '
                    + position + "}]}").encode("utf-8")
        with pytest.raises(BiPanError) as err:
            io.load_model(document)
        assert (err.value.code, err.value.detail) == (
            "invalid-position", "product 'a': position must be three finite numbers")

    @given(models(), st.randoms(use_true_random=False))
    def test_shuffled_document_gives_same_digest_and_plans(self, model, rnd):
        doc = _shuffled(json.loads(io.save_model(model)), rnd)
        shuffled = io.load_model(json.dumps(doc).encode("utf-8"))
        assert shuffled.digest == model.digest
        assert io.save_plan(assembly_recipe(shuffled)) == io.save_plan(assembly_recipe(model))
        components = sorted(p.id for p in model.products if p.kind in COMPONENT_KINDS)
        broken = rnd.sample(components, rnd.randint(1, min(3, len(components))))
        replacements = {b: f"{b}.new" for b in broken}
        assert io.save_plan(repair_plan(shuffled, broken, replacements)) == io.save_plan(
            repair_plan(model, broken, replacements)
        )

    @given(models(), st.randoms(use_true_random=False))
    def test_edge_rows_in_any_order_build_the_model_of_their_records(self, model, rnd):
        """Edge rows shuffled, some repeated: the decoder and ``BiPanModel`` built from the
        rows give one model, printed alike, whose edges come out sorted and without
        duplicates.
        """
        doc = json.loads(io.save_model(model))
        for key in ("flows", "skill_edges"):
            doc[key] += rnd.sample(doc[key], rnd.randint(0, len(doc[key])))
            rnd.shuffle(doc[key])
        decoded = io._model_from(doc)
        assert io.load_model(json.dumps(doc).encode("utf-8")) == decoded
        for other in (PYTHON_BUILDS["model"](doc), model):
            assert decoded == other and hash(decoded) == hash(other)
            assert repr(decoded) == repr(other)
            assert decoded.adjacency == other.adjacency and decoded.digest == other.digest
            assert io.save_model(decoded) == io.save_model(other)
        flows = [(pid, role.value, product) for product, pid, role in decoded.flows]
        assert flows == sorted(set(flows))
        assert decoded.skill_edges == tuple(sorted(set(decoded.skill_edges)))


@st.composite
def twins(draw):
    """Battery twins with a few health updates, stamped ``...Z`` or ``...+00:00``."""
    twin = create_instance(draw(st.sampled_from(["VIN-1", "b.7_X"])), battery_model())
    components = sorted(twin.health)
    for second in sorted(draw(st.lists(st.integers(0, 3599), unique=True, max_size=5))):
        form = draw(st.sampled_from(["10:{:02d}:{:02d}Z", "10:{:02d}:{:02d}.5+00:00"]))
        stamp = "2024-05-01T" + form.format(*divmod(second, 60))
        component, health = draw(st.sampled_from(components)), draw(st.sampled_from(list(Health)))
        twin = set_health(twin, component, health, stamp)
    return twin


EVENT = '{"timestamp": "2024-05-01T10:00:00Z", "kind": "k"}'
STAMPED = '"events": [{"timestamp": "2024-05-01T10:00:00Z", '


class TestInstanceDocuments:
    @given(st.data())
    def test_mutated_twins_load_as_python_builds_them(self, data):
        twin = data.draw(twins(), label="twin")
        _loads_as_python_builds("twin", data.draw(mutated(io.save_instance(twin)), label="document"))

    @given(twins())
    def test_well_formed_documents_load_to_their_twin(self, twin):
        document = io.save_instance(twin)
        loaded = io.load_instance(document)
        assert loaded == twin and io.save_instance(loaded) == document

    @pytest.mark.parametrize(
        "fields,detail",
        [
            ('"events": {"0": ' + EVENT + "}", "events must be an array"),
            ('"events": {}', "events must be an array"),
            ('"events": ""', "events must be an array"),
            ('"events": [["2024-05-01T10:00:00Z", "k"]]', "events[0] must be an object"),
            ('"health": [["a", "Ok"]]', "health must be an object"),
            ('"health": {"a": ["Ok"]}', "health[a] must be a string"),
            ('"health": {"a": "ok"}', "health[a]: 'ok' is not one of Ok, Degraded, Broken, Unknown"),
            (STAMPED + '"kind": "k", "payload": [["k", "v"]]}]', "events[0].payload must be an object"),
            (STAMPED + '"kind": "k", "payload": null}]', "events[0].payload must be an object"),
            (STAMPED + '"kind": "k", "payload": {"k": 1}}]',
             "events[0].payload must map strings to strings"),
            ('"events": [{"timestamp": 1, "kind": "k"}]', "events[0].timestamp must be a string"),
            (STAMPED + '"kind": 1}]', "events[0].kind must be a string"),
            ('"model_id": null', "model_id must be a string"),
            ('"model_digest": 1', "model_digest must be a string"),
            ('"instance_id": 7', "instance_id must be a string"),
            ('"events": [{"timestamp": "2024-05-01T11:00:00Z", "kind": 1}, ' + EVENT + "]",
             "events[0].kind must be a string"),
            ('"model_id": null, "events": [{"timestamp": "2024-05-01T11:00:00Z", "kind": "k"}, '
             + EVENT + "]", "model_id must be a string"),
        ],
    )
    def test_near_valid_documents_name_their_fault(self, fields, detail):
        """Faults a lax decoder could miss: a container of the wrong kind whose iteration or
        conversion still succeeds, a value of the wrong type, and a time regression after an
        earlier fault.
        """
        document = ('{"instance_id": "V", ' + fields + "}").encode("utf-8")
        with pytest.raises(BiPanError) as err:
            io.load_instance(document)
        assert (err.value.code, err.value.detail) == ("parse-error", detail)
        assert _locates(json.loads(document), detail)


class TestPlanDocuments:
    def test_round_trip(self, f1):
        for plan in (
            assembly_recipe(f1),
            full_disassembly(f1),
            repair_plan(f1, ["mod8"], {"mod8": "mod8r"}),
        ):
            assert io.load_plan(io.save_plan(plan)) == plan

    def test_golden_assembly_plan(self, f1, fixtures_dir):
        assert io.save_plan(assembly_recipe(f1)) == (
            fixtures_dir / "f1_assembly.plan.json"
        ).read_bytes()

    def test_golden_repair_plan(self, f1, fixtures_dir):
        assert io.save_plan(repair_plan(f1, ["mod8"], {"mod8": "mod8r"})) == (
            fixtures_dir / "f1_repair_mod8.plan.json"
        ).read_bytes()

    def test_swap_without_ids_is_parse_error(self):
        doc = {
            "model_digest": "0" * 64,
            "model_id": "m",
            "steps": [
                {
                    "consumed": ["x"],
                    "direction": "Swap",
                    "process": "p",
                    "produced": ["y"],
                    "required_skills": [],
                }
            ],
        }
        with pytest.raises(BiPanError) as err:
            io.load_plan(json.dumps(doc).encode("utf-8"))
        assert err.value.code == "parse-error"


class TestStateAndRegistry:
    def test_state_round_trip(self):
        from bipan.execute import ExecState

        state = ExecState(frozenset({"battery", "mod8"}), {"mod8": "mod8r"})
        assert io.load_state(io.save_state(state)) == state

    def test_registry_pools_skills(self, fixtures_dir):
        skills = io.load_registry((fixtures_dir / "registry_no_cables.json").read_bytes())
        assert skills == frozenset({"manipulation", "screwing", "unscrewing"})
        pooled = io.load_registry(
            b'{"resources": [{"id": "b", "skills": ["screwing", "manipulation"]},'
            b' {"id": "a", "skills": ["screwing"]}, {"id": "c"}]}'
        )
        assert pooled == frozenset({"manipulation", "screwing"})


class TestDotExport:
    def test_golden_dot(self, f1, fixtures_dir):
        assert exchange.export_dot(f1).encode("utf-8") == (fixtures_dir / "f1.dot").read_bytes()

    def test_counts_match_model(self, f1):
        lines = exchange.export_dot(f1).splitlines()
        node_lines = [l for l in lines if "shape=" in l and "->" not in l]
        flow_lines = [l for l in lines if "dir=both" in l]
        skill_lines = [l for l in lines if "goldenrod" in l]
        assert len(node_lines) == 28 + 5 + 3
        assert len(flow_lines) == 32
        assert len(skill_lines) == 10

    def test_empty_model(self):
        dot = exchange.export_dot(io.load_model(b'{"id": "empty"}'))
        assert dot == 'digraph bipan {\n  graph [rankdir=TB];\n  node [fontname="Helvetica"];\n}\n'

    def test_plan_overlay_numbers_every_step(self, f1):
        plan = repair_plan(f1, ["mod8"], {"mod8": "mod8r"})
        lines = exchange.export_dot(f1, plan).splitlines()
        red_edges = [l for l in lines if "color=red" in l and "->" in l]
        assert len(red_edges) == 7
        assert 'label="1"' in red_edges[0] and 'label="7"' in red_edges[-1]
        # the replacement item gets a declared (dashed) node
        assert any('"mod8r" [shape=circle, style=dashed' in l for l in lines)

    def test_deterministic(self, f1):
        plan = full_disassembly(f1)
        assert exchange.export_dot(f1, plan) == exchange.export_dot(f1, plan)
