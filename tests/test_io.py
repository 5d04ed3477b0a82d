import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipan import canon, exchange, io, schema
from bipan.errors import BiPanError
from bipan.fixtures import battery_model
from bipan.model import COMPONENT_KINDS, BiPanModel, FastensLink, FlowRole
from bipan.pdt import Health, create_instance, set_health
from bipan.plan import assembly_recipe, full_disassembly, repair_plan
from bipan.validate import validate
from strategies import models
from test_cli_contract import mutated


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


def _outcome(decode, data: bytes):
    """The saved bytes of the decoded model, or the code and detail of its error."""
    try:
        return io.save_model(decode(data))
    except BiPanError as exc:
        return exc.code, exc.detail


def _spec_decode(data: bytes):
    return schema.model(io._parse_json(data), "")


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


class TestModelDecodePaths:
    """``load_model`` decodes well-formed documents directly and every other one
    with the field-spec decoder; both must give the same model or the same error.
    """

    @given(st.data())
    def test_mutated_documents_decode_alike(self, data):
        source = data.draw(st.just(battery_model()) | models(), label="model")
        document = data.draw(mutated(io.save_model(source)), label="document")
        assert _outcome(io.load_model, document) == _outcome(_spec_decode, document)

    @pytest.mark.parametrize(
        "fields",
        [
            '"products": {}',
            '"products": {"a": {}}',
            '"flows": {}',
            '"id": 7',
            '"products": [{"id": "a", "kind": "Fastener", "label": 1}]',
            '"products": [{"id": "a", "kind": ["Fastener"]}]',
            '"products": [{"id": "a", "kind": "Fastener", "type_ref": 1}]',
            '"products": [{"id": "a", "kind": "Fastener", "position": "123"}]',
            '"products": [{"id": "a", "kind": "Fastener", "position": {"1": 0, "2": 0, "3": 0}}]',
            '"products": [{"id": "a", "kind": "Fastener", "position": [0, "2", 0]}]',
            '"products": [{"id": "a", "kind": "Fastener", "attributes": [["k", "v"]]}]',
            '"products": [{"id": "a", "kind": "Fastener", "attributes": {"k": 1}}]',
            '"products": [{"id": "a", "kind": "Fastener"}, {"id": "b", "kind": "Elementary"}], '
            '"fastens": [{"fastener": "a", "secures": "b"}]',
            '"products": [{"id": "a", "kind": "Fastener"}, {"id": "b", "kind": "Elementary"}], '
            '"fastens": [{"fastener": "a", "secures": {"b": 1}}]',
            '"products": [{"id": "a", "kind": "Fastener"}], "processes": [{"id": "p"}], '
            '"flows": [{"product": "a", "process": "p", "role": ["Input"]}]',
        ],
    )
    def test_near_valid_documents_decode_alike(self, fields):
        """Faults a direct decoder could miss: a container of the wrong kind whose
        iteration still yields valid ids or numbers, and a value of the wrong type.
        """
        document = ('{"id": "m", ' + fields + "}").encode("utf-8")
        outcome = _outcome(io.load_model, document)
        assert outcome == _outcome(_spec_decode, document)
        assert isinstance(outcome, tuple)

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
        """Edge rows shuffled, some repeated: the direct decoder, the field-spec decoder
        and ``BiPanModel`` built from the rows give one model, printed alike, whose edges
        come out sorted and without duplicates.
        """
        doc = json.loads(io.save_model(model))
        for key in ("flows", "skill_edges"):
            doc[key] += rnd.sample(doc[key], rnd.randint(0, len(doc[key])))
            rnd.shuffle(doc[key])
        rows = BiPanModel(
            model.id, model.products, model.processes, model.skills,
            [(row["product"], row["process"], FlowRole(row["role"])) for row in doc["flows"]],
            [(row["process"], row["skill"]) for row in doc["skill_edges"]],
            [FastensLink(row["fastener"], row["secures"]) for row in doc["fastens"]],
        )
        direct = io._direct_model(doc)
        assert io.load_model(json.dumps(doc).encode("utf-8")) == direct
        for other in (rows, schema.model(doc, ""), model):
            assert direct == other and hash(direct) == hash(other) and repr(direct) == repr(other)
            assert direct.adjacency == other.adjacency and direct.digest == other.digest
            assert io.save_model(direct) == io.save_model(other)
        flows = [(pid, role.value, product) for product, pid, role in direct.flows]
        assert flows == sorted(set(flows))
        assert direct.skill_edges == tuple(sorted(set(direct.skill_edges)))


def _twin_outcome(decode, data: bytes):
    """The decoded twin and its saved bytes, or the code and detail of its error."""
    try:
        twin = decode(data)
    except BiPanError as exc:
        return exc.code, exc.detail
    return twin, io.save_instance(twin)


def _spec_decode_twin(data: bytes):
    return schema.instance(io._parse_json(data), "")


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


class TestInstanceDecodePaths:
    """``load_instance`` decodes well-formed twin documents directly and every
    other one with the field-spec decoder; both must give the same twin or the
    same error.
    """

    @given(st.data())
    def test_mutated_documents_decode_alike(self, data):
        twin = data.draw(twins(), label="twin")
        document = data.draw(mutated(io.save_instance(twin)), label="document")
        outcome = _twin_outcome(io.load_instance, document)
        assert outcome == _twin_outcome(_spec_decode_twin, document)

    @given(twins())
    def test_well_formed_documents_decode_alike(self, twin):
        document = io.save_instance(twin)
        assert _twin_outcome(io.load_instance, document) == (twin, document)
        assert _twin_outcome(_spec_decode_twin, document) == (twin, document)

    @pytest.mark.parametrize(
        "fields",
        [
            '"events": {"0": ' + EVENT + "}",
            '"events": {}',
            '"events": ""',
            '"events": [["2024-05-01T10:00:00Z", "k"]]',
            '"health": [["a", "Ok"]]',
            '"health": {"a": ["Ok"]}',
            '"health": {"a": "ok"}',
            STAMPED + '"kind": "k", "payload": [["k", "v"]]}]',
            STAMPED + '"kind": "k", "payload": null}]',
            STAMPED + '"kind": "k", "payload": {"k": 1}}]',
            '"events": [{"timestamp": 1, "kind": "k"}]',
            STAMPED + '"kind": 1}]',
            '"model_id": null',
            '"model_digest": 1',
            '"instance_id": 7',
            '"events": [{"timestamp": "2024-05-01T11:00:00Z", "kind": 1}, ' + EVENT + "]",
            '"model_id": null, "events": [{"timestamp": "2024-05-01T11:00:00Z", "kind": "k"}, '
            + EVENT + "]",
        ],
    )
    def test_near_valid_documents_decode_alike(self, fields):
        """Faults a direct decoder could miss: a container of the wrong kind whose
        iteration or conversion still succeeds, a value of the wrong type, and a
        time regression after an earlier fault.
        """
        document = ('{"instance_id": "V", ' + fields + "}").encode("utf-8")
        outcome = _twin_outcome(io.load_instance, document)
        assert outcome == _twin_outcome(_spec_decode_twin, document)
        assert isinstance(outcome[0], str)


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
