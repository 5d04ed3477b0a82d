import dataclasses
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given

from bipan.canon import canonical_bytes
from bipan.errors import BiPanError
from bipan.model import FastensLink, FlowEdge, FlowRole, ProductKind, ProductNode
from bipan.validate import Diagnostic, Severity, ensure_valid, validate
from mutations import MUTANTS, drop_flows
from strategies import models


def codes_of(diags):
    return {d.code for d in diags.items}


def test_battery_fixture_is_clean(f1):
    assert validate(f1).items == ()


def test_validation_is_deterministic(f1):
    mutated = MUTANTS["V006"][0](f1)
    first = canonical_bytes(validate(mutated).to_obj())
    second = canonical_bytes(validate(mutated).to_obj())
    assert first == second


@pytest.mark.parametrize("code", sorted(MUTANTS))
def test_each_mutation_triggers_its_code(f1, code):
    mutate, node = MUTANTS[code]
    diags = validate(mutate(f1))
    assert diags.items, "mutation must never yield zero findings"
    assert code in codes_of(diags)
    hits = [d for d in diags.items if d.code == code]
    if node is not None:
        assert any(node in d.nodes for d in hits)


def test_exact_sets_for_local_mutations(f1):
    assert codes_of(validate(MUTANTS["V003"][0](f1))) == {"V003"}
    assert codes_of(validate(MUTANTS["V004"][0](f1))) == {"V004", "V006"}
    assert codes_of(validate(MUTANTS["V005"][0](f1))) == {"V004", "V005"}
    assert codes_of(validate(MUTANTS["V007"][0](f1))) == {"V007"}
    assert codes_of(validate(MUTANTS["V008"][0](f1))) == {"V005", "V008"}


def test_dropped_stage_edge_details(f1):
    diags = validate(drop_flows(f1, ("stage4", "p5", FlowRole.INPUT)))
    v006 = [d for d in diags.items if d.code == "V006"]
    assert [d.nodes[0] for d in v006] == ["stage4"]
    assert "V002" not in codes_of(diags)
    unreachable = {d.nodes[0] for d in diags.items if d.code == "V010"}
    assert "p1" in unreachable and "mod5" in unreachable
    assert "screws2" not in unreachable
    # skills only used upstream of the cut are unreachable too
    assert "connecting-cables" in unreachable
    assert "manipulation" not in unreachable


def test_rekinded_final_keeps_reachability_quiet(f1):
    # With no Final product the sink product anchors reachability instead.
    diags = validate(MUTANTS["V004"][0](f1))
    assert "V010" not in codes_of(diags)


def test_missing_skills_is_warning_only(f1):
    stripped = dataclasses.replace(f1, skill_edges=tuple(e for e in f1.skill_edges if e.process != "p4"))
    diags = validate(stripped)
    assert codes_of(diags) == {"V009"}
    assert not diags.has_errors
    assert diags.items[0].severity is Severity.WARNING


def test_detached_node_is_warning_only(f1):
    extra = dataclasses.replace(
        f1, products=(*f1.products, ProductNode("spare", "Spare part", ProductKind.ELEMENTARY))
    )
    diags = validate(extra)
    assert codes_of(diags) == {"V010"}
    assert not diags.has_errors


def test_fastens_not_co_inputs(f1):
    # screws1 feeds p1 but mod8 feeds p2: no common process hosts both.
    bad = dataclasses.replace(f1, fastens=(FastensLink("screws1", frozenset({"mod8"})),))
    diags = validate(bad)
    assert codes_of(diags) == {"V011"}


def test_fastens_host_matches_brute_force(f1):
    # V011's common host is looked for among the fastener's consumers only; it
    # must agree with a search over every process, including on a model where a
    # fastener has two consumers.
    rng = random.Random(11)
    fasteners = sorted(p.id for p in f1.products if p.kind is ProductKind.FASTENER)
    doubled = dataclasses.replace(
        f1, flows=(*f1.flows, FlowEdge("screws1", "p2", FlowRole.INPUT))
    )
    outcomes = set()
    for model in (f1, doubled):
        for _ in range(200):
            fastener = rng.choice(fasteners)
            siblings = model.inputs_of(rng.choice(model.processes).id)
            pool = sorted({*siblings, *rng.sample([p.id for p in model.products], 2)} - {fastener})
            link = FastensLink(fastener, frozenset(rng.sample(pool, rng.randint(0, 3))))
            members = {link.fastener, *link.secures}
            hosted = any(members <= set(model.inputs_of(p.id)) for p in model.processes)
            diags = validate(dataclasses.replace(model, fastens=(link,)))
            assert ("V011" in codes_of(diags)) is not hosted
            outcomes.add(hosted)
    assert outcomes == {True, False}


def test_fastens_wrong_kind(f1):
    bad = dataclasses.replace(f1, fastens=(FastensLink("box", frozenset({"cooling"})),))
    assert codes_of(validate(bad)) == {"V011"}


def test_fastens_valid_link_is_quiet(f1):
    good = dataclasses.replace(f1, fastens=(FastensLink("bolts1", frozenset({"mod1", "mod2"})),))
    assert validate(good).items == ()


def test_non_finite_position(f1):
    products = tuple(
        dataclasses.replace(p, position=(math.nan, 0.0, 0.0)) if p.id == "mod1" else p
        for p in f1.products
    )
    diags = validate(dataclasses.replace(f1, products=products))
    assert codes_of(diags) == {"V012"}


def test_items_sorted_by_code_then_node(f1):
    mutated = MUTANTS["V006"][0](f1)
    diags = validate(mutated)
    keys = [(d.code, d.nodes[0] if d.nodes else "") for d in diags.items]
    assert keys == sorted(keys)


def test_ensure_valid_raises_summary(f1):
    with pytest.raises(BiPanError) as err:
        ensure_valid(MUTANTS["V004"][0](f1))
    assert err.value.code == "invalid-model"
    assert "V004" in err.value.detail


@given(models())
def test_generated_models_have_no_errors(model):
    assert not validate(model).has_errors


def test_readme_table_matches():
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("## Validation codes", 1)[1]
    rows = re.findall(r"^\| (V\d{3}) \| (error|warning) \|", section, re.MULTILINE)
    source = (root / "src" / "bipan" / "validate.py").read_text(encoding="utf-8")
    assert {code for code, _ in rows} == set(re.findall(r'"(V0\d\d)"', source))
    assert len(rows) == 12
    for code, severity in rows:
        assert Diagnostic(code, (), "").severity.value.lower() == severity, code
