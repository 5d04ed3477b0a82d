import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipan.canon import canonical_bytes
from bipan.errors import BiPanError
from bipan.model import (
    BiPanModel,
    FastensLink,
    FlowRole,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
    replace,
)
from bipan.validate import Diagnostic, Severity, validate
from mutations import MUTANTS, drop_flows
from strategies import models


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
    assert code in diags.codes()
    hits = [d for d in diags.items if d.code == code]
    if node is not None:
        assert any(node in d.nodes for d in hits)


def test_exact_sets_for_local_mutations(f1):
    assert validate(MUTANTS["V003"][0](f1)).codes() == ("V003",)
    assert validate(MUTANTS["V004"][0](f1)).codes() == ("V004", "V006")
    assert validate(MUTANTS["V005"][0](f1)).codes() == ("V004", "V005")
    assert validate(MUTANTS["V007"][0](f1)).codes() == ("V007",)
    assert validate(MUTANTS["V008"][0](f1)).codes() == ("V005", "V008")


def test_dropped_stage_edge_details(f1):
    diags = validate(drop_flows(f1, ("stage4", "p5", FlowRole.INPUT)))
    v006 = [d for d in diags.items if d.code == "V006"]
    assert [d.nodes[0] for d in v006] == ["stage4"]
    assert "V002" not in diags.codes()
    unreachable = {d.nodes[0] for d in diags.items if d.code == "V010"}
    assert "p1" in unreachable and "mod5" in unreachable
    assert "screws2" not in unreachable
    # skills only used upstream of the cut are unreachable too
    assert "connecting-cables" in unreachable
    assert "manipulation" not in unreachable


def test_rekinded_final_keeps_reachability_quiet(f1):
    # With no Final product the sink product anchors reachability instead.
    diags = validate(MUTANTS["V004"][0](f1))
    assert "V010" not in diags.codes()


def test_missing_skills_is_warning_only(f1):
    stripped = replace(f1, skill_edges=tuple(e for e in f1.skill_edges if e[0] != "p4"))
    diags = validate(stripped)
    assert diags.codes() == ("V009",)
    assert not diags.has_errors
    assert diags.items[0].severity is Severity.WARNING


def test_detached_node_is_warning_only(f1):
    extra = replace(
        f1, products=(*f1.products, ProductNode("spare", "Spare part", ProductKind.ELEMENTARY))
    )
    diags = validate(extra)
    assert diags.codes() == ("V010",)
    assert not diags.has_errors


def test_fastens_not_co_inputs(f1):
    # screws1 feeds p1 but mod8 feeds p2: no common process hosts both.
    bad = replace(f1, fastens=(FastensLink("screws1", frozenset({"mod8"})),))
    diags = validate(bad)
    assert diags.codes() == ("V011",)


def test_fastens_host_matches_brute_force(f1):
    # V011's common host is looked for among the fastener's consumers only; it
    # must agree with a search over every process, including on a model where a
    # fastener has two consumers.
    rng = random.Random(11)
    fasteners = sorted(p.id for p in f1.products if p.kind is ProductKind.FASTENER)
    doubled = replace(
        f1, flows=(*f1.flows, ("screws1", "p2", FlowRole.INPUT))
    )
    outcomes = set()
    for model in (f1, doubled):
        for _ in range(200):
            fastener = rng.choice(fasteners)
            siblings = model.adjacency.inputs[rng.choice(model.processes).id]
            pool = sorted({*siblings, *rng.sample([p.id for p in model.products], 2)} - {fastener})
            link = FastensLink(fastener, frozenset(rng.sample(pool, rng.randint(0, 3))))
            members = {link.fastener, *link.secures}
            hosted = any(members <= set(model.adjacency.inputs[p.id]) for p in model.processes)
            diags = validate(replace(model, fastens=(link,)))
            assert ("V011" in diags.codes()) is not hosted
            outcomes.add(hosted)
    assert outcomes == {True, False}


def test_fastens_wrong_kind(f1):
    bad = replace(f1, fastens=(FastensLink("box", frozenset({"cooling"})),))
    assert validate(bad).codes() == ("V011",)


def test_fastens_valid_link_is_quiet(f1):
    good = replace(f1, fastens=(FastensLink("bolts1", frozenset({"mod1", "mod2"})),))
    assert validate(good).items == ()


def test_non_finite_position(f1):
    """A non-finite position is no finding: a product holding one cannot be built."""
    with pytest.raises(BiPanError) as err:
        replace(f1.product("mod1"), position=(math.nan, 0.0, 0.0))
    assert (err.value.code, err.value.detail) == (
        "invalid-position", "product 'mod1': position must be three finite numbers"
    )


def test_items_sorted_by_code_then_node(f1):
    mutated = MUTANTS["V006"][0](f1)
    diags = validate(mutated)
    keys = [(d.code, d.nodes[0] if d.nodes else "") for d in diags.items]
    assert keys == sorted(keys)


def test_ensure_valid_raises_summary(f1):
    with pytest.raises(BiPanError) as err:
        MUTANTS["V004"][0](f1).ensure_valid()
    assert err.value.code == "invalid-model"
    assert "V004" in err.value.detail


@given(models())
def test_generated_models_have_no_errors(model):
    assert not validate(model).has_errors


@st.composite
def flow_graphs(draw):
    """Small models with random flows and kinds, at least two flows a process: one
    or several cycles above or below a final, shared producers or consumers,
    detached nodes, and zero or several finals. Ids interleave the three families
    in sort order."""
    ids = draw(st.permutations([f"n{i}" for i in range(24)]))
    n_products, n_processes = draw(st.integers(1, 12)), draw(st.integers(0, 8))
    n_skills = draw(st.integers(0, 3))
    product_ids = ids[:n_products]
    process_ids = ids[n_products : n_products + n_processes]
    skill_ids = ids[n_products + n_processes : n_products + n_processes + n_skills]
    kinds = st.sampled_from(ProductKind)
    products = tuple(ProductNode(i, i, draw(kinds)) for i in product_ids)
    flows, skill_edges = (), ()
    if process_ids:
        flow = st.tuples(
            st.sampled_from(product_ids), st.sampled_from(process_ids), st.sampled_from(FlowRole),
        )
        flows = tuple(draw(st.lists(flow, min_size=2 * n_processes, max_size=28)))
        if skill_ids:
            edge = st.tuples(st.sampled_from(process_ids), st.sampled_from(skill_ids))
            skill_edges = tuple(draw(st.lists(edge, max_size=6)))
    return BiPanModel(
        "g",
        products,
        tuple(ProcessNode(i, i) for i in process_ids),
        tuple(SkillNode(i, i) for i in skill_ids),
        flows,
        skill_edges,
    )


def brute_force_v008_v010(model):
    """V008 and V010 findings from their definitions, sharing no code with validate."""
    all_ids = [n.id for n in (*model.products, *model.processes, *model.skills)]
    flow_ids = [n.id for n in (*model.products, *model.processes)]
    successors = {node_id: set() for node_id in all_ids}
    for product, process, role in model.flows:
        if role is FlowRole.INPUT:
            successors[product].add(process)
        else:
            successors[process].add(product)

    def reach(start, step):
        seen, todo = {start}, [start]
        while todo:
            for nxt in step(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reachable = {n: reach(n, successors.__getitem__) for n in flow_ids}
    components = {
        tuple(sorted(m for m in flow_ids if m in reachable[n] and n in reachable[m]))
        for n in flow_ids
    }
    found = [
        ("V008", c, "flow graph contains a cycle involving: " + ", ".join(c))
        for c in sorted(components)
        if len(c) > 1
    ]

    # Reverse reachability from the finals, or from the sink products without one.
    sources = {node_id: set() for node_id in all_ids}
    for product, process, role in model.flows:
        if role is FlowRole.INPUT:
            sources[process].add(product)
        else:
            sources[product].add(process)
    for process, skill in model.skill_edges:
        sources[process].add(skill)
    roots = [p.id for p in model.products if p.kind is ProductKind.FINAL]
    if not roots:
        consumed = {product for product, _, role in model.flows if role is FlowRole.INPUT}
        roots = [p.id for p in model.products if p.id not in consumed]
    visited = set()
    for root in roots:
        visited |= reach(root, sources.__getitem__)
    found += [
        ("V010", (n,), f"'{n}' is unreachable from the final product")
        for n in sorted(set(all_ids) - visited)
    ]
    return found


@settings(max_examples=300)
@given(flow_graphs())
def test_cycles_and_reachability_match_brute_force(model):
    findings = [
        (d.code, d.nodes, d.message) for d in validate(model).items if d.code in ("V008", "V010")
    ]
    assert findings == brute_force_v008_v010(model)


def test_readme_table_matches():
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("## Validation codes", 1)[1]
    rows = re.findall(r"^\| (V\d{3}) \| (error|warning) \|", section, re.MULTILINE)
    source = (root / "src" / "bipan" / "validate.py").read_text(encoding="utf-8")
    assert {code for code, _ in rows} == set(re.findall(r'"(V0\d\d)"', source))
    assert len(rows) == 11
    for code, severity in rows:
        assert Diagnostic(code, (), "").severity.value.lower() == severity, code
