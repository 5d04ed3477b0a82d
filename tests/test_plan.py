import random

import pytest
from hypothesis import given

from bipan.errors import BiPanError
from bipan.execute import ExecState, initial_inventory, run
from bipan.model import (
    INVERSION,
    Adjacency,
    BiPanModel,
    Direction,
    FastensLink,
    FlowRole,
    ProcessNode,
    ProductKind,
    ProductNode,
    SkillNode,
    replace,
)
from bipan.plan import (
    DisassemblyMode,
    assembly_recipe,
    check_feasibility,
    disassembly_to,
    full_disassembly,
    repair_plan,
)
from bipan import canon, io
from mutations import MUTANTS
from strategies import build_random_model, models


def directions(plan):
    return [(step.direction, step.process) for step in plan.steps]


def counting_adjacency(model):
    """Swap in neighbour maps that count, by map name, the lookups made and the ids handed out.

    Cache the model's diagnostics and digest first, so only the planner's reads are counted.
    """
    counts = {name: {"lookups": 0, "ids": 0} for name in Adjacency._fields}

    def counting(name, mapping):
        tally = counts[name]

        class Counting(dict):
            def __getitem__(self, key):
                ids = dict.__getitem__(self, key)
                tally["lookups"] += 1
                tally["ids"] += len(ids)
                return ids

            def get(self, key, default=None):  # ``dict.get`` would bypass ``__getitem__``
                return self[key] if key in self else default

        return Counting(mapping)

    maps = (counting(name, mapping) for name, mapping in model.adjacency._asdict().items())
    object.__setattr__(model, "adjacency", Adjacency(*maps))
    return counts


def root_first_chain(model, product):
    """The processes from the root down to ``product``'s consumer, read off ``model.flows``."""
    consumer = {product: pid for product, pid, role in model.flows if role is FlowRole.INPUT}
    output = {pid: product for product, pid, role in model.flows if role is FlowRole.OUTPUT}
    chain = []
    while product in consumer:
        chain.append(consumer[product])
        product = output[chain[-1]]
    return chain[::-1]


def single_process_model():
    return BiPanModel(
        id="single",
        products=(
            ProductNode("a", "A", ProductKind.ELEMENTARY),
            ProductNode("b", "B", ProductKind.ELEMENTARY),
            ProductNode("fin", "Fin", ProductKind.FINAL),
        ),
        processes=(ProcessNode("q", "Q"),),
        skills=(SkillNode("manipulation", "manipulation"),),
        flows=(
            ("a", "q", FlowRole.INPUT),
            ("b", "q", FlowRole.INPUT),
            ("fin", "q", FlowRole.OUTPUT),
        ),
        skill_edges=(("q", "manipulation"),),
    )


class TestAssembly:
    def test_battery_recipe(self, f1):
        plan = assembly_recipe(f1)
        assert plan.process_sequence() == ("p1", "p2", "p3", "p4", "p5")
        assert all(step.direction is Direction.FORWARD for step in plan.steps)
        assert plan.steps[1].required_skills == ("connecting-cables", "manipulation", "screwing")
        assert plan.steps[0].consumed == ("box", "cooling", "screws1")
        assert plan.steps[0].produced == ("stage1",)

    def test_single_process(self):
        plan = assembly_recipe(single_process_model())
        assert directions(plan) == [(Direction.FORWARD, "q")]

    def test_order_is_structural_not_lexicographic(self, f1):
        # Swap the ids of the third and fourth process: the chain still forces
        # the same structural order, so "p4" now comes before "p3".
        renames = {"p3": "p4", "p4": "p3"}
        model = BiPanModel(
            id=f1.id,
            products=f1.products,
            processes=tuple(
                replace(p, id=renames.get(p.id, p.id)) for p in f1.processes
            ),
            skills=f1.skills,
            flows=tuple(
                (product, renames.get(pid, pid), role) for product, pid, role in f1.flows
            ),
            skill_edges=tuple((renames.get(pid, pid), skill) for pid, skill in f1.skill_edges),
        )
        assert assembly_recipe(model).process_sequence() == ("p1", "p2", "p4", "p3", "p5")

    def test_invalid_model_rejected(self, f1):
        with pytest.raises(BiPanError) as err:
            assembly_recipe(MUTANTS["V006"][0](f1))
        assert err.value.code == "invalid-model"


class TestDisassembly:
    def test_full(self, f1):
        plan = full_disassembly(f1)
        assert plan.process_sequence() == ("p5", "p4", "p3", "p2", "p1")
        assert all(step.direction is Direction.REVERSE for step in plan.steps)
        p2 = plan.steps[3]
        assert p2.required_skills == ("disconnecting-cables", "manipulation", "unscrewing")
        assert p2.consumed == ("stage2",)

    def test_single_process(self):
        plan = full_disassembly(single_process_model())
        assert directions(plan) == [(Direction.REVERSE, "q")]

    def test_expose_and_extract(self, f1):
        expose = disassembly_to(f1, "mod5", DisassemblyMode.EXPOSE)
        extract = disassembly_to(f1, "mod5", DisassemblyMode.EXTRACT)
        assert expose.process_sequence() == ("p5", "p4", "p3")
        assert extract.process_sequence() == ("p5", "p4", "p3", "p2")

    def test_expose_of_topmost_input_is_empty(self, f1):
        assert disassembly_to(f1, "cover", DisassemblyMode.EXPOSE).steps == ()

    def test_target_errors(self, f1):
        with pytest.raises(BiPanError) as err:
            disassembly_to(f1, "battery", DisassemblyMode.EXPOSE)
        assert err.value.code == "target-is-final"
        with pytest.raises(BiPanError) as err:
            disassembly_to(f1, "warp-coil", DisassemblyMode.EXPOSE)
        assert err.value.code == "unknown-node"

    @given(models())
    def test_extract_is_expose_plus_one(self, model):
        (final,) = model.final_products()
        for product in model.products:
            if product.kind is ProductKind.FINAL:
                continue
            expose = disassembly_to(model, product.id, DisassemblyMode.EXPOSE)
            extract = disassembly_to(model, product.id, DisassemblyMode.EXTRACT)
            assert extract.steps[: len(expose.steps)] == expose.steps
            assert len(extract.steps) == len(expose.steps) + 1
            assert extract.steps[-1].process == model.adjacency.consumers[product.id][0]

    @given(models())
    def test_extract_reverses_the_chain_up_from_the_target(self, model):
        consumed = {product for product, _, role in model.flows if role is FlowRole.INPUT}
        outputs = {pid: (product,) for product, pid, role in model.flows
                   if role is FlowRole.OUTPUT}
        for product in sorted(consumed - set(model.final_products())):
            chain = root_first_chain(model, product)
            plan = disassembly_to(model, product, DisassemblyMode.EXTRACT)
            assert plan.process_sequence() == tuple(chain)
            assert all(step.direction is Direction.REVERSE for step in plan.steps)
            assert [step.consumed for step in plan.steps] == [outputs[pid] for pid in chain]


class TestRepair:
    def test_single_swap_site(self, f1):
        plan = repair_plan(f1, ["mod8"], {"mod8": "mod8r"})
        assert directions(plan) == [
            (Direction.REVERSE, "p5"),
            (Direction.REVERSE, "p4"),
            (Direction.REVERSE, "p3"),
            (Direction.SWAP, "p2"),
            (Direction.FORWARD, "p3"),
            (Direction.FORWARD, "p4"),
            (Direction.FORWARD, "p5"),
        ]
        swap = plan.steps[3]
        assert swap.consumed == ("mod8r",)
        assert swap.produced == ("mod8",)
        assert swap.swap_target == "mod8"
        assert swap.swap_replacement == "mod8r"
        assert swap.required_skills == (
            "connecting-cables",
            "disconnecting-cables",
            "manipulation",
            "screwing",
            "unscrewing",
        )

    def test_swap_at_final(self, f1):
        plan = repair_plan(f1, ["cover"], {"cover": "coverr"})
        assert directions(plan) == [(Direction.SWAP, "p5")]

    def test_two_sites_single_pass(self, f1):
        plan = repair_plan(f1, ["mod2", "blanket"], {"mod2": "mod2r", "blanket": "blanketr"})
        assert directions(plan) == [
            (Direction.REVERSE, "p5"),
            (Direction.SWAP, "p4"),
            (Direction.REVERSE, "p4"),
            (Direction.REVERSE, "p3"),
            (Direction.SWAP, "p2"),
            (Direction.FORWARD, "p3"),
            (Direction.FORWARD, "p4"),
            (Direction.FORWARD, "p5"),
        ]
        # Once blanket is swapped, later steps speak of its replacement.
        reverse_p4 = plan.steps[2]
        assert "blanketr" in reverse_p4.produced and "blanket" not in reverse_p4.produced
        forward_p4 = plan.steps[6]
        assert "blanketr" in forward_p4.consumed

    def test_nested_sites(self, f1):
        plan = repair_plan(f1, ["mod2", "cooling"], {"mod2": "mod2r", "cooling": "coolingr"})
        assert [d.value for d, _ in directions(plan)] == [
            "Reverse", "Reverse", "Reverse", "Swap", "Reverse", "Swap",
            "Forward", "Forward", "Forward", "Forward",
        ]
        assert plan.process_sequence() == ("p5", "p4", "p3", "p2", "p2", "p1", "p2", "p3", "p4", "p5")

    def test_two_broken_at_same_site(self, f1):
        plan = repair_plan(f1, ["mod3", "mod7"], {"mod3": "m3r", "mod7": "m7r"})
        swaps = [s for s in plan.steps if s.direction is Direction.SWAP]
        assert [(s.swap_target, s.swap_replacement) for s in swaps] == [("mod3", "m3r"), ("mod7", "m7r")]
        assert len(plan.steps) == 8

    def test_empty_broken_set_is_empty_plan(self, f1):
        assert repair_plan(f1, [], {}).steps == ()

    def test_errors(self, f1):
        with pytest.raises(BiPanError) as err:
            repair_plan(f1, ["stage2"], {"stage2": "x"})
        assert err.value.code == "broken-kind-not-replaceable"
        with pytest.raises(BiPanError) as err:
            repair_plan(f1, ["mod8"], {})
        assert err.value.code == "missing-replacement"
        with pytest.raises(BiPanError) as err:
            repair_plan(f1, ["mod8"], {"mod8": "mod1"})
        assert err.value.code == "replacement-exists"
        with pytest.raises(BiPanError) as err:
            repair_plan(f1, ["mod8", "mod7"], {"mod8": "r", "mod7": "r"})
        assert err.value.code == "replacement-exists"
        with pytest.raises(BiPanError) as err:
            repair_plan(f1, ["ghost"], {"ghost": "g"})
        assert err.value.code == "unknown-node"
        loose = ProductNode("loose", "Loose", ProductKind.ELEMENTARY)  # unreachable: a warning only
        detached = replace(f1, products=(*f1.products, loose))
        with pytest.raises(BiPanError) as err:
            repair_plan(detached, ["loose"], {"loose": "l"})
        assert err.value.code == "detached-node"
        for bad in ("a b", "\udcff", ""):
            with pytest.raises(BiPanError) as err:
                repair_plan(f1, ["mod8"], {"mod8": bad})
            assert err.value.code == "invalid-id"

    def test_walks_are_linear_in_processes(self):
        # Every leaf of a 120-process chain broken: one walk per swap site, each
        # stopping where an earlier one reached, so each process is visited once.
        chain = build_random_model(random.Random(1000), max_processes=120, chain=True)
        assert not chain.diagnostics.has_errors and chain.digest  # both cached before counting
        counts = counting_adjacency(chain)
        leaves = chain.leaf_products()
        plan = repair_plan(chain, leaves, {leaf: f"{leaf}.r" for leaf in leaves})
        assert sum(s.direction is Direction.SWAP for s in plan.steps) == len(leaves)
        assert counts["consumers"]["lookups"] <= len(chain.products) + 2 * len(chain.processes)

    def test_swap_scopes_read_each_input_and_link_once(self):
        # All 300 leaves of one process broken, a fastens link every 10 leaves:
        # the swap scopes read no process's inputs and each link once, not once a swap.
        leaves = [f"l{i:03}" for i in range(300)]
        kinds = [ProductKind.FASTENER, *[ProductKind.ELEMENTARY] * 9] * 30
        model = BiPanModel(
            id="flat",
            products=(
                *(ProductNode(leaf, leaf, kind) for leaf, kind in zip(leaves, kinds)),
                ProductNode("fin", "Fin", ProductKind.FINAL),
            ),
            processes=(ProcessNode("q", "Q"),),
            skills=(SkillNode("screwing", "screwing"),),
            flows=(
                *((leaf, "q", FlowRole.INPUT) for leaf in leaves),
                ("fin", "q", FlowRole.OUTPUT),
            ),
            skill_edges=(("q", "screwing"),),
            fastens=tuple(
                FastensLink(leaves[i], frozenset(leaves[i + 1 : i + 10])) for i in range(0, 300, 10)
            ),
        )
        assert not model.diagnostics.items and model.digest  # both cached before counting
        counts = {"links": 0}

        class CountingLinks(tuple):
            def __iter__(self):
                for link in tuple.__iter__(self):
                    counts["links"] += 1
                    yield link

        object.__setattr__(model, "fastens", CountingLinks(model.fastens))
        reads = counting_adjacency(model)
        plan = repair_plan(model, leaves, {leaf: f"{leaf}.r" for leaf in leaves})
        assert [s.direction for s in plan.steps] == [Direction.SWAP] * 300
        assert reads["inputs"]["ids"] <= 2 * len(model.products)
        assert counts["links"] <= 2 * len(model.products)

    @pytest.mark.parametrize("module", ["plan", "execute"])
    def test_inversions_are_bounded_by_label_sets_not_steps(self, monkeypatch, module):
        # The deepest leaf of a 120-process chain broken: about 120 Reverse steps, then
        # the swap. The planner, or the replay, inverts each distinct label set once.
        chain = build_random_model(random.Random(1000), max_processes=120, chain=True)
        assert not chain.diagnostics.has_errors and chain.digest
        leaf = chain.adjacency.inputs["proc_119"][0]  # the last process feeds on leaves alone
        lookups = []

        class CountingInversion(dict):
            def get(self, label, default=None):
                lookups.append(label)
                return dict.get(self, label, default)

        monkeypatch.setattr(f"bipan.{module}.INVERSION", CountingInversion(INVERSION))
        plan = repair_plan(chain, [leaf], {leaf: f"{leaf}.r"})
        run(plan, ExecState({"final", f"{leaf}.r"}), chain)
        labels = [chain.skill_labels_of(s.process) for s in plan.steps
                  if s.direction is Direction.REVERSE]
        bound = sum(map(len, set(labels)))
        if module == "plan":  # the swap scope inverts the site's labels and its own
            (swap,) = (s for s in plan.steps if s.direction is Direction.SWAP)
            bound += len(chain.skill_labels_of(swap.process)) + len(swap.required_skills)
        assert len(labels) == 119
        assert len(lookups) <= bound < sum(map(len, labels))

    def test_plan_encoder_encodes_each_distinct_id_list_once(self, monkeypatch):
        # The same chain repair: its Reverse and Forward steps repeat skill lists, and
        # each step's produced list is the next one's consumed list.
        chain = build_random_model(random.Random(1000), max_processes=120, chain=True)
        leaf = chain.adjacency.inputs["proc_119"][0]
        plan = repair_plan(chain, [leaf], {leaf: f"{leaf}.r"})
        expected = canon.plan_bytes(plan)
        encoded = []

        def counting_strings(values, *args):
            encoded.append(values)
            return strings(values, *args)

        strings = canon._strings
        monkeypatch.setattr(canon, "_strings", counting_strings)
        assert canon.plan_bytes(plan) == expected
        lists = {ids for s in plan.steps for ids in (s.consumed, s.produced, s.required_skills)}
        assert len(encoded) <= len(lists) and len(encoded) < 3 * len(plan.steps)

    def test_fastens_narrow_swap_scope(self, f1):
        bolted = replace(
            f1,
            products=tuple(
                replace(p, attributes={"skill": "screwing"}) if p.id == "bolts1" else p
                for p in f1.products
            ),
            fastens=(FastensLink("bolts1", frozenset(f"mod{i}" for i in range(1, 9))),),
        )
        plan = repair_plan(bolted, ["mod8"], {"mod8": "mod8r"})
        swap = next(s for s in plan.steps if s.direction is Direction.SWAP)
        assert swap.required_skills == ("manipulation", "screwing", "unscrewing")
        # Components no fastens link mentions keep the full over-approximation.
        plan_bms = repair_plan(bolted, ["bms"], {"bms": "bmsr"})
        swap_bms = next(s for s in plan_bms.steps if s.direction is Direction.SWAP)
        assert swap_bms.required_skills == (
            "connecting-cables",
            "disconnecting-cables",
            "manipulation",
            "screwing",
            "unscrewing",
        )

    def test_two_links_securing_one_part_both_scope_its_swap(self, f1):
        # bolts1 declares no skill, clips1 declares "clipping"; both secure mod8 at p2.
        clips = ProductNode("clips1", "Clips", ProductKind.FASTENER,
                            attributes={"skill": "clipping"})
        clipped = replace(
            f1,
            products=(*f1.products, clips),
            flows=(*f1.flows, ("clips1", "p2", FlowRole.INPUT)),
            fastens=(
                FastensLink("bolts1", frozenset({"mod8"})),
                FastensLink("clips1", frozenset({"mod7", "mod8"})),
            ),
        )
        assert clipped.diagnostics.items == ()
        plan = repair_plan(clipped, ["mod7", "mod8"], {"mod7": "mod7r", "mod8": "mod8r"})
        swaps = {
            s.swap_target: s.required_skills for s in plan.steps if s.direction is Direction.SWAP
        }
        assert swaps == {
            "mod7": ("clipping", "manipulation"),
            "mod8": (
                "clipping",
                "connecting-cables",
                "disconnecting-cables",
                "manipulation",
                "screwing",
                "unscrewing",
            ),
        }

    def test_fastens_without_declared_skill_falls_back_to_directional(self, f1):
        bolted = replace(
            f1, fastens=(FastensLink("bolts1", frozenset({"mod8"})),)
        )
        plan = repair_plan(bolted, ["mod8"], {"mod8": "mod8r"})
        swap = next(s for s in plan.steps if s.direction is Direction.SWAP)
        assert swap.required_skills == (
            "connecting-cables",
            "disconnecting-cables",
            "manipulation",
            "screwing",
            "unscrewing",
        )


class TestFeasibility:
    def test_disassembly_missing_cables(self, f1):
        missing = check_feasibility(full_disassembly(f1), {"manipulation", "unscrewing"})
        assert any(missing)
        assert {i: m for i, m in enumerate(missing) if m} == {3: ("disconnecting-cables",)}

    def test_superset_is_feasible(self, f1):
        everything = {
            "manipulation", "screwing", "connecting-cables", "unscrewing", "disconnecting-cables"
        }
        for plan in (assembly_recipe(f1), full_disassembly(f1),
                     repair_plan(f1, ["mod8"], {"mod8": "mod8r"})):
            assert not any(check_feasibility(plan, everything))

    def test_exact_assembly_skills(self, f1):
        skills = {"manipulation", "screwing", "connecting-cables"}
        assert not any(check_feasibility(assembly_recipe(f1), skills))

    def test_skills_pool_union_across_resources(self, f1):
        split = io.load_registry(
            b'{"resources": [{"id": "arm", "skills": ["manipulation"]},'
            b' {"id": "driver", "skills": ["screwing"]},'
            b' {"id": "plugger", "skills": ["connecting-cables"]}]}'
        )
        assert split == {"manipulation", "screwing", "connecting-cables"}
        assert not any(check_feasibility(assembly_recipe(f1), split))


def relabel(inv, label):
    return inv.get(label, label)


def relabel_all(inv, labels):
    return tuple(sorted({relabel(inv, label) for label in labels}))


def with_inverses(inv):
    """``inv`` closed under inverse pairs, making it an involution."""
    extended = dict(inv)
    for fwd, rev in inv.items():
        extended.setdefault(rev, fwd)
    return extended


class TestInversion:
    def test_default_pairs(self):
        inv = INVERSION
        assert relabel(inv, "screwing") == "unscrewing"
        assert relabel(inv, "connecting-cables") == "disconnecting-cables"
        assert relabel(inv, "manipulation") == "manipulation"
        assert relabel(inv, "gluing") == "gluing"

    def test_extended_is_involution(self, f1):
        ext = with_inverses(INVERSION)
        labels = {s.label for s in f1.skills} | {"unscrewing", "disconnecting-cables"}
        for label in labels:
            assert relabel(ext, relabel(ext, label)) == label

    def test_double_inversion_restores_forward_sets(self, f1):
        ext = with_inverses(INVERSION)
        forward = assembly_recipe(f1)
        for step in forward.steps:
            once = relabel_all(ext, step.required_skills)
            assert relabel_all(ext, once) == step.required_skills

    def test_default_is_read_only(self):
        with pytest.raises(TypeError):
            INVERSION["screwing"] = "gluing"


class TestDeterminismAndSoundness:
    def test_serialized_plans_are_byte_identical(self, f1):
        one = io.save_plan(repair_plan(f1, ["mod8"], {"mod8": "mod8r"}))
        two = io.save_plan(repair_plan(f1, ["mod8"], {"mod8": "mod8r"}))
        assert one == two

    @given(models())
    def test_assembly_round_trip(self, model):
        start = initial_inventory(model)
        after_assembly = run(assembly_recipe(model), start, model).final
        assert after_assembly.present == frozenset(model.final_products())
        after_teardown = run(full_disassembly(model), after_assembly, model).final
        assert after_teardown.present == start.present

    @given(models())
    def test_every_plan_replays(self, model):
        (final,) = model.final_products()
        run(assembly_recipe(model), initial_inventory(model), model)
        final_state = ExecState(frozenset({final}), {})
        run(full_disassembly(model), final_state, model)
        components = [
            p.id for p in model.products
            if p.kind not in (ProductKind.FINAL, ProductKind.STAGE)
        ]
        for product in model.products:
            if product.kind is ProductKind.FINAL:
                continue
            for mode in DisassemblyMode:
                run(disassembly_to(model, product.id, mode), final_state, model)
        broken = components[: max(1, len(components) // 3)]
        replacements = {b: f"{b}.new" for b in broken}
        plan = repair_plan(model, broken, replacements)
        start = ExecState(frozenset({final, *replacements.values()}), {})
        end = run(plan, start, model).final
        assert end.present == frozenset({final, *broken})
        assert end.substitutions == replacements
