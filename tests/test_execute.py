import itertools
import random

import pytest
from hypothesis import given

from bipan.errors import BiPanError
from bipan.execute import ExecState, apply_step, initial_inventory, run
from bipan.model import COMPONENT_KINDS, replace
from bipan.plan import Direction, Plan, PlanStep, assembly_recipe, full_disassembly, repair_plan
from mutations import MUTANTS
from strategies import build_random_model, models
from test_plan_corpus import corpus, planned

F1_LEAVES = (
    "blanket", "bms", "bolts1", "bolts2", "box",
    "brace1", "brace2", "brace3", "brace4", "brace5",
    "cables", "cooling", "cover",
    "mod1", "mod2", "mod3", "mod4", "mod5", "mod6", "mod7", "mod8",
    "screws1", "screws2",
)


def forward(model, process):
    return next(s for s in assembly_recipe(model).steps if s.process == process)


def reverse(model, process):
    return next(s for s in full_disassembly(model).steps if s.process == process)


class TestInitialInventory:
    def test_battery_leaves(self, f1):
        state = initial_inventory(f1)
        assert state.present == frozenset(F1_LEAVES)
        assert len(state.present) == 23
        assert state.substitutions == {}

    def test_invalid_model(self, f1):
        with pytest.raises(BiPanError) as err:
            initial_inventory(MUTANTS["V001"][0](f1))
        assert err.value.code == "invalid-model"


class TestApplyStep:
    def test_forward_consumes_and_produces(self, f1):
        state = apply_step(initial_inventory(f1), forward(f1, "p1"), f1)
        assert "stage1" in state.present
        assert not {"screws1", "cooling", "box"} & state.present

    def test_missing_input_names_absentees(self, f1):
        with pytest.raises(BiPanError) as err:
            apply_step(ExecState(frozenset({"battery"}), {}), forward(f1, "p1"), f1)
        assert err.value.code == "missing-input"
        assert err.value.nodes == ("box", "cooling", "screws1")

    def test_swap(self, f1):
        plan = repair_plan(f1, ["mod8"], {"mod8": "mod8r"})
        swap = next(s for s in plan.steps if s.direction is Direction.SWAP)
        state = apply_step(ExecState(frozenset({"stage2", "mod8r"}), {}), swap, f1)
        assert state.present == frozenset({"stage2", "mod8"})
        assert state.substitutions == {"mod8": "mod8r"}

    def test_swap_requires_site_assembly(self, f1):
        plan = repair_plan(f1, ["mod8"], {"mod8": "mod8r"})
        swap = next(s for s in plan.steps if s.direction is Direction.SWAP)
        with pytest.raises(BiPanError) as err:
            apply_step(ExecState(frozenset({"mod8r"}), {}), swap, f1)
        assert err.value.code == "missing-input"
        assert "stage2" in err.value.nodes

    def test_double_produce(self, f1):
        state = apply_step(initial_inventory(f1), forward(f1, "p1"), f1)
        readded = ExecState(state.present | {"screws1", "cooling", "box"}, {})
        with pytest.raises(BiPanError) as err:
            apply_step(readded, forward(f1, "p1"), f1)
        assert err.value.code == "double-produce"
        assert err.value.nodes == ("stage1",)

    def test_unknown_process(self, f1):
        bogus = PlanStep("p99", Direction.FORWARD, ("box",), ("stage9",), ())
        with pytest.raises(BiPanError) as err:
            apply_step(initial_inventory(f1), bogus, f1)
        assert err.value.code == "unknown-process"

    def test_swap_onto_its_own_replacement_is_double_produce(self, f1):
        swap = PlanStep("p2", Direction.SWAP, ("mod8",), ("mod8",), ())
        state = ExecState(frozenset({"stage2", "mod8"}), {})
        with pytest.raises(BiPanError) as err:
            apply_step(state, swap, f1)
        assert (err.value.code, err.value.nodes) == ("double-produce", ("mod8",))
        with pytest.raises(BiPanError) as err:
            run(Plan(f1.id, f1.digest, (swap,)), state, f1)
        assert (err.value.code, err.value.nodes) == ("double-produce", ("mod8",))
        assert err.value.detail.startswith("step 0 (Swap 'p2'): ")

    def test_swap_without_target_or_replacement_is_malformed(self):
        """A Swap consumes one id and produces one; no other swap step can be built."""
        lists = ((), ("mod8r",), ("mod8r", "bogus"), ["mod8r", "mod8"])
        for consumed, produced in itertools.product(lists, repeat=2):
            if len(consumed) == len(produced) == 1:
                continue
            with pytest.raises(BiPanError) as err:
                PlanStep("p2", Direction.SWAP, consumed, produced, ())
            assert (err.value.code, err.value.detail) == (
                "malformed-step", "swap step at 'p2' must consume one id and produce one"
            )

    def test_swap_ids_are_its_lists(self):
        """A Swap's ids are read from its lists; every other step names none."""
        swap = PlanStep("p2", Direction.SWAP, ["mod8r"], ["mod8"], ())
        assert (swap.swap_replacement, swap.swap_target) == ("mod8r", "mod8")
        assert swap == PlanStep("p2", Direction.SWAP, ("mod8r",), ("mod8",), ())
        for direction in (Direction.FORWARD, Direction.REVERSE):
            step = PlanStep("p2", direction, ("mod8r",), ("mod8",), ())
            assert (step.swap_replacement, step.swap_target) == (None, None)

    def test_swap_site_without_one_output_is_missing_input(self, f1):
        no_output = MUTANTS["V001"][0](f1)  # p1 lost its output stage1
        swap = PlanStep("p1", Direction.SWAP, ("boxr",), ("box",), ())
        with pytest.raises(BiPanError) as err:
            apply_step(ExecState({"stage1", "boxr"}), swap, no_output)
        assert err.value.code == "missing-input"

    def test_reverse_undoes_forward(self, f1):
        state = initial_inventory(f1)
        for process in ("p1", "p2", "p3"):
            stepped = apply_step(state, forward(f1, process), f1)
            assert apply_step(stepped, reverse(f1, process), f1).present == state.present
            state = stepped


P1_INPUTS = ("box", "cooling", "screws1")
# Forged steps that pass the inventory checks from the initial inventory, from the
# swap site's stage with the replacement beside it, or, for Reverse, from exactly
# what they consume, but do not match the model.
FORGED = {
    "missing-input": PlanStep("p1", Direction.FORWARD, ("box", "cooling"), ("stage1",), ()),
    "extra-input": PlanStep("p1", Direction.FORWARD, (*P1_INPUTS, "mod1"), ("stage1",), ()),
    "wrong-output": PlanStep("p1", Direction.FORWARD, P1_INPUTS, ("stage2",), ()),
    "reverse-with-swapped-lists": PlanStep("p1", Direction.REVERSE, P1_INPUTS, ("stage1",), ()),
    "swap-of-a-non-input": PlanStep("p2", Direction.SWAP, ("mod8r",), ("cover",), ()),
    "replacement-names-a-node": PlanStep("p2", Direction.SWAP, ("bms",), ("mod8",), ()),
    "forged-skills": PlanStep("p1", Direction.FORWARD, P1_INPUTS, ("stage1",), ()),
    "forged-reverse-skills": PlanStep("p5", Direction.REVERSE, ("battery",),
                                      ("cover", "screws2", "stage4"), ("screwing",)),
}


class TestStepMismatch:
    @pytest.mark.parametrize("step", FORGED.values(), ids=list(FORGED))
    def test_forged_step_is_step_mismatch(self, f1, step):
        if step.direction is Direction.SWAP:
            state = ExecState({"stage2", step.swap_replacement})
        elif step.direction is Direction.REVERSE:
            state = ExecState(step.consumed)
        else:
            state = initial_inventory(f1)
        with pytest.raises(BiPanError) as err:
            apply_step(state, step, f1)
        assert err.value.code == "step-mismatch"

    def test_forward_step_detail_names_the_model_lists(self, f1):
        forged = PlanStep("p5", Direction.FORWARD, (), ("battery",), ())
        with pytest.raises(BiPanError) as err:
            run(Plan(f1.id, f1.digest, (forged,)), initial_inventory(f1), f1)
        assert err.value.code == "step-mismatch"
        assert err.value.detail == (
            "step 0 (Forward 'p5'): must consume [cover, screws2, stage4] and produce [battery]"
        )

    def test_inputs_are_resolved_through_the_substitutions(self, f1):
        state = ExecState({*f1.adjacency.inputs["p2"], "mod8r"}, {"mod8": "mod8r"})
        with pytest.raises(BiPanError) as err:
            apply_step(state, forward(f1, "p2"), f1)
        assert err.value.code == "step-mismatch"
        resolved = tuple(sorted("mod8r" if i == "mod8" else i for i in f1.adjacency.inputs["p2"]))
        step = replace(forward(f1, "p2"), consumed=resolved)
        assert "stage2" in apply_step(state, step, f1).present


class TestRun:
    def test_assembly_reaches_final(self, f1):
        trace = run(assembly_recipe(f1), initial_inventory(f1), f1)
        assert trace.final.present == frozenset({"battery"})
        assert len(trace) == 5

    def test_disassembly_restores_leaves(self, f1):
        trace = run(full_disassembly(f1), ExecState(frozenset({"battery"}), {}), f1)
        assert trace.final.present == initial_inventory(f1).present

    def test_empty_plan(self, f1):
        plan = replace(assembly_recipe(f1), steps=())
        state = ExecState(frozenset({"battery"}), {})
        trace = run(plan, state, f1)
        assert len(trace) == 0
        assert trace.final == state

    def test_digest_mismatch(self, f1):
        plan = replace(assembly_recipe(f1), model_digest="0" * 64)
        with pytest.raises(BiPanError) as err:
            run(plan, initial_inventory(f1), f1)
        assert err.value.code == "digest-mismatch"

    def test_failure_reports_step_index(self, f1):
        plan = assembly_recipe(f1)
        broken = replace(plan, steps=(plan.steps[0], plan.steps[0], *plan.steps[1:]))
        with pytest.raises(BiPanError) as err:
            run(broken, initial_inventory(f1), f1)
        assert err.value.code == "missing-input"
        assert "step 1" in err.value.detail

    def test_trace_snapshots_every_step(self, f1):
        trace = run(assembly_recipe(f1), initial_inventory(f1), f1)
        assert len(trace.entries) == 5
        assert "stage1" in trace.entries[0].present


def fold(plan, state, model):
    """The trace entries ``run`` must give: ``apply_step`` folded over the plan."""
    entries = []
    for step in plan.steps:
        state = apply_step(state, step, model)
        entries.append(state)
    return tuple(entries)


def assert_trace_is_fold(plan, start, model):
    trace = run(plan, start, model)
    entries = fold(plan, start, model)
    assert trace.entries == entries
    assert trace.final == (entries[-1] if entries else start)
    assert len(trace) == len(entries)


class TestTraceEntries:
    @given(models())
    def test_entries_are_the_fold_of_apply_step(self, model):
        (final,) = model.final_products()
        assert_trace_is_fold(assembly_recipe(model), initial_inventory(model), model)
        assert_trace_is_fold(full_disassembly(model), ExecState({final}), model)
        components = sorted(p.id for p in model.products if p.kind in COMPONENT_KINDS)
        replacements = {c: f"{c}.new" for c in components}
        start = ExecState({final, *replacements.values()})
        assert_trace_is_fold(repair_plan(model, components, replacements), start, model)

    def test_entries_on_the_plan_corpus(self):
        for model, (_, cases) in zip(corpus(), planned()):
            for _, plan, start, _ in cases:
                assert_trace_is_fold(plan, start, model)

    def test_run_builds_few_states(self, monkeypatch):
        chain = build_random_model(random.Random(7), max_processes=1000, chain=True)
        plan, start = assembly_recipe(chain), initial_inventory(chain)
        assert len(plan.steps) == 1000
        built = []
        init = ExecState.__init__
        monkeypatch.setattr(
            ExecState, "__init__", lambda state, *args: built.append(state) or init(state, *args)
        )
        trace = run(plan, start, chain)
        assert len(built) <= 2
        assert trace.final.present == frozenset(chain.final_products())
        assert len(trace.entries) == 1000


class TestStateInvariants:
    @given(models())
    def test_conservation_per_step(self, model):
        state = initial_inventory(model)
        for step in assembly_recipe(model).steps:
            after = apply_step(state, step, model)
            assert state.present - after.present == frozenset(step.consumed)
            assert after.present - state.present == frozenset(step.produced)
            state = after

    @given(models())
    def test_swap_preserves_cardinality(self, model):
        from bipan.model import ProductKind

        component = next(
            (p.id for p in model.products
             if p.kind not in (ProductKind.FINAL, ProductKind.STAGE)),
            None,
        )
        if component is None:
            return
        plan = repair_plan(model, [component], {component: f"{component}.new"})
        state = ExecState(frozenset({*model.final_products(), f"{component}.new"}), {})
        for step in plan.steps:
            after = apply_step(state, step, model)
            if step.direction is Direction.SWAP:
                assert len(after.present) == len(state.present)
            state = after


class TestStateIsAValue:
    def test_equal_states_hash_equal(self):
        one = ExecState(frozenset({"a"}), {"x": "y"})
        assert hash(one) == hash(ExecState(frozenset({"a"}), {"x": "y"}))
        assert one != ExecState(frozenset({"a"}), {"x": "z"})

    def test_substitutions_are_read_only_copies(self):
        given = {"x": "y"}
        state = ExecState(frozenset({"a"}), given)
        with pytest.raises(TypeError):
            state.substitutions["q"] = "r"
        given["q"] = "r"
        assert dict(state.substitutions) == {"x": "y"}

    def test_pickles_and_copies(self):
        import copy
        import pickle

        state = ExecState(frozenset({"a", "b"}), {"x": "y"})
        assert pickle.loads(pickle.dumps(state)) == state
        assert copy.deepcopy(state) == state
