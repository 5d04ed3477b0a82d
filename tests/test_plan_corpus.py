"""Planner output pinned on a seeded corpus of in-trees of a few hundred nodes.

Each planner runs over every corpus model, and the SHA-256 of the concatenated
saved plan bytes is compared with a value recorded from the planners as they
were before the model cached its digest and diagnostics and the planners read
its neighbour maps directly. Refactors of the planners must leave plan bytes
unchanged (the determinism contract); a changed hash means a changed plan. The
same plans are replayed in the oracle, which must agree with them.
"""

import functools
import hashlib
import random

import pytest

from bipan import io
from bipan.execute import ExecState, initial_inventory, run
from bipan.model import COMPONENT_KINDS
from bipan.plan import (
    DisassemblyMode,
    assembly_recipe,
    disassembly_to,
    full_disassembly,
    repair_plan,
)
from strategies import build_random_model

PINNED_SHA256 = {
    "assembly": "7ca63ea62e396d51539af4213259ed548453df3aca02409c594508a540dbf7a0",
    "full-disassembly": "e42db03bb12337d19e8fa682fc2c71d7ec9e91207da7345bf2985ffb240e8b9e",
    "extract": "1c0b654a8ddc28689770d85fe35f78026a37c64e368432af9e8f3533ff912825",
    "repair-1": "fb800e1bfa5787a9a2126ec4ef786b91d3bae30bc88940723c1cb91789a0b70c",
    "repair-3": "3e324e833a413ba79b099de6032d4e922caf84faa7031c2c67f681dde6b82609",
    "repair-third": "8d316af3488f6b136fb9af217cd0736e16fd9f42747ec157c282d2e94ba22a73",
    "repair-all": "abc74b8cd10c073d076549b62249bc21f26702d9b8c5e07487205a9f0004437e",
}


@functools.lru_cache(maxsize=1)
def corpus():
    """24 random in-trees of up to 150 processes, plus one chain of 120 processes."""
    models = [build_random_model(random.Random(seed), max_processes=150) for seed in range(24)]
    models.append(build_random_model(random.Random(1000), max_processes=120, chain=True))
    return tuple(models)


def _cases(model):
    """(kind, plan, start state, expected end state) for every planner on one model.

    The expected end state is (present, substitutions), or None for an extract
    plan, which only has to free its target.
    """
    rng = random.Random(model.id)
    (final,) = model.final_products()
    leaves = frozenset(model.leaf_products())
    components = sorted(p.id for p in model.products if p.kind in COMPONENT_KINDS)
    target = rng.choice(components)
    cases = [
        ("assembly", assembly_recipe(model), initial_inventory(model), ({final}, {})),
        ("full-disassembly", full_disassembly(model), ExecState({final}), (leaves, {})),
        (
            "extract",
            disassembly_to(model, target, DisassemblyMode.EXTRACT),
            ExecState({final}),
            None,
        ),
    ]
    for kind, count in (
        ("repair-1", 1),
        ("repair-3", min(3, len(components))),
        ("repair-third", max(1, len(components) // 3)),
        ("repair-all", len(components)),
    ):
        broken = sorted(rng.sample(components, count))
        replacements = {b: f"{b}.r" for b in broken}
        plan = repair_plan(model, broken, replacements)
        start = ExecState({final, *replacements.values()})
        cases.append((kind, plan, start, ({final, *broken}, replacements)))
    return target, cases


@functools.lru_cache(maxsize=1)
def planned():
    return tuple(_cases(model) for model in corpus())


def test_corpus_size():
    sizes = [len(m.products) + len(m.processes) + len(m.skills) for m in corpus()]
    assert max(sizes) >= 300
    assert sum(sizes) / len(sizes) >= 150
    chain = corpus()[-1]
    # Extracting the deepest leaf reverses every process of the chain.
    deepest = max(len(disassembly_to(chain, leaf, DisassemblyMode.EXTRACT).steps)
                  for leaf in chain.leaf_products())
    assert deepest == len(chain.processes) == 120


@pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
def test_plan_bytes_pinned(kind):
    sha = hashlib.sha256()
    for _, cases in planned():
        for case_kind, plan, _, _ in cases:
            if case_kind == kind:
                sha.update(io.save_plan(plan))
    assert sha.hexdigest() == PINNED_SHA256[kind]


def test_oracle_agrees_with_planners():
    for model, (target, cases) in zip(corpus(), planned()):
        for kind, plan, start, expected in cases:
            end = run(plan, start, model).final
            if expected is None:
                assert target in end.present, f"{model.id} {kind}"
            else:
                present, substitutions = expected
                assert end.present == frozenset(present), f"{model.id} {kind}"
                assert end.substitutions == substitutions, f"{model.id} {kind}"
