import ast
import errno
import hashlib
import json
import math
import multiprocessing
import os
import random
import select
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta, timezone
from io import StringIO
from pathlib import Path

import pytest

from bipan import cli, io
from bipan.cli import main
from bipan.fixtures import battery_model
from bipan.model import Direction, Plan, PlanStep, replace
from bipan.pdt import Event, create_instance
from bipan.plan import assembly_recipe, repair_plan
from mutations import MUTANTS
from strategies import build_random_model

T0 = "2024-05-01T10:00:00Z"
T1 = "2024-05-01T11:00:00Z"
SRC = Path(__file__).resolve().parents[1] / "src" / "bipan"


@pytest.fixture
def workdir(tmp_path, fixtures_dir):
    shutil.copy(fixtures_dir / "f1.bipan.json", tmp_path / "f1.bipan.json")
    shutil.copy(fixtures_dir / "registry_full.json", tmp_path / "registry_full.json")
    shutil.copy(fixtures_dir / "registry_no_cables.json", tmp_path / "registry_no_cables.json")
    shutil.copy(fixtures_dir / "battery.aml", tmp_path / "battery.aml")
    return tmp_path


def model_path(workdir):
    return str(workdir / "f1.bipan.json")


def run_cli(args, cwd, preexec_fn=None, **env):
    """``python -m bipan.cli`` in a fresh interpreter, as a user runs it, with ``env`` added
    and ``preexec_fn`` run in the child before it starts."""
    paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, "-m", "bipan.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, preexec_fn=preexec_fn)


def assert_one_error(result, code):
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {code}: "), result.stderr


class TestValidate:
    def test_ok(self, workdir, capsys):
        assert main(["validate", model_path(workdir)]) == 0
        assert "OK (0 errors, 0 warnings)" in capsys.readouterr().out

    def test_errors_exit_1(self, workdir, capsys):
        mutated = MUTANTS["V006"][0](battery_model())
        (workdir / "bad.bipan.json").write_bytes(io.save_model(mutated))
        assert main(["validate", str(workdir / "bad.bipan.json")]) == 1
        captured = capsys.readouterr()
        assert "V006" in captured.out
        assert captured.err.startswith("error: invalid-model:")

    def test_warnings_alone_exit_0(self, workdir, capsys):
        model = battery_model()
        stripped = replace(
            model, skill_edges=tuple(e for e in model.skill_edges if e[0] != "p4")
        )
        (workdir / "warn.bipan.json").write_bytes(io.save_model(stripped))
        assert main(["validate", str(workdir / "warn.bipan.json")]) == 0
        assert "V009" in capsys.readouterr().out

    def test_missing_file_exit_2(self, workdir, capsys):
        assert main(["validate", str(workdir / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: unreadable:")

    def test_unparsable_exit_2(self, workdir, capsys):
        (workdir / "junk.json").write_text("{nope")
        assert main(["validate", str(workdir / "junk.json")]) == 2
        assert capsys.readouterr().err.startswith("error: parse-error:")

    def test_json_format(self, workdir, capsys):
        assert main(["validate", model_path(workdir), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"items": [], "summary": {"errors": 0, "warnings": 0}}

    @pytest.mark.parametrize(
        "mutant, status, sha256",
        [
            (None, 0, "4b310ab137b5d1b23f9797e85052f8b9424e0cddb12c91d8f5c9215e737c60bb"),
            ("V001", 1, "5055ff877f7cadafbce727f15bd4d7f1413736099dc9243cd898567a5ebd8699"),
            ("V002", 1, "bb693b2a9a14845f8889a55cad89da145142eb02fa67af6bcde5900c58c97400"),
            ("V003", 1, "225f0d5bca5a9e943f5b42d706517f01bc21905435cada2408ba0e10a0698411"),
            ("V004", 1, "c96def9b130a9bdafc4f20c87e81a00212d9c927ebac3689d54fa36e78e90bd2"),
            ("V005", 1, "f99671ea01d3165725388f7f95df0380f2705d657e5460b3edfb97d993148b81"),
            ("V006", 1, "3193b2623ce8f6d13ed3460d8efcde931d891bf55cf33760908b92e07e161a51"),
            ("V007", 1, "b5541a80793a433ee4459fc67c0b416b2eb695faf577f02beeecf4d9b6180385"),
            ("V008", 1, "bdf18a015ff4917a87981c6cebaa5db99005a0ffaa409a03ac6776c69e7a2aa4"),
        ],
    )
    def test_json_bytes_pinned(self, workdir, capsys, mutant, status, sha256):
        # Recorded when each finding passed its severity by hand.
        model = battery_model() if mutant is None else MUTANTS[mutant][0](battery_model())
        (workdir / "m.bipan.json").write_bytes(io.save_model(model))
        assert main(["validate", str(workdir / "m.bipan.json"), "--format", "json"]) == status
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256


class TestPlan:
    def test_assemble_to_stdout(self, workdir, capsys):
        assert main(["plan", "assemble", model_path(workdir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["process"] for s in doc["steps"]] == ["p1", "p2", "p3", "p4", "p5"]

    def test_repair_golden(self, workdir, fixtures_dir, capsys):
        out = workdir / "repair.plan.json"
        assert main(["plan", "repair", model_path(workdir),
                     "--broken", "mod8", "--replace", "mod8=mod8r", "--out", str(out)]) == 0
        assert out.read_bytes() == (fixtures_dir / "f1_repair_mod8.plan.json").read_bytes()

    def test_disassemble_expose_vs_extract(self, workdir, capsys):
        assert main(["plan", "disassemble", model_path(workdir),
                     "--target", "mod5", "--mode", "expose"]) == 0
        expose = json.loads(capsys.readouterr().out)
        assert [s["process"] for s in expose["steps"]] == ["p5", "p4", "p3"]
        assert main(["plan", "disassemble", model_path(workdir),
                     "--target", "mod5", "--mode", "extract"]) == 0
        extract = json.loads(capsys.readouterr().out)
        assert [s["process"] for s in extract["steps"]] == ["p5", "p4", "p3", "p2"]

    def test_disassemble_without_target_is_full(self, workdir, capsys):
        assert main(["plan", "disassemble", model_path(workdir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["process"] for s in doc["steps"]] == ["p5", "p4", "p3", "p2", "p1"]

    def test_infeasible_extract_exit_1(self, workdir, capsys):
        assert main(["plan", "disassemble", model_path(workdir),
                     "--target", "mod5", "--mode", "extract",
                     "--registry", str(workdir / "registry_no_cables.json")]) == 1
        err = capsys.readouterr().err
        assert "disconnecting-cables" in err
        assert "error: infeasible:" in err

    def test_feasible_expose_exit_0(self, workdir, capsys):
        assert main(["plan", "disassemble", model_path(workdir),
                     "--target", "mod5", "--mode", "expose",
                     "--registry", str(workdir / "registry_no_cables.json")]) == 0

    def test_registry_report_with_out(self, workdir, capsys):
        out = workdir / "asm.plan.json"
        assert main(["plan", "assemble", model_path(workdir),
                     "--out", str(out), "--registry", str(workdir / "registry_full.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert out.exists()

    def test_unknown_broken_exit_2(self, workdir, capsys):
        assert main(["plan", "repair", model_path(workdir),
                     "--broken", "ghost", "--replace", "ghost=g"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown-node:")

    def test_invalid_model_exit_1(self, workdir, capsys):
        mutated = MUTANTS["V001"][0](battery_model())
        (workdir / "bad.bipan.json").write_bytes(io.save_model(mutated))
        assert main(["plan", "assemble", str(workdir / "bad.bipan.json")]) == 1
        assert capsys.readouterr().err.startswith("error: invalid-model:")

    def test_bad_replace_syntax_exit_2(self, workdir, capsys):
        assert main(["plan", "repair", model_path(workdir),
                     "--broken", "mod8", "--replace", "mod8"]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    @pytest.mark.parametrize(
        "broken,replace",
        [
            (",", "a=b"), ("", "a=b"), (",,", "a=b"),
            ("mod8", "mod8=x,mod8=y"), ("mod8,mod8", "mod8=mod8r"),
        ],
    )
    def test_no_broken_id_or_one_replaced_twice_exit_2(self, workdir, broken, replace):
        args = ["plan", "repair", "f1.bipan.json", "--broken", broken, "--replace", replace]
        result = run_cli(args, workdir)
        assert_one_error(result, "usage")
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "action,options,detail",
        [
            ("disassemble", ["--broken", "mod8", "--replace", "mod8=m"],
             "--broken applies only to plan repair"),
            ("assemble", ["--broken", "mod8"], "--broken applies only to plan repair"),
            ("disassemble", ["--target", "mod5", "--replace", "mod8=m"],
             "--replace applies only to plan repair"),
            ("repair", ["--broken", "mod8", "--replace", "mod8=m", "--target", "mod5"],
             "--target applies only to plan disassemble"),
            ("assemble", ["--target", "mod5", "--mode", "extract"],
             "--target applies only to plan disassemble"),
            ("disassemble", ["--mode", "extract"], "--mode applies only with --target"),
            ("disassemble", ["--mode", "expose"], "--mode applies only with --target"),
            ("assemble", ["--mode", "expose"], "--mode applies only with --target"),
            ("repair", ["--broken", "mod8", "--replace", "mod8=m", "--mode", "expose"],
             "--mode applies only with --target"),
            ("repair", ["--broken", "mod8", "--replace", "mod8=m,zzz=n"],
             "--replace names 'zzz', which --broken does not"),
        ],
    )
    def test_option_the_action_ignores_exit_2(self, workdir, capsys, action, options, detail):
        # The model path names no file: the usage error comes before any file is read.
        assert main(["plan", action, str(workdir / "absent.json"), *options]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: usage: {detail}\n"
        assert captured.out == ""


ASSEMBLE = ["plan", "assemble", "f1.bipan.json"]
EXTRACT = ["plan", "disassemble", "f1.bipan.json", "--target", "mod5", "--mode", "extract"]
ASSEMBLY_SHA256 = "9fe6ce61409d4d4281136a30d4dd8eccf48faaa57b5d49a03b26bcbd7c5a36e5"
EXTRACT_SHA256 = "947006aedc656cc5aa5eb36d6e3dbe40a60745fd0648ab714b4096d5bd94a484"

# name -> (command, registry, exit status, stderr, SHA-256 of the plan, SHA-256 of
# the feasibility report that ``--out`` puts on stdout in the plan's place)
REGISTRY_RUNS = {
    "assemble-full": (
        ASSEMBLE, "registry_full.json", 0, "", ASSEMBLY_SHA256,
        "cb59621eef47d17ad8c33bac1cdd8d80e7452924c423acdd5af4a049ac80d2fd",
    ),
    "assemble-no-cables": (
        ASSEMBLE, "registry_no_cables.json", 1,
        "step 1 (Forward 'p2'): missing connecting-cables\n"
        "error: infeasible: missing skills: connecting-cables\n",
        ASSEMBLY_SHA256,
        "8336eaa782c0daaccb92b635b65dc6a984f14c21c22911bba88bd62fd19167bc",
    ),
    "extract-full": (
        EXTRACT, "registry_full.json", 0, "", EXTRACT_SHA256,
        "2d0d0903544ef89bacc88c0e673df851d85faf889d475089236600db1096f53d",
    ),
    "extract-no-cables": (
        EXTRACT, "registry_no_cables.json", 1,
        "step 3 (Reverse 'p2'): missing disconnecting-cables\n"
        "error: infeasible: missing skills: disconnecting-cables\n",
        EXTRACT_SHA256,
        "0b199eab4705e0e94b983286a9b84f372efc52305e78d028d27e470de07a9d4b",
    ),
}


def sha256_of(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestRegistry:
    """``plan --registry`` output, byte for byte, as a user's shell sees it."""

    @pytest.mark.parametrize(
        "argv,registry,status,stderr,plan_sha256,report_sha256",
        REGISTRY_RUNS.values(), ids=REGISTRY_RUNS,
    )
    def test_plan_on_stdout(self, workdir, argv, registry, status, stderr, plan_sha256,
                            report_sha256):
        result = run_cli([*argv, "--registry", registry], workdir)
        assert (result.returncode, result.stderr) == (status, stderr)
        assert sha256_of(result.stdout) == plan_sha256

    @pytest.mark.parametrize(
        "argv,registry,status,stderr,plan_sha256,report_sha256",
        REGISTRY_RUNS.values(), ids=REGISTRY_RUNS,
    )
    def test_report_on_stdout_with_out(self, workdir, argv, registry, status, stderr, plan_sha256,
                                       report_sha256):
        result = run_cli([*argv, "--out", "p.plan.json", "--registry", registry], workdir)
        assert (result.returncode, result.stderr) == (status, stderr)
        assert sha256_of(result.stdout) == report_sha256
        assert hashlib.sha256((workdir / "p.plan.json").read_bytes()).hexdigest() == plan_sha256

    @pytest.mark.parametrize(
        "content,code", [(None, "unreadable"), ('{"resources": 1}', "parse-error")]
    )
    def test_bad_registry_emits_no_plan(self, workdir, content, code):
        if content is not None:
            (workdir / "r.json").write_text(content)
        for out in ([], ["--out", "p.plan.json"]):
            result = run_cli([*ASSEMBLE, *out, "--registry", "r.json"], workdir)
            assert_one_error(result, code)
            assert result.stdout == ""
            assert not (workdir / "p.plan.json").exists()


REPAIR_REPLAY = """\
step 0: Reverse 'p5' -> -: battery  +: cover, screws2, stage4
step 1: Reverse 'p4' -> -: stage4  +: blanket, stage3
step 2: Reverse 'p3' -> -: stage3  +: bolts2, brace1, brace2, brace3, brace4, brace5, stage2
step 3: Swap 'p2' -> -: mod8r  +: mod8
step 4: Forward 'p3' -> -: bolts2, brace1, brace2, brace3, brace4, brace5, stage2  +: stage3
step 5: Forward 'p4' -> -: blanket, stage3  +: stage4
step 6: Forward 'p5' -> -: cover, screws2, stage4  +: battery
final: battery, mod8
substitutions: mod8->mod8r
"""


class TestExec:
    def test_repair_replay_text(self, fixtures_dir):
        argv = ["exec", "f1_repair_mod8.plan.json", "f1.bipan.json", "--inventory", "final"]
        result = run_cli(argv, fixtures_dir)
        assert (result.returncode, result.stderr, result.stdout) == (0, "", REPAIR_REPLAY)

    @pytest.mark.parametrize(
        "plan, inventory, fmt, sha256",
        [
            ("f1_assembly.plan.json", "initial", "human",
             "fe046bec3fdebc41a6b4e5ae5f4c85325e8abf522c6054fad82ab2f132fe3a4f"),
            ("f1_assembly.plan.json", "initial", "json",
             "491f6b735ab4ce0f98e3d9607de682c26ee79b4970fd65ea11358341fa769934"),
            ("f1_repair_mod8.plan.json", "final", "human",
             "0326f2db5812175b4bfc8cfdf2d576c2eca2997a5cf96499775ff9a6b4850e39"),
            ("f1_repair_mod8.plan.json", "final", "json",
             "11ce1fc8f91779f6cd89d0763f7901d31dff7bec70bf116262dea8275dcfb123"),
        ],
    )
    def test_output_bytes_pinned(self, fixtures_dir, capsys, plan, inventory, fmt, sha256):
        argv = ["exec", str(fixtures_dir / plan), str(fixtures_dir / "f1.bipan.json"),
                "--inventory", inventory, "--format", fmt]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256

    def test_assembly_from_initial(self, workdir, capsys):
        plan = workdir / "asm.plan.json"
        main(["plan", "assemble", model_path(workdir), "--out", str(plan)])
        assert main(["exec", str(plan), model_path(workdir)]) == 0
        out = capsys.readouterr().out
        assert "final: battery" in out

    def test_repair_from_final(self, workdir, capsys):
        plan = workdir / "repair.plan.json"
        main(["plan", "repair", model_path(workdir),
              "--broken", "mod8", "--replace", "mod8=mod8r", "--out", str(plan)])
        capsys.readouterr()
        assert main(["exec", str(plan), model_path(workdir), "--inventory", "final"]) == 0
        out = capsys.readouterr().out
        assert "final: battery, mod8" in out
        assert "substitutions: mod8->mod8r" in out

    def test_json_trace(self, workdir, capsys):
        plan = workdir / "asm.plan.json"
        main(["plan", "assemble", model_path(workdir), "--out", str(plan)])
        assert main(["exec", str(plan), model_path(workdir), "--format", "json"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["final"]["present"] == ["battery"]
        assert sorted(trace) == ["final", "initial"]
        assert len(trace["initial"]["present"]) == 23

    def test_state_file_inventory(self, workdir, capsys):
        plan = workdir / "dis.plan.json"
        main(["plan", "disassemble", model_path(workdir), "--out", str(plan)])
        (workdir / "state.json").write_text('{"present": ["battery"], "substitutions": {}}')
        capsys.readouterr()
        assert main(["exec", str(plan), model_path(workdir),
                     "--inventory", str(workdir / "state.json")]) == 0

    def test_digest_mismatch_exit_3(self, workdir, capsys):
        plan = workdir / "asm.plan.json"
        main(["plan", "assemble", model_path(workdir), "--out", str(plan)])
        edited = json.loads((workdir / "f1.bipan.json").read_text())
        edited["id"] = "edited"
        (workdir / "f1.bipan.json").write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(["exec", str(plan), model_path(workdir)]) == 3
        assert capsys.readouterr().err.startswith("error: digest-mismatch:")

    def test_step_failure_exit_3(self, workdir, capsys):
        plan = workdir / "dis.plan.json"
        main(["plan", "disassemble", model_path(workdir), "--out", str(plan)])
        capsys.readouterr()
        # nothing assembled yet: the first reverse step has nothing to take apart
        assert main(["exec", str(plan), model_path(workdir), "--inventory", "initial"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: missing-input: step 0")

    def test_forged_step_exit_3(self, workdir, capsys):
        """A step that the inventory allows but the model does not is ``step-mismatch``."""
        model = io.load_model(io.read_file(model_path(workdir)))
        forged = PlanStep("p5", Direction.FORWARD, (), ("battery",), ())
        (workdir / "forged.plan.json").write_bytes(
            io.save_plan(Plan(model.id, model.digest, (forged,)))
        )
        argv = ["exec", "forged.plan.json", "f1.bipan.json", "--inventory", "initial"]
        result = run_cli(argv, workdir)
        assert result.returncode == 3 and result.stdout == ""
        assert result.stderr.startswith("error: step-mismatch: step 0 (Forward 'p5'): ")

    @pytest.mark.parametrize("direction, lists, skills, code", [
        ("Reverse", None, ["screwing"], "step-mismatch"),
        ("Swap", (["bogus"], ["cover", "battery"]), None, "parse-error"),
    ], ids=["reverse-skills", "swap-lists"])
    def test_forged_golden_repair_step_exit_3(self, fixtures_dir, workdir, capsys, direction,
                                               lists, skills, code):
        """The golden repair plan with one Reverse step's skills forged, which the replay
        refuses (exit 3), or its Swap's lists, which no longer agree with its swap ids, so
        the plan does not load (exit 2)."""
        doc = json.loads((fixtures_dir / "f1_repair_mod8.plan.json").read_text())
        index, step = next((i, s) for i, s in enumerate(doc["steps"])
                           if s["direction"] == direction)
        if lists is not None:
            step["consumed"], step["produced"] = lists
        if skills is not None:
            step["required_skills"] = skills
        (workdir / "forged.plan.json").write_text(json.dumps(doc))
        argv = ["exec", str(workdir / "forged.plan.json"), model_path(workdir),
                "--inventory", "final"]
        assert main(argv) == (3 if code == "step-mismatch" else 2)
        captured = capsys.readouterr()
        assert captured.out == ""
        where = (f"step {index} ({direction} '{step['process']}'): must "
                 if code == "step-mismatch" else f"steps[{index}]: swap_replacement and ")
        assert captured.err.startswith(f"error: {code}: {where}")


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """(plan, model) file paths of assembly plans of chains of about 2k and 16k nodes,
    by node count."""
    root = tmp_path_factory.mktemp("chains")
    files = {}
    for processes in (570, 4560):
        model = build_random_model(random.Random(processes), max_processes=processes, chain=True)
        model_file, plan_file = root / f"{processes}.bipan.json", root / f"{processes}.plan.json"
        model_file.write_bytes(io.save_model(model))
        plan_file.write_bytes(io.save_plan(assembly_recipe(model)))
        nodes = len(model.products) + len(model.processes) + len(model.skills)
        files[nodes] = (str(plan_file), str(model_file))
    return files


class TestExecOutputGrowsWithThePlan:
    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_output_bytes_are_linear_in_the_chain(self, chains, capsys, fmt):
        sizes = {}
        for nodes, (plan, model) in chains.items():
            assert main(["exec", plan, model, "--format", fmt]) == 0
            sizes[nodes] = len(capsys.readouterr().out.encode("utf-8"))
        (small, small_bytes), (large, large_bytes) = sorted(sizes.items())
        assert math.log(large_bytes / small_bytes) / math.log(large / small) <= 1.1, sizes

    def test_16k_node_chain_replays_under_1_gib(self, chains, tmp_path):
        """The JSON trace of the 16k-node chain, with the address space of the child
        process alone limited to 1 GiB."""
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        plan, model = chains[max(chains)]
        result = run_cli(["exec", plan, model, "--format", "json"], tmp_path, preexec_fn=limit)
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["final"]["present"] == ["final"]


class TestAmlAndDot:
    def test_import_alone(self, workdir, capsys):
        assert main(["import-aml", str(workdir / "battery.aml")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["products"]) == 10
        assert doc["processes"] == []

    def test_import_merge(self, workdir, capsys):
        out = workdir / "enriched.bipan.json"
        assert main(["import-aml", str(workdir / "battery.aml"),
                     "--merge", model_path(workdir), "--out", str(out)]) == 0
        merged = io.load_model(out.read_bytes())
        assert merged.product("mod1").position == (1.0, 0.5, 0.1)

    def test_export_dot_golden(self, workdir, fixtures_dir, capsys):
        assert main(["export-dot", model_path(workdir)]) == 0
        assert capsys.readouterr().out == (fixtures_dir / "f1.dot").read_text()

    def test_export_dot_with_plan(self, workdir, capsys):
        plan = workdir / "repair.plan.json"
        main(["plan", "repair", model_path(workdir),
              "--broken", "mod8", "--replace", "mod8=mod8r", "--out", str(plan)])
        capsys.readouterr()
        assert main(["export-dot", model_path(workdir), "--plan", str(plan)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if "color=red" in l and "->" in l) == 7
        assert sum(1 for l in lines if "color=red" in l and "->" not in l) == 1

    @pytest.mark.parametrize("direction", ["Forward", "Reverse", "Swap"])
    def test_export_dot_draws_the_model_not_forged_lists(self, fixtures_dir, workdir, capsys,
                                                         direction):
        """Forged step lists, which ``exec`` rejects, draw the overlay of the true plan; a
        Swap's forged lists disagree with its swap ids, so its plan does not load."""
        golden = fixtures_dir / "f1_repair_mod8.plan.json"
        doc = json.loads(golden.read_text())
        index, step = next((i, s) for i, s in enumerate(doc["steps"])
                           if s["direction"] == direction)
        step["consumed"], step["produced"] = ["bogus"], ["cover", "battery"]
        (workdir / "forged.plan.json").write_text(json.dumps(doc))
        assert main(["export-dot", model_path(workdir), "--plan", str(golden)]) == 0
        true_dot = capsys.readouterr().out
        forged = str(workdir / "forged.plan.json")
        if direction == "Swap":
            assert main(["export-dot", model_path(workdir), "--plan", forged]) == 2
            assert capsys.readouterr().err.startswith(f"error: parse-error: steps[{index}]: ")
            return
        assert main(["export-dot", model_path(workdir), "--plan", forged]) == 0
        assert capsys.readouterr().out == true_dot and '"bogus"' not in true_dot

    def test_export_dot_step_at_unknown_process(self, workdir, capsys):
        plan = workdir / "ghost.plan.json"
        plan.write_bytes(io.save_plan(Plan("m", battery_model().digest, (
            PlanStep("ghost", Direction.REVERSE, ("battery",), (), ()),
        ))))
        assert main(["export-dot", model_path(workdir), "--plan", str(plan)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown-process: step 0 (Reverse 'ghost'): no process 'ghost' in model "
            f"'{battery_model().id}'\n"
        )

    def test_export_dot_of_a_plan_for_another_model_is_digest_mismatch(self, workdir, capsys):
        """``export-dot --plan`` checks the plan's model digest as ``exec`` does."""
        doc = json.loads(io.save_plan(assembly_recipe(battery_model())))
        doc["model_digest"] = "0" * 64
        plan = workdir / "foreign.plan.json"
        plan.write_text(json.dumps(doc))
        errors = []
        for argv in (["export-dot", model_path(workdir), "--plan", str(plan)],
                     ["exec", str(plan), model_path(workdir)]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == (
            f"error: digest-mismatch: plan was built for digest {'0' * 12}..., "
            f"model '{battery_model().id}' has {battery_model().digest[:12]}...\n"
        )


def run_cli_encoded(args, cwd, encoding):
    """``run_cli`` with stdout and stderr in ``encoding``, as a locale may set it; both bytes."""
    paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
           "PYTHONIOENCODING": encoding}
    return subprocess.run(
        [sys.executable, "-m", "bipan.cli", *args], cwd=cwd, env=env, capture_output=True
    )


class TestStdoutIsUtf8:
    """Payloads and human lines reach stdout as UTF-8 bytes, whatever the locale's encoding."""

    @pytest.mark.parametrize(
        "label", ["Módulo", "Batterie – 电池"], ids=["latin-1", "beyond-latin-1"]
    )
    @pytest.mark.parametrize(
        "argv",
        [["import-aml", "battery.aml", "--merge", "f1.bipan.json"], ["export-dot", "f1.bipan.json"]],
        ids=["import-aml", "export-dot"],
    )
    def test_payload_equals_out_under_latin1(self, workdir, monkeypatch, label, argv):
        doc = json.loads((workdir / "f1.bipan.json").read_bytes())
        for product in doc["products"]:
            if product["id"] == "cover":
                product["label"] = label
        (workdir / "f1.bipan.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode())
        result = run_cli_encoded(argv, workdir, "latin-1")
        assert result.returncode == 0 and b"Traceback" not in result.stderr, result.stderr
        monkeypatch.chdir(workdir)
        assert main([*argv, "--out", "out"]) == 0
        assert result.stdout == (workdir / "out").read_bytes()
        assert label.encode("utf-8") in result.stdout
        if argv[0] == "import-aml":
            assert io.load_model(result.stdout).product("cover").label == label

    def test_human_log_under_ascii(self, workdir):
        from bipan.pdt import Event, PdtInstance
        twin = PdtInstance("VIN-7", "m", "d", {}, (Event(T0, "note", {"by": "José"}),))
        io.write_instance_file(twin, workdir)
        result = run_cli_encoded(["pdt", "log", "VIN-7", "--dir", "."], workdir, "ascii")
        assert result.returncode == 0 and b"Traceback" not in result.stderr, result.stderr
        assert result.stdout == f"{T0} note by=José\n".encode("utf-8")


class TestStderrIsUtf8:
    """Lines to stderr are the same UTF-8 bytes under every encoding the locale may give it."""

    @pytest.mark.parametrize(
        "name, shown",
        [("Módulo.json", "Módulo.json".encode()), (b"\xff.json", b"\\udcff.json")],
        ids=["latin-1-name", "undecodable-byte"],
    )
    def test_error_line(self, tmp_path, name, shown):
        results = [
            run_cli_encoded(["validate", name], tmp_path, encoding)
            for encoding in ("ascii", "latin-1", "utf-8")
        ]
        assert [r.returncode for r in results] == [2, 2, 2]
        assert results[0].stderr == results[1].stderr == results[2].stderr
        assert results[0].stderr.startswith(b"error: unreadable: " + shown + b": ")
        assert results[0].stderr.count(b"\n") == 1 and b"Traceback" not in results[0].stderr

    def test_created_line(self, workdir):
        lines = []
        for encoding in ("ascii", "latin-1", "utf-8"):
            twins = workdir / f"Módulo-{encoding}"
            twins.mkdir()
            argv = ["pdt", "new", "VIN-7", "f1.bipan.json", "--dir", twins.name]
            result = run_cli_encoded(argv, workdir, encoding)
            assert result.returncode == 0, result.stderr
            lines.append(result.stderr.replace(encoding.encode(), b"<encoding>"))
        assert lines == [b"created M\xc3\xb3dulo-<encoding>/VIN-7.pdt.json\n"] * 3


class TestTextStreams:
    """A library caller's ``redirect_stdout`` and ``redirect_stderr`` give streams with no
    bytes beneath them; each payload and line is written to them decoded."""

    def test_payload_is_written_decoded(self, workdir, capsysbinary):
        argv = ["validate", model_path(workdir), "--format", "json"]
        assert main(argv) == 0
        payload = capsysbinary.readouterr().out
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 0
        assert payload.startswith(b"{")
        assert (out.getvalue(), err.getvalue()) == (payload.decode("utf-8"), "")

    def test_error_line_is_written_decoded(self, workdir):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["validate", str(workdir / "absent.json")]) == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: unreadable: ") and err.getvalue().count("\n") == 1


#: Runs ``pdt set-health`` on twin ``VIN-9`` in ``argv[1]``, from index ``argv[2]`` on, each
#: ``--at`` its index in seconds after 10:00, and prints each index and ``--at`` once ``main``
#: has returned 0.
SET_HEALTH_LOOP = """
import itertools, sys
from datetime import datetime, timedelta, timezone
from bipan.cli import main
directory, start = sys.argv[1], int(sys.argv[2])
for i in itertools.count(start):
    at = (datetime(2024, 5, 1, 10, tzinfo=timezone.utc) + timedelta(seconds=i)).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    component, health = ("mod7", "mod8")[i % 2], ("ok", "degraded", "broken")[i % 3]
    if main(["pdt", "set-health", "VIN-9", component, health, "--at", at, "--dir", directory]):
        sys.exit(1)
    print(i, at, flush=True)
"""


def set_health_after(barrier, args):
    """Wait at ``barrier``, then run ``pdt set-health`` and exit with its status."""
    barrier.wait()
    sys.exit(main(["pdt", "set-health", *args]))


class TestPdt:
    def test_full_flow_matches_planner(self, workdir, fixtures_dir, capsys):
        d = str(workdir)
        assert main(["pdt", "new", "VIN-001", model_path(workdir), "--dir", d]) == 0
        assert main(["pdt", "set-health", "VIN-001", "mod8", "broken", "--at", T0, "--dir", d]) == 0
        out = workdir / "vin1.plan.json"
        assert main(["pdt", "plan-repair", "VIN-001", "--model", model_path(workdir),
                     "--replace", "mod8=mod8r", "--at", T1, "--dir", d, "--out", str(out)]) == 0
        assert out.read_bytes() == (fixtures_dir / "f1_repair_mod8.plan.json").read_bytes()
        capsys.readouterr()
        assert main(["pdt", "log", "VIN-001", "--dir", d]) == 0
        log = capsys.readouterr().out.splitlines()
        assert log[0] == f"{T0} health-update component=mod8 health=Broken"
        assert log[1].startswith(f"{T1} plan-created broken=mod8")

    def test_health_case_insensitive(self, workdir):
        d = str(workdir)
        main(["pdt", "new", "VIN-002", model_path(workdir), "--dir", d])
        assert main(["pdt", "set-health", "VIN-002", "mod1", "Degraded", "--at", T0, "--dir", d]) == 0
        twin = io.read_instance_file(workdir, "VIN-002")
        assert twin.health["mod1"].value == "Degraded"

    def test_new_refuses_overwrite(self, workdir, capsys):
        d = str(workdir)
        main(["pdt", "new", "VIN-003", model_path(workdir), "--dir", d])
        capsys.readouterr()
        assert main(["pdt", "new", "VIN-003", model_path(workdir), "--dir", d]) == 3
        assert capsys.readouterr().err.startswith("error: io-error:")

    @pytest.mark.parametrize("args", [
        ["pdt", "new", "VIN-9", "MODEL"],
        ["pdt", "set-health", "VIN-9", "mod8", "broken", "--at", T0],
    ], ids=["new", "set-health"])
    def test_a_symlinked_lock_file_is_refused(self, workdir, tmp_path_factory, capsys, args):
        """A lock file planted as a link to a missing path outside ``--dir``: the command
        ends in one ``io-error`` line and makes nothing outside ``--dir``."""
        d, outside = workdir / "twins", tmp_path_factory.mktemp("outside") / "planted"
        d.mkdir()
        if args[1] == "set-health":
            assert main(["pdt", "new", "VIN-9", model_path(workdir), "--dir", str(d)]) == 0
            (d / "VIN-9.pdt.lock").unlink()
        (d / "VIN-9.pdt.lock").symlink_to(outside)
        before = sorted(d.iterdir())
        capsys.readouterr()
        argv = [model_path(workdir) if arg == "MODEL" else arg for arg in args]
        assert main([*argv, "--dir", str(d)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: io-error: ") and err.count("\n") == 1, err
        assert not os.path.lexists(outside) and sorted(d.iterdir()) == before

    @pytest.mark.parametrize("command", ["new", "set-health", "plan-repair"])
    def test_a_symlinked_twin_file_leaves_its_target_alone(self, workdir, tmp_path_factory,
                                                          command):
        """A twin file planted as a link to a path outside ``--dir`` (dangling for ``new``):
        the command makes nothing outside ``--dir`` and leaves the target's bytes as they were."""
        d, outside = workdir / "twins", tmp_path_factory.mktemp("outside")
        d.mkdir()
        if command != "new":  # a twin outside, with a Broken component to plan for
            for args in (["new", "VIN-9", model_path(workdir)],
                         ["set-health", "VIN-9", "mod8", "broken", "--at", T0]):
                assert main(["pdt", *args, "--dir", str(outside)]) == 0
        (d / "VIN-9.pdt.json").symlink_to(outside / "VIN-9.pdt.json")
        before = {path.name: path.read_bytes() for path in outside.iterdir()}
        args = {
            "new": ["new", "VIN-9", model_path(workdir)],
            "set-health": ["set-health", "VIN-9", "mod7", "degraded", "--at", T1],
            "plan-repair": ["plan-repair", "VIN-9", "--model", model_path(workdir), "--replace",
                            "mod8=mod8r", "--at", T1, "--out", str(d / "r.plan.json")],
        }[command]
        main(["pdt", *args, "--dir", str(d)])
        assert {path.name: path.read_bytes() for path in outside.iterdir()} == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the lock is POSIX-only")
    def test_a_killed_writer_loses_no_acknowledged_event(self, workdir):
        """A writer killed at seeded random moments, and restarted each time: the twin still
        loads and holds every event a ``set-health`` returned 0 for, in order."""
        d, rng = workdir / "twins", random.Random(0)
        d.mkdir()
        assert main(["pdt", "new", "VIN-9", model_path(workdir), "--dir", str(d)]) == 0
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
        acknowledged: list[list[str]] = []  # [index, --at] of each write that returned 0
        for _ in range(rng.randint(3, 5)):
            start = int(acknowledged[-1][0]) + 1 if acknowledged else 0
            with subprocess.Popen([sys.executable, "-c", SET_HEALTH_LOOP, str(d), str(start)],
                                  env=env, stdout=subprocess.PIPE, text=True) as writer:
                try:
                    ready = select.select([writer.stdout], [], [], 60)[0]  # the first line, or none
                    first = writer.stdout.readline() if ready else ""
                    time.sleep(rng.uniform(0.0, 0.3))
                finally:
                    writer.kill()
                    writer.wait()
                lines = (first + writer.stdout.read()).splitlines()
            acknowledged += [line.split() for line in lines]
            assert writer.returncode == -signal.SIGKILL and first, "the writer acknowledged nothing"
        stamps = iter(event.timestamp for event in io.read_instance_file(d, "VIN-9").events)
        assert all(stamp in stamps for _, stamp in acknowledged)  # each after the one before

    @pytest.mark.parametrize("where, message", [
        ("missing/r.plan.json", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_failed_out_leaves_the_twin_untouched(self, workdir, capsys, where, message):
        d = str(workdir)
        assert main(["pdt", "new", "VIN-1", model_path(workdir), "--dir", d]) == 0
        assert main(["pdt", "set-health", "VIN-1", "mod8", "broken", "--at", T0, "--dir", d]) == 0
        twin = (workdir / "VIN-1.pdt.json").read_bytes()
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        out = workdir / where
        args = ["pdt", "plan-repair", "VIN-1", "--model", model_path(workdir),
                "--replace", "mod8=mod8r", "--at", T1, "--dir", d, "--out", str(out)]
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: io-error: {message}: '{out}'\n"
        assert (workdir / "VIN-1.pdt.json").read_bytes() == twin
        assert sorted(workdir.iterdir()) == before

    def test_failed_twin_write_leaves_no_plan(self, workdir, monkeypatch, capsys):
        d = str(workdir)
        assert main(["pdt", "new", "VIN-1", model_path(workdir), "--dir", d]) == 0
        assert main(["pdt", "set-health", "VIN-1", "mod8", "broken", "--at", T0, "--dir", d]) == 0
        before = sorted(workdir.iterdir())

        def fault(*args):
            raise OSError(errno.ENOSPC, "injected fault")

        monkeypatch.setattr(io, "write_instance_file", fault)
        args = ["pdt", "plan-repair", "VIN-1", "--model", model_path(workdir),
                "--replace", "mod8=mod8r", "--at", T1, "--dir", d, "--out", str(workdir / "r.json")]
        assert main(args) == 3
        assert capsys.readouterr().err.endswith("error: io-error: [Errno 28] injected fault\n")
        assert sorted(workdir.iterdir()) == before

    def test_replacement_named_twice_exit_2(self, workdir):
        d = str(workdir)
        assert main(["pdt", "new", "VIN-1", model_path(workdir), "--dir", d]) == 0
        assert main(["pdt", "set-health", "VIN-1", "mod8", "broken", "--at", T0, "--dir", d]) == 0
        twin = (workdir / "VIN-1.pdt.json").read_bytes()
        args = ["pdt", "plan-repair", "VIN-1", "--model", "f1.bipan.json",
                "--replace", "mod8=x,mod8=y", "--at", T1]
        result = run_cli(args, workdir)
        assert_one_error(result, "usage")
        assert result.stdout == ""
        assert (workdir / "VIN-1.pdt.json").read_bytes() == twin

    def test_replacement_of_an_untracked_id_exit_2(self, workdir):
        d = str(workdir)
        assert main(["pdt", "new", "VIN-1", model_path(workdir), "--dir", d]) == 0
        assert main(["pdt", "set-health", "VIN-1", "mod8", "broken", "--at", T0, "--dir", d]) == 0
        twin = (workdir / "VIN-1.pdt.json").read_bytes()
        args = ["pdt", "plan-repair", "VIN-1", "--model", "f1.bipan.json",
                "--replace", "mod8=m,zzz=n", "--at", T1]
        result = run_cli(args, workdir)
        assert_one_error(result, "unknown-component")
        assert result.stderr == (
            "error: unknown-component: 'zzz' is not a tracked component of instance 'VIN-1'\n"
        )
        assert result.stdout == ""
        assert (workdir / "VIN-1.pdt.json").read_bytes() == twin

    def test_nothing_broken_exit_1(self, workdir, capsys):
        d = str(workdir)
        main(["pdt", "new", "VIN-004", model_path(workdir), "--dir", d])
        capsys.readouterr()
        assert main(["pdt", "plan-repair", "VIN-004", "--model", model_path(workdir),
                     "--replace", "mod8=mod8r", "--at", T0, "--dir", d]) == 1
        assert capsys.readouterr().err.startswith("error: nothing-broken:")

    def test_stored_id_must_match_requested_id(self, workdir, capsys):
        twins = workdir / "twins"
        twins.mkdir()
        for instance in ("A", "B"):
            assert main(["pdt", "new", instance, model_path(workdir), "--dir", str(twins)]) == 0
        assert main(["pdt", "set-health", "B", "mod8", "broken", "--at", T0, "--dir", str(twins)]) == 0
        a_file = twins / "A.pdt.json"
        a_file.write_text(a_file.read_text().replace('"instance_id": "A"', '"instance_id": "B"'))
        before = {p.name: p.read_bytes() for p in twins.iterdir()}
        capsys.readouterr()
        args = ["pdt", "set-health", "A", "mod7", "broken", "--at", T1, "--dir", str(twins)]
        assert main(args) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: instance-mismatch: "), lines
        assert {p.name: p.read_bytes() for p in twins.iterdir()} == before

    def test_time_regression_exit_2(self, workdir, capsys):
        d = str(workdir)
        main(["pdt", "new", "VIN-005", model_path(workdir), "--dir", d])
        main(["pdt", "set-health", "VIN-005", "mod8", "broken", "--at", T1, "--dir", d])
        capsys.readouterr()
        assert main(["pdt", "set-health", "VIN-005", "mod7", "ok", "--at", T0, "--dir", d]) == 2
        assert capsys.readouterr().err.startswith("error: time-regression:")

    def test_missing_at_flag_exit_2(self, workdir, capsys):
        d = str(workdir)
        main(["pdt", "new", "VIN-006", model_path(workdir), "--dir", d])
        capsys.readouterr()
        assert main(["pdt", "set-health", "VIN-006", "mod8", "broken", "--dir", d]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="forks the writers; the lock is POSIX-only")
    def test_concurrent_writers_keep_every_event(self, workdir):
        """Two ``set-health`` calls released together each append their event."""
        context = multiprocessing.get_context("fork")
        d = str(workdir)
        for trial in range(20):
            twin = f"VIN-{trial}"
            assert main(["pdt", "new", twin, model_path(workdir), "--dir", d]) == 0
            barrier = context.Barrier(2, timeout=60)
            writers = [
                context.Process(
                    target=set_health_after,
                    args=(barrier, [twin, component, "broken", "--at", T0, "--dir", d]),
                )
                for component in ("mod7", "mod8")
            ]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join()
            assert [writer.exitcode for writer in writers] == [0, 0]
            events = io.read_instance_file(workdir, twin).events
            assert sorted(event.payload["component"] for event in events) == ["mod7", "mod8"], trial

    def test_twin_and_log_bytes_pinned(self, workdir, capsys):
        # Recorded before twin documents had a direct decode path.
        d, model = str(workdir), model_path(workdir)
        script = [
            ["new", "VIN-007", model],
            ["set-health", "VIN-007", "mod8", "broken", "--at", T0],
            ["set-health", "VIN-007", "mod2", "Degraded", "--at", "2024-05-01T10:30:00+00:00"],
            ["set-health", "VIN-007", "mod2", "broken", "--at", "2024-05-01T10:30:00.250000Z"],
            ["plan-repair", "VIN-007", "--model", model, "--replace", "mod8=mod8r,mod2=mod2r",
             "--at", T1, "--out", str(workdir / "r.plan.json")],
        ]
        for args in script:
            assert main(["pdt", *args, "--dir", d]) == 0
        twin = (workdir / "VIN-007.pdt.json").read_bytes()
        assert hashlib.sha256(twin).hexdigest() == (
            "f91bf476b6a46919b02ae1fe4ac72d7cc89197c0be53f5d8ab0d6182a2c7ca47"
        )
        capsys.readouterr()
        assert main(["pdt", "log", "VIN-007", "--dir", d, "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
            "e74a132b80a6f6dcfbc0bf57c60d18c50f7544610118e7fad008ea2917febb74"
        )


class TestUsageBeforeFiles:
    """A bad argument is ``usage`` before any twin is locked or read, or any model read."""

    @pytest.mark.parametrize(
        "args",
        [
            ["pdt", "set-health", "NOPE", "mod8", "brokn", "--at", T0],
            ["pdt", "plan-repair", "NOPE", "--model", "missing.json", "--replace", "bad",
             "--at", T0],
        ],
        ids=["set-health", "plan-repair"],
    )
    def test_pdt_leaves_dir_empty(self, tmp_path, capsys, args):
        assert main([*args, "--dir", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: usage: "), lines
        assert list(tmp_path.iterdir()) == []

    def test_health_names_every_value(self, tmp_path, capsys):
        main(["pdt", "set-health", "NOPE", "mod8", "brokn", "--at", T0, "--dir", str(tmp_path)])
        assert "one of ok, degraded, broken, unknown; got 'brokn'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "broken,replace", [(",", "a=b"), ("mod8", "bad"), (None, "a=b"), ("mod8", None)]
    )
    def test_plan_repair_before_the_model(self, tmp_path, capsys, broken, replace):
        args = ["plan", "repair", str(tmp_path / "missing.json")]
        args += [] if broken is None else ["--broken", broken]
        args += [] if replace is None else ["--replace", replace]
        assert main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: usage: "), lines


def bushy(nodes):
    """The bytes of the bushy model of about ``nodes`` nodes that ``bench/gen.py`` makes from
    seed 1."""
    code = f"import sys, gen; sys.stdout.buffer.write(gen.generate('bushy', 1, {nodes}).data)"
    return subprocess.run([sys.executable, "-c", code], cwd=SRC.parents[1] / "bench",
                          capture_output=True, check=True).stdout


class TestHostileEnvironments:
    @pytest.fixture(scope="class")
    def large_model(self, tmp_path_factory):
        """The bushy model of about 16k nodes (3.6 MB)."""
        path = tmp_path_factory.mktemp("large") / "bushy.bipan.json"
        path.write_bytes(bushy(16_000))
        return str(path)

    @pytest.fixture(scope="class")
    def large_plan(self, large_model):
        """The large model's assembly plan, built once."""
        path = Path(large_model).with_name("bushy.plan.json")
        path.write_bytes(io.save_plan(assembly_recipe(io.load_model(io.read_file(large_model)))))
        return str(path)

    @pytest.fixture(scope="class")
    def long_twin(self, tmp_path_factory):
        """A twin of 40 000 events (6.8 MB) on the bushy model of 400 nodes, in a directory of
        its own."""
        twin = create_instance("LONG", io.load_model(bushy(400)))
        components, start = sorted(twin.health), datetime(2024, 1, 1, tzinfo=timezone.utc)
        events = [Event((start + timedelta(minutes=i)).isoformat(), "health-update",
                        {"component": components[i % len(components)], "health": "Ok"})
                  for i in range(40_000)]
        directory = tmp_path_factory.mktemp("twin")
        io.write_instance_file(replace(twin, events=events), directory)
        return directory, components[0]

    @staticmethod
    def run_capped(args, cwd, mib):
        """``run_cli`` under an address-space cap of ``mib`` MiB, set in the child process
        alone; it succeeds or prints one ``out-of-memory`` line and exits 3, with no traceback."""
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

        result = run_cli(args, cwd, preexec_fn=limit)
        errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
        assert result.returncode in (0, 3) and "Traceback" not in result.stderr, result.stderr
        assert [e.split(": ")[1] for e in errors] == ["out-of-memory"] * (result.returncode == 3)
        return result.returncode

    @pytest.mark.parametrize("args", [["validate", "MODEL"], ["plan", "assemble", "MODEL"],
                                      ["exec", "PLAN", "MODEL"]])
    def test_a_memory_cap_ends_in_one_error_line(self, large_model, large_plan, tmp_path, args):
        """Some cap is too low for the command, and each leaves room for the interpreter to
        start."""
        args = [{"MODEL": large_model, "PLAN": large_plan}.get(arg, arg) for arg in args]
        statuses = [self.run_capped(args, tmp_path, mib) for mib in (32, 40, 64)]
        assert 3 in statuses, statuses

    def test_a_memory_cap_on_a_long_twin_leaves_it_whole(self, long_twin):
        """``pdt set-health`` reads, appends to and rewrites the whole log: a cap that stops
        it, in the read or in the write, leaves the twin file's bytes and no temp file."""
        directory, component = long_twin
        path = directory / "LONG.pdt.json"
        statuses = []
        for mib in (48, 64, 96):
            before = path.read_bytes()
            statuses.append(self.run_capped(["pdt", "set-health", "LONG", component, "ok", "--at",
                                             "2030-01-01T00:00:00Z", "--dir", "."], directory, mib))
            if statuses[-1] == 3:
                assert path.read_bytes() == before
            assert sorted(p.name for p in directory.iterdir()) == ["LONG.pdt.json",
                                                                   "LONG.pdt.lock"]
        assert 3 in statuses, statuses

    def test_a_memory_error_while_the_parser_is_built_ends_in_one_error_line(self, monkeypatch,
                                                                              capsys):
        def exhausted():
            raise MemoryError

        monkeypatch.setattr(cli, "build_parser", exhausted)
        assert main(["validate", "x.json"]) == 3
        assert capsys.readouterr().err == (
            "error: out-of-memory: the command needs more memory than it may use\n"
        )


class TestHostileInput:
    def test_deeply_nested_json(self, workdir):
        (workdir / "deep.json").write_text("[" * 100_000)
        assert_one_error(run_cli(["validate", "deep.json"], workdir), "parse-error")

    def test_deeply_nested_caex(self, workdir):
        depth = 3000
        body = "".join(f'<InternalElement ID="e{i}" Name="n{i}">' for i in range(depth))
        body += "<InternalElement/>" + "</InternalElement>" * depth
        (workdir / "deep.aml").write_text(
            '<CAEXFile><SystemUnitClassLib Name="L"><SystemUnitClass Name="S">'
            f"{body}</SystemUnitClass></SystemUnitClassLib></CAEXFile>"
        )
        result = run_cli(["import-aml", "deep.aml"], workdir)
        assert_one_error(result, "parse-error")
        assert result.stderr.rstrip().endswith(
            f"/InternalElement 'n{depth - 1}'/InternalElement (unnamed): missing ID attribute"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["pdt", "new", "../escaped", "../f1.bipan.json", "--dir", "."],
            ["pdt", "set-health", "../escaped", "mod8", "broken", "--at", T0, "--dir", "."],
            ["pdt", "log", "../escaped", "--dir", "."],
        ],
    )
    def test_twin_id_cannot_escape_dir(self, workdir, args):
        twins = workdir / "twins"
        twins.mkdir()
        (workdir / "escaped.pdt.json").write_bytes(b"{}")  # what a read would find outside
        before = sorted(p.name for p in workdir.rglob("*"))
        assert_one_error(run_cli(args, twins), "invalid-id")
        assert sorted(p.name for p in workdir.rglob("*")) == before


    @pytest.mark.parametrize("args", [
        ["pdt", "new", "", "f1.bipan.json"],
        ["pdt", "log", ""],
        ["pdt", "set-health", "", "mod8", "broken", "--at", T0],
        ["pdt", "plan-repair", "", "--model", "f1.bipan.json", "--replace", "mod8=mod8r",
         "--at", T0],
    ], ids=["new", "log", "set-health", "plan-repair"])
    def test_empty_twin_id_is_invalid_id(self, workdir, monkeypatch, capsys, args):
        """Every twin command checks an instance id by the one node-id rule."""
        monkeypatch.chdir(workdir)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: invalid-id: node id '' must be a non-empty string matching [A-Za-z0-9_.-]+\n"
        )
        assert sorted(p.name for p in workdir.iterdir()) == sorted(
            ["f1.bipan.json", "registry_full.json", "registry_no_cables.json", "battery.aml"]
        )

    def test_position_beyond_float_range(self, workdir):
        big = "1" + "0" * 400
        (workdir / "big.json").write_text(
            '{"id": "m", "products": [{"id": "a", "kind": "Final", "label": "A", '
            f'"position": [{big}, 0, 0]}}]}}'
        )
        assert_one_error(run_cli(["validate", "big.json"], workdir), "invalid-position")

    def test_unpaired_surrogate_escape(self, workdir):
        (workdir / "lone.json").write_text('{"id": "\\ud800"}')
        assert_one_error(run_cli(["plan", "assemble", "lone.json"], workdir), "parse-error")

    def test_dot_overlay_step_without_items(self, workdir):
        """A step at a process with no output (a V001 mutant) has no edge to draw."""
        mutant = MUTANTS["V001"][0](battery_model())  # p1 lost its output stage1
        (workdir / "mutant.bipan.json").write_bytes(io.save_model(mutant))
        plan = replace(assembly_recipe(battery_model()), model_digest=mutant.digest)
        (workdir / "asm.plan.json").write_bytes(io.save_plan(plan))
        index = plan.process_sequence().index("p1")
        result = run_cli(["export-dot", "mutant.bipan.json", "--plan", "asm.plan.json"], workdir)
        assert result.returncode == 3 and "Traceback" not in result.stderr
        assert result.stderr.startswith(f"error: step-mismatch: step {index} (Forward 'p1')")
        assert len(result.stderr.splitlines()) == 1

    def test_dot_overlay_of_a_model_is_parse_error(self, workdir):
        """A document without ``steps`` is no plan: a model given as one draws no overlay."""
        result = run_cli(["export-dot", "f1.bipan.json", "--plan", "f1.bipan.json"], workdir)
        assert_one_error(result, "parse-error")
        assert result.stdout == ""

    def test_dot_overlay_quotes_plan_ids(self, workdir):
        plan = json.loads(io.save_plan(repair_plan(battery_model(), ["mod8"], {"mod8": "mod8r"})))
        swap = next(step for step in plan["steps"] if step["direction"] == "Swap")
        swap["swap_replacement"] = swap["consumed"][0] = 'battery" -> "evil'
        (workdir / "evil.plan.json").write_text(json.dumps(plan))
        result = run_cli(["export-dot", "f1.bipan.json", "--plan", "evil.plan.json"], workdir)
        assert result.returncode == 0, result.stderr
        assert '"battery" -> "evil"' not in result.stdout
        lines = result.stdout.splitlines()
        evil = '"battery\\" -> \\"evil"'
        assert f"  {evil} [shape=circle, style=dashed, color=red, label={evil}];" in lines
        assert any(line.startswith(f'  {evil} -> "p2" [color=red') for line in lines)

    def test_number_beyond_digit_limit(self, workdir):
        (workdir / "long.json").write_text('{"id": "m", "x": ' + "9" * 5000 + "}")
        assert_one_error(run_cli(["validate", "long.json"], workdir), "parse-error")

    @pytest.mark.parametrize("replacement", ["\udcff", "a b"])  # the first is the byte 0xff
    def test_replacement_id_is_checked(self, workdir, replacement):
        args = ["plan", "repair", "f1.bipan.json", "--broken", "mod8", "--replace", f"mod8={replacement}"]
        assert_one_error(run_cli(args, workdir), "invalid-id")

    def test_newline_in_twin_health_key(self, workdir):
        assert run_cli(["pdt", "new", "VIN-1", "f1.bipan.json"], workdir).returncode == 0
        twin = json.loads((workdir / "VIN-1.pdt.json").read_text())
        twin["health"] = {"a\nb": 1}
        (workdir / "VIN-1.pdt.json").write_text(json.dumps(twin))
        assert_one_error(run_cli(["pdt", "log", "VIN-1"], workdir), "parse-error")

    def test_newline_in_broken_id(self, workdir):
        args = ["plan", "repair", "f1.bipan.json", "--broken", "a\nb", "--replace", "a\nb=x"]
        assert_one_error(run_cli(args, workdir), "unknown-node")

    def test_newline_in_missing_skill(self, workdir):
        model = json.loads((workdir / "f1.bipan.json").read_text())
        for skill in model["skills"]:
            if skill["label"] == "screwing":
                skill["label"] = "screw\ning"
        (workdir / "f1.bipan.json").write_text(json.dumps(model))
        args = ["plan", "assemble", "f1.bipan.json", "--registry", "registry_full.json"]
        result = run_cli(args, workdir)
        assert result.returncode == 1 and "Traceback" not in result.stderr
        *missing, error = result.stderr.splitlines()
        assert error == "error: infeasible: missing skills: screw\\ning"
        assert missing and all(line.endswith("): missing screw\\ning") for line in missing)


# Top-level modules that ``import bipan.cli`` adds under ``python -S`` (CPython
# 3.11), recorded when the package began to register its submodules unloaded.
CLI_IMPORTS = frozenset("""
    __future__ _collections _collections_abc _functools _operator _sre _stat _typing
    argparse bipan collections contextlib copyreg enum errno fnmatch functools genericpath
    gettext importlib ipaddress itertools keyword ntpath operator os pathlib posixpath re
    reprlib stat types typing urllib warnings
""".split())
ONLY_ON_DEMAND = ("xml.etree", "hashlib")  # imported by import-aml and by digests alone
NEVER_LOADED = ("dataclasses", "inspect")  # records are built without ``dataclasses``
LAZY = ("canon", "exchange", "execute", "io", "model", "pdt", "plan", "validate")

# The ``bipan`` submodules whose code each command runs; the others stay registered
# unloaded. Every native document is decoded in ``io``. Only ``import-aml`` and
# ``export-dot`` run ``exchange``. Replaying or drawing a plan validates nothing and
# runs no planner.
PLANS = "canon cli errors io model"
PLANNING = f"{PLANS} plan validate"
COMMAND_MODULES = {
    "validate": (["validate", "f1.bipan.json"], "canon cli errors io model validate"),
    "plan-assemble": (["plan", "assemble", "f1.bipan.json"], PLANNING),
    "plan-registry": (
        ["plan", "assemble", "f1.bipan.json", "--registry", "registry_full.json"],
        PLANNING,
    ),
    "exec": (
        ["exec", "f1_repair_mod8.plan.json", "f1.bipan.json", "--inventory", "final"],
        f"{PLANS} execute",
    ),
    "export-dot": (["export-dot", "f1.bipan.json"], "canon cli errors exchange io model"),
    "export-dot-plan": (
        ["export-dot", "f1.bipan.json", "--plan", "f1_repair_mod8.plan.json"],
        f"{PLANS} exchange",
    ),
    "import-aml": (["import-aml", "battery.aml"], "canon cli errors exchange io model"),
    "import-aml-merge": (
        ["import-aml", "battery.aml", "--merge", "f1.bipan.json"],
        "canon cli errors exchange io model",
    ),
    "pdt-new": (["pdt", "new", "VIN-2", "f1.bipan.json"], "canon cli errors io model pdt validate"),
    "pdt-log": (["pdt", "log", "VIN-1", "--format", "json"], "canon cli errors io model pdt"),
    "pdt-set-health": (
        ["pdt", "set-health", "VIN-1", "mod7", "broken", "--at", T1],
        "canon cli errors io model pdt",
    ),
    "pdt-plan-repair": (
        ["pdt", "plan-repair", "VIN-1", "--model", "f1.bipan.json", "--replace", "mod8=mod8r",
         "--at", T1],
        f"{PLANNING} pdt",
    ),
}

# Prints the ``bipan`` submodules that ran; a registered module whose code has
# not run is still of the lazy loader's module type.
PRINT_RAN = (
    "import types\n"
    "print('ran:', *sorted(name.partition('.')[2] for name, module in sys.modules.items()\n"
    "      if name.startswith('bipan.') and type(module) is types.ModuleType))\n"
)


def run_bare(code, args, cwd):
    """``code`` under ``python -S``, which leaves out ``site`` and so every installed package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestStartup:
    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="CLI_IMPORTS was recorded on CPython 3.11; the stdlib's own imports differ by version",
    )
    def test_cli_imports_no_new_modules(self, tmp_path):
        code = (
            "import sys\n"
            "before = {name.partition('.')[0] for name in sys.modules}\n"
            "import bipan.cli\n"
            "print(*sorted({name.partition('.')[0] for name in sys.modules} - before))\n"
        )
        result = run_bare(code, [], tmp_path)
        assert result.returncode == 0, result.stderr
        added = set(result.stdout.split())
        assert "bipan" in added
        assert added <= CLI_IMPORTS, sorted(added - CLI_IMPORTS)

    def test_import_registers_every_submodule_unloaded(self, tmp_path):
        """An outside tracer finds each submodule in ``sys.modules`` and loads it by attribute."""
        code = (
            "import sys\n"
            "import bipan\n"
            "print(*sorted(name for name in sys.modules if name.startswith('bipan.')))\n"
            + PRINT_RAN
            + "print(bipan.io.load_model.__module__)\n"
            + PRINT_RAN
        )
        result = run_bare(code, [], tmp_path)
        assert result.returncode == 0, result.stderr
        registered, ran, home, ran_after = result.stdout.splitlines()
        assert registered.split() == [f"bipan.{name}" for name in sorted((*LAZY, "errors"))]
        assert ran.split() == ["ran:", "errors"]
        assert home == "bipan.io"
        assert ran_after.split() == ["ran:", "canon", "errors", "io", "model"]

    def test_every_export_resolves(self, tmp_path):
        """``from ... import *`` fails on a name in ``__all__`` that its module no longer has."""
        code = (
            "import bipan, bipan.exchange, bipan.io\n"
            "from bipan import *\n"
            "from bipan.exchange import *\n"
            "from bipan.io import *\n"
            "names = (*bipan.__all__, *bipan.exchange.__all__, *bipan.io.__all__)\n"
            "print(*[n for n in names if n not in globals()])\n"
        )
        result = run_bare(code, [], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    def test_each_name_is_its_submodule(self, tmp_path):
        """``import bipan.<m> as x``, ``from bipan import <m>`` and ``bipan.<m>`` give the module."""
        code = "import sys\nimport bipan\n" + "".join(
            f"import bipan.{m} as x\n"
            f"from bipan import {m} as y\n"
            f"if not x is y is bipan.{m} is sys.modules['bipan.{m}']: print('{m}')\n"
            for m in LAZY
        )
        result = run_bare(code, [], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    @pytest.mark.parametrize("args,expected", COMMAND_MODULES.values(), ids=COMMAND_MODULES)
    def test_each_command_runs_only_its_modules(self, workdir, fixtures_dir, args, expected):
        shutil.copy(fixtures_dir / "f1_repair_mod8.plan.json", workdir)
        d = str(workdir)
        assert main(["pdt", "new", "VIN-1", model_path(workdir), "--dir", d]) == 0
        assert main(["pdt", "set-health", "VIN-1", "mod8", "broken", "--at", T0, "--dir", d]) == 0
        code = "import sys\nfrom bipan.cli import main\nstatus = main(sys.argv[1:])\n" + PRINT_RAN
        code += f"print('loaded:', *[m for m in {NEVER_LOADED!r} if m in sys.modules])\n"
        result = run_bare(code + "sys.exit(status)\n", args, workdir)
        assert result.returncode == 0, result.stderr
        *_, ran, loaded = result.stdout.splitlines()
        assert ran.split() == ["ran:", *sorted(expected.split())]
        assert loaded.split() == ["loaded:"]

    @pytest.mark.parametrize("args", [["frobnicate"], ["plan", "assemble"]],
                             ids=["unknown-command", "missing-model"])
    def test_a_usage_error_from_the_parser_runs_only_cli_and_errors(self, tmp_path, args):
        code = "import sys\nfrom bipan.cli import main\nstatus = main(sys.argv[1:])\n" + PRINT_RAN
        result = run_bare(code + "sys.exit(status)\n", args, tmp_path)
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: usage: "), result.stderr
        assert result.stdout.splitlines() == ["ran: cli errors"]

    @pytest.mark.parametrize(
        "name,doc,command",
        [
            ("f1.bipan.json", '{"id": 5}', "validate"),
            ("VIN-1.pdt.json", '{"instance_id": "VIN-1", "events": 5}', "pdt-log"),
        ],
        ids=["model", "twin"],
    )
    def test_a_faulty_document_runs_no_module_a_valid_one_does_not(self, workdir, name, doc,
                                                                    command):
        """The decoder that builds a valid document names the fault of a faulty one."""
        (workdir / name).write_text(doc)
        args, expected = COMMAND_MODULES[command]
        code = "import sys\nfrom bipan.cli import main\nstatus = main(sys.argv[1:])\n" + PRINT_RAN
        result = run_bare(code + "sys.exit(status)\n", args, workdir)
        assert result.returncode == 2
        assert "error: parse-error: " in result.stderr
        ran = result.stdout.splitlines()[-1].split()
        assert ran[0] == "ran:" and set(ran[1:]) <= set(expected.split()), ran

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="recorded on CPython 3.11; the stdlib's own imports differ by version",
    )
    @pytest.mark.parametrize(
        "args,loaded",
        [(["validate", "f1.bipan.json"], ()), (["import-aml", "battery.aml"], ("xml.etree",))],
    )
    def test_commands_import_xml_and_hashlib_on_demand(self, workdir, args, loaded):
        code = (
            "import sys\n"
            "from bipan.cli import main\n"
            "status = main(sys.argv[1:])\n"
            f"print('loaded:', *[m for m in {ONLY_ON_DEMAND!r} if m in sys.modules])\n"
            "sys.exit(status)\n"
        )
        result = run_bare(code, args, workdir)
        assert result.returncode == 0, result.stderr
        output, _, last = result.stdout.rstrip("\n").rpartition("\n")
        assert last.split()[1:] == list(loaded)
        if args[0] == "import-aml":
            assert len(json.loads(output)["products"]) == 10


def test_stdout_is_byte_identical_across_hash_seeds(workdir, fixtures_dir):
    """No set or dict order reaches the output: each command prints the same bytes under
    two hash seeds, including a validation report of many findings."""
    model = battery_model()
    for code in ("V003", "V005", "V006", "V008"):
        model = MUTANTS[code][0](model)
    (workdir / "bad.bipan.json").write_bytes(io.save_model(model))
    plan = str(fixtures_dir / "f1_repair_mod8.plan.json")
    commands = [
        ["plan", "repair", "f1.bipan.json", "--broken", "mod8", "--replace", "mod8=mod8r"],
        ["exec", plan, "f1.bipan.json", "--inventory", "final", "--format", "json"],
        ["exec", plan, "f1.bipan.json", "--inventory", "final"],
        ["export-dot", "f1.bipan.json", "--plan", plan],
        ["validate", "bad.bipan.json", "--format", "json"],
    ]
    for argv in commands:
        first, second = (run_cli(argv, workdir, PYTHONHASHSEED=seed) for seed in ("0", "1"))
        assert first.stdout and first.returncode == second.returncode, (argv, first.stderr)
        assert first.stdout == second.stdout, argv


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    @pytest.mark.parametrize(
        "args,commands",
        [
            (["--help"], "validate plan exec import-aml export-dot pdt"),
            (["pdt", "--help"], "new set-health log plan-repair"),
        ],
    )
    def test_help_lists_every_command(self, tmp_path, args, commands):
        result = run_cli(args, tmp_path)
        assert result.returncode == 0, result.stderr
        listed = {line.split()[0] for line in result.stdout.splitlines() if line.startswith("    ")}
        assert listed == set(commands.split())

    def test_repair_plan_equivalence_via_api(self, workdir):
        # CLI repair output replays identically to the API plan object.
        model = battery_model()
        plan = repair_plan(model, ["mod8"], {"mod8": "mod8r"})
        assert io.load_plan(io.save_plan(plan)) == plan


class TestAtomicOut:
    """``--out`` is written to a temp file and renamed, so a failed write keeps the old file."""

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "present"])
    @pytest.mark.parametrize("call", ["fsync", "replace"])
    def test_failed_write_leaves_the_old_file_or_none(self, workdir, monkeypatch, capsys, call,
                                                      old):
        out = workdir / "out.plan.json"
        if old is not None:
            out.write_bytes(old)
        before = sorted(workdir.iterdir())

        def fault(*args):
            raise OSError(errno.EIO, "injected fault")

        monkeypatch.setattr(os, call, fault)
        assert main(["plan", "assemble", model_path(workdir), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: io-error: [Errno 5] injected fault\n"
        assert sorted(workdir.iterdir()) == before  # no temp file left behind
        assert (out.read_bytes() if out.exists() else None) == old

    def test_missing_directory_names_the_out_path(self, workdir, capsys):
        out = workdir / "missing" / "out.plan.json"
        assert main(["plan", "assemble", model_path(workdir), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: io-error: [Errno 2] No such file or directory: '{out}'\n"
        )

    def test_directory_out_is_refused_as_open_refuses_it(self, workdir, capsys):
        assert main(["plan", "assemble", model_path(workdir), "--out", str(workdir)]) == 3
        assert capsys.readouterr().err == f"error: io-error: [Errno 21] Is a directory: '{workdir}'\n"

    def test_out_keeps_the_old_mode_or_takes_the_umask(self, workdir):
        old, new = workdir / "old.plan.json", workdir / "new.plan.json"
        old.write_bytes(b"old bytes\n")
        old.chmod(0o640)
        umask = os.umask(0o022)
        try:
            for out in (old, new):
                assert main(["plan", "assemble", model_path(workdir), "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == 0o644

    def test_symlinked_out_replaces_the_file_it_names(self, workdir, fixtures_dir):
        real, link = workdir / "real.plan.json", workdir / "link.plan.json"
        real.write_bytes(b"old bytes\n")
        link.symlink_to(real.name)
        before = sorted(workdir.iterdir())
        assert main(["plan", "assemble", model_path(workdir), "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_bytes() == (fixtures_dir / "f1_assembly.plan.json").read_bytes()
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("name", ["plan.fifo", "link"], ids=["fifo", "symlink-to-fifo"])
    def test_out_to_a_fifo_is_written_through(self, workdir, fixtures_dir, name):
        """A FIFO, or a link to one as ``/dev/stdout`` is to a pipe, keeps its place."""
        fifo = workdir / "plan.fifo"
        os.mkfifo(fifo)
        if name == "link":
            (workdir / name).symlink_to(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the plan fits the pipe's buffer
        try:
            assert main(["plan", "assemble", model_path(workdir), "--out", str(workdir / name)]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode) and os.path.samefile(workdir / name, fifo)
        assert data == (fixtures_dir / "f1_assembly.plan.json").read_bytes()

    @pytest.mark.parametrize("out", ["/dev/stdout", "out.txt"])
    def test_out_that_is_stdout_goes_through_stdout(self, workdir, fixtures_dir, out):
        """Stdout redirected to a file: the plan and then the report both land in it."""
        argv = ["plan", "repair", "f1.bipan.json", "--broken", "mod8", "--replace", "mod8=mod8r",
                "--registry", "registry_no_cables.json", "--out", out]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        with open(workdir / "out.txt", "wb") as stdout:
            result = subprocess.run([sys.executable, "-m", "bipan.cli", *argv], cwd=workdir,
                                    env=env, stdout=stdout, stderr=subprocess.PIPE)
        assert result.returncode == 1, result.stderr
        plan = (fixtures_dir / "f1_repair_mod8.plan.json").read_bytes()
        data = (workdir / "out.txt").read_bytes()
        assert data.startswith(plan)
        assert json.loads(data[len(plan):])["feasible"] is False

    @pytest.mark.parametrize("out", ["/dev/stderr", "err.txt"])
    def test_out_that_is_stderr_goes_through_stderr(self, workdir, fixtures_dir, out):
        """Stderr redirected to a file: the plan and then every error line land in it."""
        argv = ["plan", "repair", "f1.bipan.json", "--broken", "mod8", "--replace", "mod8=mod8r",
                "--registry", "registry_no_cables.json", "--out", out]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        with open(workdir / "err.txt", "wb") as stderr:
            result = subprocess.run([sys.executable, "-m", "bipan.cli", *argv], cwd=workdir,
                                    env=env, stdout=subprocess.PIPE, stderr=stderr)
        assert result.returncode == 1
        assert json.loads(result.stdout)["feasible"] is False
        plan = (fixtures_dir / "f1_repair_mod8.plan.json").read_bytes()
        data = (workdir / "err.txt").read_bytes()
        assert data.startswith(plan)
        *missing, error = data[len(plan):].decode("utf-8").splitlines()
        assert missing and all("missing connecting-cables" in line for line in missing)
        assert error.startswith("error: infeasible: ")

    @pytest.mark.parametrize("out,stream", [("out.txt", "stdout"), ("/dev/stderr", "stderr")])
    def test_plan_repair_out_that_is_a_standard_stream(self, workdir, fixtures_dir, out, stream):
        """``pdt plan-repair`` writes its plan through the stream whose file ``--out`` is."""
        d = str(workdir)
        assert main(["pdt", "new", "VIN-1", model_path(workdir), "--dir", d]) == 0
        assert main(["pdt", "set-health", "VIN-1", "mod8", "broken", "--at", T0, "--dir", d]) == 0
        argv = ["pdt", "plan-repair", "VIN-1", "--model", "f1.bipan.json",
                "--replace", "mod8=mod8r", "--at", T1, "--out", out]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        with open(workdir / "out.txt", "wb") as handle:
            streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: handle}
            result = subprocess.run([sys.executable, "-m", "bipan.cli", *argv], cwd=workdir,
                                    env=env, **streams)
        piped = result.stderr if stream == "stdout" else result.stdout
        assert result.returncode == 0 and piped == b"", piped
        plan = (fixtures_dir / "f1_repair_mod8.plan.json").read_bytes()
        assert (workdir / "out.txt").read_bytes() == plan
        kinds = [event.kind for event in io.read_instance_file(workdir, "VIN-1").events]
        assert kinds[-1] == "plan-created"

    def test_out_to_a_device_is_written_through(self, workdir, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a device is neither staged nor replaced")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        monkeypatch.setattr(os, "replace", refuse)
        assert main(["plan", "assemble", model_path(workdir), "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_only_cli_names_the_standard_streams():
    """Only ``cli`` decides where a payload or a line goes: no other module names
    ``stdout`` or ``stderr``, as an attribute or an import, or calls ``print``.
    """
    streams = {"stdout", "stderr", "__stdout__", "__stderr__", "print"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in streams:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
