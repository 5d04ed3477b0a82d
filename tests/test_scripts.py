"""The scripts under ``scripts/`` and README's library example run against the package."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def run_script(tree, name, *args):
    """``scripts/<name>`` of ``tree`` in a fresh interpreter, with ``bipan`` from its ``src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, str(tree / "scripts" / name), *args], cwd=tree, env=env,
        capture_output=True, text=True,
    )


def test_demo_repair_runs():
    result = run_script(ROOT, "demo_repair.py")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "repair plan for ('mod8',):" in lines
    assert "feasible on flex-cell-1: True" in lines
    assert lines[-1] == "event 2024-05-01T11:00:00Z plan-created"


def test_make_fixtures_regenerates_the_goldens_byte_identically(tmp_path):
    for part in ("scripts", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    copied = tmp_path / "tests" / "fixtures"
    copied.mkdir(parents=True)
    shutil.copy(FIXTURES / "battery.aml", copied)  # hand-written input; the script reads none
    result = run_script(tmp_path, "make_fixtures.py")
    assert result.returncode == 0, result.stderr
    names = sorted(path.name for path in FIXTURES.iterdir())
    assert sorted(path.name for path in copied.iterdir()) == names
    for name in names:
        assert (copied / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_ingest_table_prints_a_row_per_model():
    result = run_script(ROOT, "ingest_table.py", "chain-30", "bushy-40", "--repeat", "1")
    assert result.returncode == 0, result.stderr
    header, rule, *rows = result.stdout.splitlines()
    assert header.startswith("| model | `json.loads` |") and rule.startswith("| --- |")
    assert [row.split("-")[0] for row in rows] == ["| chain", "| bushy"]
    assert all(row.endswith("× |") and row.count("|") == 8 for row in rows)


def test_ingest_table_prints_a_twin_row_in_a_table_of_its_own():
    result = run_script(ROOT, "ingest_table.py", "chain-30", "twin-40", "--repeat", "1")
    assert result.returncode == 0, result.stderr
    models, twins = result.stdout.split("\n\n")
    assert [line.split(" |")[0] for line in models.splitlines()] == ["| model", "| ---", "| chain-35"]
    header, rule, row = twins.splitlines()
    assert header.startswith("| twin | `json.loads` | decode, GC paused |") and rule.startswith("| --- |")
    assert row.startswith("| twin-40 | ") and row.endswith("× |") and row.count("|") == 8
    # The twin it times is one ``pdt set-health`` could have written: its health map is
    # every tracked component Unknown, then each event's health in log order.
    code = (
        "import sys\n"
        "sys.path.insert(0, 'scripts')\n"
        "from bipan import io, pdt\n"
        "from ingest_table import twin_data\n"
        "twin = io.load_instance(twin_data(40))\n"
        "fold = dict.fromkeys(twin.health, pdt.Health.UNKNOWN)\n"
        "for event in twin.events:\n"
        "    fold[event.payload['component']] = pdt.Health(event.payload['health'])\n"
        "print(len(twin.events), fold == twin.health, len(set(fold.values())))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["40", "True", "4"]


def test_ingest_table_pauses_the_gc_and_turns_it_back_on_after_a_stage_that_raises():
    code = (
        "import gc, sys\n"
        "sys.path.insert(0, 'scripts')\n"
        "from ingest_table import best_ms\n"
        "try:\n"
        "    best_ms(lambda: print(gc.isenabled()) or 1 / 0, 1, paused=True)\n"
        "except ZeroDivisionError:\n"
        "    print(gc.isenabled())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library in five lines\n", 1)[1].split("```python\n", 1)[1]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", block.split("```", 1)[0]], cwd=ROOT, env=env,
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    printed = result.stdout.strip()  # a set's order varies with the hash seed
    assert printed.startswith("frozenset({"), printed
    assert set(re.findall(r"'([^']*)'", printed)) == {"battery", "mod8"}
