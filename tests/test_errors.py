"""The error-code table: the package raises only its codes, uses all of them, and the README agrees."""

import re
from pathlib import Path

import pytest

from bipan.errors import EXIT_CODES, BiPanError

ROOT = Path(__file__).resolve().parents[1]
_RAISED = re.compile(r'BiPanError\(\s*"([^"]*)"')
_PRINTED = re.compile(r"error: ([a-z0-9-]+):")


def codes_in_source() -> set[str]:
    """Every ``BiPanError("<code>"`` literal and printed ``error: <code>:`` under src/bipan."""
    used: set[str] = set()
    for path in (ROOT / "src" / "bipan").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        used.update(_RAISED.findall(text), _PRINTED.findall(text))
    return used


def test_every_code_in_source_is_in_the_table():
    assert codes_in_source() - EXIT_CODES.keys() == set()


def test_every_code_in_the_table_is_used():
    assert EXIT_CODES.keys() - codes_in_source() == set()


def test_exit_codes_are_1_2_or_3():
    assert set(EXIT_CODES.values()) == {1, 2, 3}


def test_unknown_code_is_rejected():
    with pytest.raises(ValueError):
        BiPanError("no-such-code", "detail")


def test_readme_table_matches():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Error codes", 1)[1]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (\d) \|", section, re.MULTILINE)
    assert len(rows) == len(EXIT_CODES)
    assert {code: int(exit_code) for code, exit_code in rows} == EXIT_CODES
