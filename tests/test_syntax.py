"""The oldest Python the project supports (3.10) must parse every source file.

This checks syntax only, with ``ast.parse(..., feature_version=(3, 10))``
under the running interpreter; it cannot see a library API that 3.10 lacks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src/qcopynet", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py"))


def test_the_sources_are_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_check_rejects_syntax_newer_than_3_10():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
