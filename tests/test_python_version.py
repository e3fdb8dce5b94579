"""Every module of the package parses as the oldest Python that pyproject.toml
admits, so newer syntax cannot slip past requires-python."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def oldest_python():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_requires_python_is_3_10():
    assert oldest_python() == (3, 10)


def test_newer_syntax_is_rejected():
    # except* arrived in 3.11: the check below would miss it otherwise.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=oldest_python())


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "hypernull").glob("*.py")), ids=lambda path: path.name
)
def test_module_parses_as_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest_python())
