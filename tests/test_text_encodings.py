"""Every text-mode open, read_text and write_text call in the package names
its encoding, so no file is read or written with the locale's codec."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def unencoded_calls(source: str) -> list:
    """The line numbers of the calls in source to open (built-in, with the
    mode second, or a method such as Path.open, with the mode first),
    read_text and write_text that open a file in text mode and pass no
    encoding=."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name not in ("open", "read_text", "write_text"):
            continue
        if any(keyword.arg == "encoding" for keyword in node.keywords):
            continue
        if name == "open":
            position = 1 if isinstance(node.func, ast.Name) else 0
            modes = [keyword.value for keyword in node.keywords if keyword.arg == "mode"]
            modes += node.args[position : position + 1]
            if any(isinstance(mode, ast.Constant) and "b" in str(mode.value) for mode in modes):
                continue
        lines.append(node.lineno)
    return lines


def test_finds_an_unencoded_text_call():
    source = (
        "from pathlib import Path\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, mode='w', encoding='utf-8', newline='')\n"
        "Path(p).open('wb')\n"
        "Path(p).open()\n"
        "Path(p).read_text()\n"
        "Path(p).write_text(text, encoding='utf-8')\n"
        "Path(p).read_bytes()\n"
    )
    assert unencoded_calls(source) == [2, 6, 7]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "hypernull").glob("*.py")), ids=lambda path: path.name
)
def test_module_names_every_text_encoding(path):
    assert unencoded_calls(path.read_text(encoding="utf-8")) == []
