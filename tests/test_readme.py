"""README's Library section runs as written and names exactly the exported pieces."""

import re
import types
from pathlib import Path

import hypernull

README = Path(__file__).resolve().parent.parent / "README.md"

TOY = "0,1|2\n2|0,1\n1|3\n3|1\n0,2|3\n"


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs_unchanged(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", library_section(), re.DOTALL)
    (tmp_path / "obs.dhg").write_text(TOY, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 100
    assert all(0.0 <= float(value) <= 1.0 for value in printed)


def lower_level_pieces():
    sentence = library_section().split("Lower-level pieces are exported too:", 1)[1]
    return re.findall(r"`(\w+)`", sentence.split("\n\n", 1)[0])


def test_lower_level_pieces_are_exported():
    names = lower_level_pieces()
    assert len(names) == 11
    assert [name for name in names if not hasattr(hypernull, name)] == []


def test_namespace_is_exactly_the_documented_names():
    (block,) = re.findall(r"```python\n(.*?)```", library_section(), re.DOTALL)
    documented = {*re.findall(r"\bhn\.(\w+)", block), *lower_level_pieces()}
    assert len(documented) == 15
    # dir(), not vars(): the package binds an exported name on its first use.
    exported = {
        name
        for name in dir(hypernull)
        if not name.startswith("_") and not isinstance(getattr(hypernull, name), types.ModuleType)
    }
    assert exported == documented
    assert sorted(hypernull.__all__) == sorted(documented)
