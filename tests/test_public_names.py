"""Every public name is used where the package is used: by another module of
nilsym, by the benchmark, or by the README's examples.  A name that only
tests call belongs in tests/helpers.py, not in `nilsym.__all__`."""

import ast
import re
from pathlib import Path

import nilsym

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for path in sorted((ROOT / "src" / "nilsym").glob("*.py")):
        if path.name != "__init__.py":
            yield path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        yield path.read_text(encoding="utf-8")
    yield from re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def _used_names(source):
    """Names read as a Name, an Attribute or an import; a def or class
    statement does not use the name it binds."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]


def test_every_public_name_is_used_outside_the_tests():
    used = {name for source in _sources() for name in _used_names(source)}
    assert sorted(set(nilsym.__all__) - used) == []
