"""Every public name is used where the package is used: by another module of
nilsym, by the benchmark, or by the README's examples.  A name that only
tests call belongs in tests/helpers.py, not in `nilsym.__all__`.  The same
holds for the public members of the classes in `__all__`: each is read as
an attribute somewhere there."""

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


def _read_attributes(source):
    """Attribute names read (not assigned or deleted) as `obj.name`.  A
    bare name is a module-level name, not a member, so an alias in a class
    body, such as `__xor__ = wedge`, does not read `wedge`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _public_members(cls):
    """Public class-level members (methods, properties, slots and
    namedtuple fields) that nilsym defines on cls or on its bases."""
    for klass in cls.__mro__:
        if klass.__module__.startswith("nilsym"):
            yield from (name for name in vars(klass) if not name.startswith("_"))


def test_every_public_name_is_used_outside_the_tests():
    used = {name for source in _sources() for name in _used_names(source)}
    assert sorted(set(nilsym.__all__) - used) == []


def test_every_public_member_is_read_outside_the_tests():
    read = {name for source in _sources() for name in _read_attributes(source)}
    unread = sorted("%s.%s" % (name, member)
                    for name in nilsym.__all__
                    if isinstance(getattr(nilsym, name), type)
                    for member in _public_members(getattr(nilsym, name))
                    if member not in read)
    assert unread == []
