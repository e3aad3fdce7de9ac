"""README's Python example runs and prints what its comments say, and its
CLI examples exit with the codes they give, so a public name or command
they use cannot be removed or renamed without this failing."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from nilsym import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_prints_its_commented_outputs():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                         re.S)
    prints = [line for line in code.splitlines()
              if line.lstrip().startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    expected = [line.split("  # ", 1)[1] for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_cli_examples_exit_as_documented(tmp_path, monkeypatch):
    # Run from the repository root, where `catalogs` is; --json goes to tmp_path.
    (block,) = re.findall(r"## CLI\n.*?```sh\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(README.parent)
    codes = []
    for line in block.replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "nilsym"
        if "--json" in argv:
            at = argv.index("--json") + 1
            argv[at] = str(tmp_path / argv[at])
        codes.append(cli.main(argv))
    assert codes == [0, 1, 0, 0, 0, 0]
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["algebras"] and report["errors"] == []
