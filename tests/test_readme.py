"""README's Python example runs and prints what its comments say, so a
public name it uses cannot be removed or renamed without this failing."""

import contextlib
import io
import re
from pathlib import Path

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
