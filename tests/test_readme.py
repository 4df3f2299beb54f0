"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs_as_written():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, f"{README}: Library use", "exec"), scope)
    assert scope["predictions"].shape == (scope["val_set"].n,)
