"""The README's library example runs as written, and its config defaults are the code's."""

import pathlib
import re

from expertnet.harness import ExperimentConfig, FileSpec, parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs_as_written():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, f"{README}: Library use", "exec"), scope)
    assert scope["predictions"].shape == (scope["val_set"].n,)


def test_the_documented_defaults_are_the_defaults():
    section = README.read_text(encoding="utf-8").split("Defaults shown:\n", 1)[1]
    lines = re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()
    blobs = [line for line in lines if not line.startswith("file.")]
    assert parse_config("\n".join(blobs)) == ExperimentConfig()
    file = [line for line in lines if not line.startswith("blobs.")] + ["dataset = file"]
    assert parse_config("\n".join(file)) == ExperimentConfig(
        dataset=FileSpec("train.csv", "val.csv", "label", ()))
