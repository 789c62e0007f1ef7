"""README.md's code runs: every ```python block, and every ``entcore`` line of its ```sh blocks,
so the documented API and CLI cannot drift from ``entcore``."""

import pathlib
import re
import shlex

from entcore import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_python_blocks_run():
    assert blocks("python")
    for i, code in enumerate(blocks("python")):
        exec(compile(code, f"README.md python block {i}", "exec"), {"__name__": f"readme_block_{i}"})


def test_cli_lines_exit_0(tmp_path, monkeypatch):
    # in a fresh directory, so each line may read only files the lines before it wrote
    monkeypatch.chdir(tmp_path)
    lines = [line for block in blocks("sh") for line in block.splitlines() if line.startswith("entcore ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert cli.main(argv[1:]) == 0, line
