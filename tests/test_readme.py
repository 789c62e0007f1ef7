"""Every ```python block in README.md runs, so the documented API cannot drift from ``entcore``."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {"__name__": f"readme_block_{i}"})
