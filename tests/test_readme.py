"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
