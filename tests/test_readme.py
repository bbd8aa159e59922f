"""The README's library quick start runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:quick start", "exec"), namespace)
    assert namespace["est"].verdict == "decaying"
    assert [r.example_id for r in namespace["reports"]] == ["ex5"]
