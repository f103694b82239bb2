"""The README's "Library quick start" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quick start'"
    exec(compile(block.group(1), f"{README}:quick-start", "exec"), {})
    # it prints the terminal state and the predictor-call count (20 steps)
    assert capsys.readouterr().out.split()[-1] == "20"
