"""The README's examples run as written: the library quick start and the config format."""

import json
import re
from pathlib import Path

from bridgekit.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quick start'"
    exec(compile(block.group(1), f"{README}:quick-start", "exec"), {})
    # it prints the terminal state and the predictor-call count (20 steps)
    assert capsys.readouterr().out.split()[-1] == "20"


def test_config_format_example_loads(tmp_path):
    section = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no json block under 'Config format'"
    cfg = load_config(json.loads(block.group(1)), out_override=str(tmp_path / "out"))
    assert (cfg.experiment, cfg.grid.t_max) == ("sample", cfg.schedule.horizon)
