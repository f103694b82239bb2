"""The README's examples run as written: the library quick start and the config format."""

import json
import re
from pathlib import Path

from bridgekit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_python_block(heading):
    """Run the first python block under ``heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, f"no python block under {heading!r}"
    exec(compile(block.group(1), f"{README}:{heading}", "exec"), {})


def test_library_quick_start_runs(capsys):
    run_python_block("## Library quick start")
    # it prints the terminal state and the predictor-call count (20 steps)
    assert capsys.readouterr().out.split()[-1] == "20"


def test_predictor_protocol_example_runs(capsys):
    run_python_block("### Predictor protocol")
    # a predict-only predictor samples and decodes; encode names the missing method
    calls, error = capsys.readouterr().out.splitlines()
    assert calls == "10"
    assert "linearize" in error


def test_config_format_example_loads(tmp_path):
    section = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no json block under 'Config format'"
    raw = json.loads(block.group(1))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "sample.csv").read_text().splitlines()
    assert lines[0] == ",".join(["traj_id"] + [f"coord_{i}" for i in range(len(raw["problem"]["x_T"]))])
    assert len(lines) == 1 + raw["n_trajectories"]
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == raw
    assert report["resolved"]["experiment"] == "sample"
    assert report["resolved"]["n_steps"] == raw["grid"]["n_steps"]
    assert report["predictor_calls"] == raw["grid"]["n_steps"]
