"""Fast harness tests at tiny sizes; run with ``python -m pytest perfbench``."""

import inspect
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = {"wide": 512, "deep": 16, "highorder": 16}


@pytest.fixture
def tiny(monkeypatch):
    for name, n in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, {**run.WORKLOADS[name], "n_trajectories": n})
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "RUNS_PER_CHILD", 1)
    monkeypatch.chdir(ROOT)


def _result(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_emitted(tiny, workload):
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = _result(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, _ in names}
        for name, unit in names:
            value = result["metrics"][name]["value"]
            assert isinstance(value, (int, float)), name
            assert result["metrics"][name]["unit"] == unit
        if trace == 0:
            assert all(result["metrics"][name]["value"] > 0 for name, _ in names)


def _cli_output(tmp_path, workload, n):
    from bridgekit.cli import main

    raw = run.make_config(workload, 11)
    raw["n_trajectories"] = n
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    return raw, out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_sample_csv_fails(tmp_path, workload):
    raw, out = _cli_output(tmp_path, workload, 256)
    law = checks.expected_law(workload, raw)
    problems, digest = checks.check_output(workload, raw, law, out)
    assert problems == [] and digest

    csv_path = out / "sample.csv"
    lines = csv_path.read_text().splitlines()

    # every coordinate shifted by +1
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    shifted = [lines[0]] + [",".join([str(int(r[0]))] + [repr(float(v) + 1.0) for v in r[1:]]) for r in data]
    csv_path.write_text("\n".join(shifted) + "\n")
    assert any("W2(sample, exact law)" in p for p in checks.check_output(workload, raw, law, out)[0])

    # one row dropped
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_output(workload, raw, law, out)[0]


def test_missing_source_tree_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert out.getvalue() == ""


def test_renamed_seam_is_reported_missing(monkeypatch):
    for _, owner_path, attr in spans.SEAMS + (("", "bridgekit.oracle:GaussianOracle", "_gain"),):
        owner = spans._resolve(owner_path)
        # registered so that teardown undoes the wrapping
        monkeypatch.setattr(owner, attr, inspect.getattr_static(owner, attr))
    monkeypatch.delattr(spans._resolve("bridgekit.samplers"), "_noise")
    recorder = spans.Recorder()
    spans.install(recorder)
    assert recorder.missing == {"samplers.noise"}

    traced = {
        "aggregate": {}, "missing": sorted(recorder.missing), "counters": {},
        "coeffs_cache": {"hits": 1, "misses": 1},
        "import_deps_s": 0.5, "import_bridgekit_s": 0.05, "run_s": 1.0,
    }
    metrics = run.layer_metrics("deep", traced, 1.0, 1.0, 100)
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert {name for name, value in metrics.items() if value is None} == {
        "samplers.noise.calls", "samplers.noise.ns_per_call", "samplers.noise.ns_per_traj_step",
    }
