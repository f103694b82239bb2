"""CLI harness: config validation, experiment outputs, determinism, selftest."""

import csv
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgekit.schedule
from bridgekit import fit_order
from bridgekit.cli import EXPERIMENTS, MAX_BATCH_ENTRIES, load_config, main, run, selftest
from bridgekit.errors import ConfigInvalid
from bridgekit.oracle import GaussianOracle


def base_config(**overrides):
    cfg = {
        "schedule": {"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0},
        "problem": {
            "mix": [[0.2, 0.0], [0.1, 0.3]],
            "offset": [0.4, -0.2],
            "cov": [[1.0, 0.3], [0.3, 0.5]],
            "x_T": [1.0, -0.5],
        },
        "grid": {"kind": "uniform_boot", "n_steps": 10},
        "sampler": {"method": "dbim1", "eta": 0.5},
        "experiment": "sample",
        "seed": 42,
        "n_trajectories": 50,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestConfigValidation:
    def test_missing_schedule_exits_2_without_output(self, tmp_path):
        cfg = base_config()
        del cfg["schedule"]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_experiment(self):
        with pytest.raises(ConfigInvalid):
            load_config(base_config(experiment="nope"))

    def test_unknown_method(self):
        cfg = base_config()
        cfg["sampler"]["method"] = "not-a-method"
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    def test_sweep_required_for_convergence(self):
        with pytest.raises(ConfigInvalid):
            load_config(base_config(experiment="convergence"))

    def test_seed_override(self):
        cfg = load_config(base_config(), seed_override=7)
        assert cfg.seed == 7

    def test_bad_problem_shapes(self):
        cfg = base_config()
        cfg["problem"]["x_T"] = [1.0]
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    def test_grid_must_end_at_horizon(self):
        cfg = base_config()
        cfg["grid"]["t_max"] = 0.5
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    def test_sweep_entries_validated(self):
        cfg = base_config(experiment="convergence")
        cfg["sampler"]["n_steps_sweep"] = [8, 0]
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    # (config key, value, BRIDGEKIT_THREADS); a top-level key is set at the
    # root, "section.key" in that section and any other key in "problem";
    # json writes nan/inf as NaN and Infinity, which json.load reads back
    @pytest.mark.parametrize("key,value,env", [
        ("cov", [[1.0, 0.0], [0.0, math.nan]], None),
        ("mix", [[math.nan, 0.0], [0.1, 0.3]], None),
        ("offset", [0.4, math.inf], None),
        ("x_T", [math.nan, -0.5], None),
        ("x0", [0.0, -math.inf], None),
        ("bias", math.nan, None),
        (None, None, "abc"),
        # ill-typed values
        ("n_trajectories", "abc", None),
        ("schedule.horizon", [1], None),
        ("grid.n_steps", "x", None),
        ("sampler.eta", "x", None),
        ("seed", "x", None),
        ("grid.t_min", None, None),
        ("schedule.beta", "x", None),
        ("mix", "x", None),
        ("options.n_points", "x", None),
        # integer fields with a fractional part
        ("grid.n_steps", 2.7, None),
        ("n_trajectories", 2.7, None),
        ("seed", 1.5, None),
        ("sampler.n_steps_sweep", [2.5], None),
        # drift-check times are fractions of the horizon in (0, 1)
        ("options.t_range", [0, 5], None),
        # sigma_t^2 underflows to 0 at the first grid time: on a VP schedule,
        # and on a Brownian bridge where beta * t rounds to 0
        (("schedule.kind", "grid.t_min"), ("vp", 5e-324), None),
        (("schedule.beta", "grid.t_min"), (0.5, 5e-324), None),
        # counts far above the limits (test_count_limits has the edges)
        ("n_trajectories", 2 ** 62, None),
        ("grid.n_steps", 2 ** 62, None),
        ("sampler.n_steps_sweep", [2 ** 62], None),
        # experiment options far above the limits, and a single sample per
        # condition, which has no diversity score
        (("experiment", "sampler.n_steps_sweep", "options.samples_per_condition"),
         ("diversity", [4], 2 ** 62), None),
        (("experiment", "sampler.n_steps_sweep", "options.n_conditions"), ("diversity", [4], 2 ** 62), None),
        (("experiment", "sampler.n_steps_sweep", "options.samples_per_condition"), ("diversity", [4], 1), None),
        (("experiment", "options.n_points"), ("drift-check", 2 ** 62), None),
        # sweep entries below the method's order
        (("experiment", "sampler.method", "sampler.eta", "sampler.n_steps_sweep"),
         ("convergence", "dbim3", 0.0, [8, 2]), None),
        (("experiment", "sampler.method", "sampler.eta", "sampler.n_steps_sweep"),
         ("diversity", "dbim3", 0.0, [8, 2]), None),
        (("experiment", "sampler.method", "sampler.eta", "grid.kind", "sampler.n_steps_sweep"),
         ("convergence", "dbim2", 0.0, "edm_power", [1]), None),
    ])
    def test_non_finite_input_or_bad_env_exits_2_without_output(self, tmp_path, monkeypatch, key, value, env):
        cfg = base_config()
        # a tuple of keys sets each key to the matching entry of the value tuple
        for key, value in zip(key, value) if isinstance(key, tuple) else [(key, value)]:
            if key in cfg:
                cfg[key] = value
            elif key is not None and "." in key:
                section, name = key.split(".")
                cfg.setdefault(section, {})[name] = value
            elif key is not None:
                cfg["problem"][key] = value
        if env is not None:
            monkeypatch.setenv("BRIDGEKIT_THREADS", env)
        else:
            monkeypatch.delenv("BRIDGEKIT_THREADS", raising=False)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert not out.exists()

    def test_count_limits(self):
        # load_config only, so that nothing near the limits is allocated
        from bridgekit.cli import MAX_BATCH_ENTRIES, MAX_STEPS

        at_limit = MAX_BATCH_ENTRIES // 2  # the problem has d = 2
        assert load_config(base_config(n_trajectories=at_limit)).n_trajectories == at_limit
        too_many = base_config(n_trajectories=at_limit + 1)
        too_deep = base_config()
        too_deep["grid"]["n_steps"] = MAX_STEPS + 1
        sweep_too_deep = base_config()
        sweep_too_deep["sampler"]["n_steps_sweep"] = [4, MAX_STEPS + 1]
        for cfg in (too_many, too_deep, sweep_too_deep):
            with pytest.raises(ConfigInvalid, match="at most"):
                load_config(cfg)

    @pytest.mark.parametrize("key", ["n_points", "n_conditions", "samples_per_condition"])
    def test_option_count_limits(self, key):
        at_limit = MAX_BATCH_ENTRIES // 2  # the problem has d = 2
        assert load_config(base_config(options={key: at_limit})).options[key] == at_limit
        with pytest.raises(ConfigInvalid, match="at most"):
            load_config(base_config(options={key: at_limit + 1}))

    @pytest.mark.parametrize("key,value", [("schedule", "kind"), ("grid", 5), ("output", 5)])
    def test_ill_shaped_section_or_output_rejected(self, key, value):
        with pytest.raises(ConfigInvalid):
            load_config(base_config(**{key: value}))

    @pytest.mark.parametrize("sub", [(), ("sub",)])
    def test_output_at_or_under_a_file_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys, sub):
        calls = []
        monkeypatch.setattr(GaussianOracle, "predict", lambda *args: calls.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker.joinpath(*sub)
        with pytest.raises(ConfigInvalid, match="not a directory"):
            load_config(base_config(), out_override=str(out))
        assert main(["run", "--config", str(write_config(tmp_path, base_config())), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "content", [bytes.fromhex("fffe7b7d"), b"[" * 100_000], ids=["not_utf8", "nested_100000"]
    )
    def test_undecodable_or_too_deeply_nested_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_integral_float_accepted_for_integer_fields(self):
        cfg = base_config(n_trajectories=20.0, seed=3.0)
        cfg["grid"]["n_steps"] = 8.0
        loaded = load_config(cfg)
        assert (loaded.n_trajectories, loaded.seed, loaded.grid.n_steps) == (20, 3, 8)
        assert isinstance(loaded.n_trajectories, int) and isinstance(loaded.seed, int)


# stand-ins for a config field: wrong types, non-finite and extreme floats,
# and integers either tiny or far above every count limit; no mid-sized
# count, so a missing limit fails at once instead of allocating
_MUTANTS = (
    None, True, "x", [], {}, [1], math.nan, math.inf, -math.inf,
    -1, 0, 0.5, 2.7, 1e308, 5e-324, -5e-324, 2 ** 62,
)


def _small_sample_config(schedule):
    cfg = base_config(schedule=schedule, n_trajectories=4)
    cfg["grid"] = {"kind": "uniform_boot", "n_steps": 4, "t_min": 1e-4}
    return cfg


_FUZZ_BASES = tuple(_small_sample_config(schedule) for schedule in (
    {"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0},
    {"kind": "vp", "beta_min": 0.1, "beta_max": 20.0, "horizon": 1.0},
))
# every section and every field of a section, by path from the root
_FUZZ_PATHS = tuple(sorted({
    path
    for cfg in _FUZZ_BASES
    for key, spec in cfg.items()
    for path in [(key,)] + [(key, name) for name in (spec if isinstance(spec, dict) else ())]
}))


class TestConfigFuzz:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        base=st.sampled_from(_FUZZ_BASES),
        path=st.sampled_from(_FUZZ_PATHS),
        value=st.sampled_from(_MUTANTS),
    )
    def test_mutated_config_exits_0_2_or_3(self, base, path, value):
        cfg = json.loads(json.dumps(base))
        owner = cfg
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            code = main(["run", "--config", str(config), "--out", str(out), "--threads", "1"])
            assert code in (0, 2, 3)
            if code == 2:
                assert not out.exists()


def _small_options_config(experiment, options):
    cfg = _small_sample_config({"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0})
    cfg["experiment"] = experiment
    cfg["sampler"]["n_steps_sweep"] = [4]
    cfg["options"] = options
    return cfg


_OPTIONS_FUZZ_BASES = (
    _small_options_config("diversity", {"n_conditions": 2, "samples_per_condition": 3}),
    _small_options_config("drift-check", {"n_points": 5, "t_range": [0.1, 0.9]}),
)
# the options section, every option of either base, and the step sweep
_OPTIONS_FUZZ_PATHS = (("options",), ("sampler", "n_steps_sweep")) + tuple(sorted({
    ("options", name) for cfg in _OPTIONS_FUZZ_BASES for name in cfg["options"]
}))


class TestOptionsFuzz:
    # the space is 2 × 6 × 17 = 204 cases, so this enumerates all of them
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        base=st.sampled_from(_OPTIONS_FUZZ_BASES),
        path=st.sampled_from(_OPTIONS_FUZZ_PATHS),
        value=st.sampled_from(_MUTANTS),
    )
    def test_mutated_options_exit_0_2_or_3(self, base, path, value):
        cfg = json.loads(json.dumps(base))
        owner = cfg
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            code = main(["run", "--config", str(config), "--out", str(out), "--threads", "1"])
            assert code in (0, 2, 3)
            if code == 2:
                assert not out.exists()


class TestReport:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_predictor_calls_match_the_oracle(self, tmp_path, monkeypatch, experiment):
        # count at the class, below every wrapper the experiment may use
        calls = []
        predict = GaussianOracle.predict

        def spy(self, x, t, xT):
            calls.append(t)
            return predict(self, x, t, xT)

        monkeypatch.setattr(GaussianOracle, "predict", spy)
        raw = base_config(experiment=experiment, n_trajectories=4, options={
            "n_points": 5, "n_conditions": 2, "samples_per_condition": 3, "weights": [0.0, 0.5, 1.0],
        })
        raw["grid"]["n_steps"] = 6
        raw["sampler"]["n_steps_sweep"] = [4, 8]
        assert run(load_config(raw, out_override=str(tmp_path / "o"))) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["predictor_calls"] == len(calls)
        assert (len(calls) == 0) == (experiment == "marginals")
        if experiment == "sample":
            # one batched call per grid step, whatever the batch size
            assert len(calls) == 6


class TestExperiments:
    def test_sample_shape_contract(self, tmp_path):
        cfg = load_config(base_config(), out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "sample.csv")
        assert header == ["traj_id", "coord_0", "coord_1"]
        assert len(rows) == 50
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["resolved"]["experiment"] == "sample"
        assert all(math.isfinite(v) for v in report["metrics"].values())

    def test_convergence_slope_matches_emitted_rows(self, tmp_path):
        cfg_raw = base_config(experiment="convergence")
        cfg_raw["schedule"] = {"kind": "vp", "beta_min": 0.1, "beta_max": 20.0, "horizon": 1.0}
        cfg_raw["problem"] = {
            "mix": [[0.3]], "offset": [0.2], "cov": [[2.0]], "x_T": [1.5],
        }
        cfg_raw["grid"] = {"kind": "uniform_boot", "n_steps": 8, "t_min": 0.05, "boot_gap": 0.05}
        cfg_raw["sampler"] = {"method": "dbim1", "eta": 0.0, "n_steps_sweep": [8, 16, 32, 64]}
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "convergence.csv")
        assert header == ["method", "eta", "n_steps", "terminal_err"]
        ns = [int(r[2]) for r in rows]
        errs = [float(r[3]) for r in rows]
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        np.testing.assert_allclose(report["metrics"]["fitted_slope"], fit_order(ns, errs), rtol=1e-12)

    def test_marginals_schema(self, tmp_path):
        cfg = load_config(
            base_config(experiment="marginals", n_trajectories=2000),
            out_override=str(tmp_path / "o"),
        )
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "marginals.csv")
        assert header == ["t", "coord", "emp_mean", "tgt_mean", "emp_var", "tgt_var", "z"]
        assert len(rows) == 10 * 2  # grid times below the horizon x coordinates
        zs = [abs(float(r[6])) for r in rows]
        assert max(zs) <= 6.0

    def test_roundtrip_schema(self, tmp_path):
        cfg_raw = base_config(experiment="roundtrip", n_trajectories=5)
        cfg_raw["grid"]["n_steps"] = 200
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "roundtrip.csv")
        assert header == ["traj_id", "recon_rel_err"]
        assert all(float(r[1]) <= 1e-8 for r in rows)

    def test_interpolate_schema(self, tmp_path):
        cfg_raw = base_config(experiment="interpolate")
        cfg_raw["options"] = {"weights": [0.0, 0.5, 1.0]}
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "interpolate.csv")
        assert header == ["w", "coord_0", "coord_1"]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]

    def test_diversity_schema(self, tmp_path):
        cfg_raw = base_config(experiment="diversity")
        cfg_raw["sampler"]["eta"] = 0.0
        cfg_raw["sampler"]["n_steps_sweep"] = [5, 10]
        cfg_raw["options"] = {"n_conditions": 3, "samples_per_condition": 8}
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "diversity.csv")
        assert header == ["condition_id", "n_steps", "eta", "score"]
        assert len(rows) == 6

    def test_drift_check_schema(self, tmp_path):
        cfg_raw = base_config(experiment="drift-check")
        cfg_raw["options"] = {"n_points": 100}
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "drift_check.csv")
        assert header == ["idx", "t", "rel_dev"]
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["metrics"]["max_rel_dev"] <= 1e-9


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg_raw = base_config(n_trajectories=300)
        p = write_config(tmp_path, cfg_raw)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "a"), "--threads", "1"]) == 0
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "b"), "--threads", "1"]) == 0
        assert (tmp_path / "a" / "sample.csv").read_bytes() == (tmp_path / "b" / "sample.csv").read_bytes()

    def test_second_run_reuses_cached_coeffs(self, tmp_path):
        # each run builds a new but equal NoiseSchedule; the coefficient
        # cache serves it the BridgeCoeffs the first run computed
        p = write_config(tmp_path, base_config(n_trajectories=4))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
        before = bridgekit.schedule.coeffs.cache_info()
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
        after = bridgekit.schedule.coeffs.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_thread_count_invariance(self, tmp_path):
        cfg_raw = base_config(n_trajectories=600)
        p = write_config(tmp_path, cfg_raw)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "t8"), "--threads", "8"]) == 0
        assert (tmp_path / "t1" / "sample.csv").read_bytes() == (tmp_path / "t8" / "sample.csv").read_bytes()

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRIDGEKIT_THREADS", "2")
        cfg_raw = base_config(n_trajectories=40)
        p = write_config(tmp_path, cfg_raw)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "envt")]) == 0
        report = json.loads((tmp_path / "envt" / "report.json").read_text())
        assert report["resolved"]["threads"] == 2

    def test_console_entry_point(self, tmp_path):
        p = write_config(tmp_path, base_config(n_trajectories=5))
        proc = subprocess.run(
            [sys.executable, "-m", "bridgekit.cli", "run", "--config", str(p),
             "--out", str(tmp_path / "sub"), "--threads", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_numerical_failure_exits_3(self, tmp_path):
        # a heavily biased predictor makes every encode input inconsistent
        cfg_raw = base_config(experiment="roundtrip", n_trajectories=2)
        cfg_raw["problem"]["bias"] = 5.0
        cfg_raw["grid"]["n_steps"] = 50
        p = write_config(tmp_path, cfg_raw)
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "o"), "--threads", "1"])
        assert code == 3


class TestSelftest:
    def test_passes_on_healthy_library(self, capsys):
        start = time.time()
        assert selftest() == 0
        assert time.time() - start < 60.0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 4
        assert "FAIL" not in out

    def test_catches_corrupted_lambda(self, capsys, monkeypatch):
        # deliberately corrupt the closed form used by the samplers
        real = bridgekit.schedule.lambda_of

        def corrupted(schedule, t):
            return real(schedule, t) + 0.01

        monkeypatch.setattr(bridgekit.schedule, "lambda_of", corrupted)
        assert selftest() != 0
        assert "FAIL" in capsys.readouterr().out
