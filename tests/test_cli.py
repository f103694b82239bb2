"""CLI harness: config validation, experiment outputs, determinism, selftest."""

import copy
import csv
import dataclasses
import inspect
import io
import json
import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgekit.cli
import bridgekit.schedule
from bridgekit import fit_order, samplers
from bridgekit.cli import (
    _CSV_BLOCK, _EXPERIMENTS, EXPERIMENTS, MAX_BATCH_ENTRIES, _write_csv, load_config, main, run, selftest,
)
from bridgekit.errors import ConfigInvalid, InvalidGridParams
from bridgekit.schedule import NoiseSchedule, TimeGrid
from bridgekit.oracle import GaussianOracle


def base_config(**overrides):
    """A ``sample`` config, which reads every key in it."""
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


# the keys of base_config each experiment does not read, as root keys or
# "section.key" paths; spelt out here rather than taken from the table the
# tests check
UNREAD = {
    "sample": (),
    "marginals": ("sampler.method",),
    "drift-check": ("grid", "sampler", "n_trajectories", "problem.x_T"),
    "convergence": ("grid.n_steps", "n_trajectories"),
    "roundtrip": ("sampler",),
    "interpolate": ("sampler", "n_trajectories"),
    "diversity": ("grid.n_steps", "n_trajectories", "problem.x_T"),
}


def experiment_config(experiment, **overrides):
    """base_config for ``experiment`` with only the keys it reads, and a step sweep for the two that read one."""
    cfg = base_config(experiment=experiment)
    for path in UNREAD[experiment]:
        section, _, key = path.partition(".")
        del (cfg[section] if key else cfg)[key or section]
    cfg.update(overrides)
    if experiment in ("convergence", "diversity"):
        cfg["sampler"].setdefault("n_steps_sweep", [4, 8])
    return cfg


# grid kind -> (the key it alone takes, the other kind's)
GRID_KEYS = {"uniform_boot": ("boot_gap", "edm_exponent"), "edm_power": ("edm_exponent", "boot_gap")}


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

    # t_max ** (1/edm_exponent) beyond the float range is rejected before
    # it is used: a Python float power raises OverflowError there, and at
    # 1/edm_exponent = inf numpy warns on inf − inf
    @pytest.mark.parametrize("schedule,kappa", [
        ({"kind": "brownian_bridge", "beta": 1.0, "horizon": 2.0}, 1e-4),
        ({"kind": "brownian_bridge", "beta": 1.0, "horizon": 2.0}, 5e-324),
        ({"kind": "vp", "beta_min": 0.1, "beta_max": 20.0, "horizon": 3.0}, 1e-4),
    ], ids=["bb-1e-4", "bb-5e-324", "vp-1e-4"])
    def test_edm_power_top_past_the_float_range_exits_2(self, tmp_path, capsys, schedule, kappa):
        cfg = base_config(schedule=schedule, grid={"kind": "edm_power", "n_steps": 4, "edm_exponent": kappa})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    # slerp takes sin(w θ) and sin((1 − w) θ) for θ in [0, π], so each
    # weight must keep w·π and (1 − w)·π finite: |w| up to about 5.7e307.
    # At seed 1 (θ = 2.50) a weight of 1e308 made sin raise a domain error
    def test_interpolate_weight_past_the_sine_bound_exits_2(self, tmp_path):
        bound = sys.float_info.max / math.pi
        for w in (bound * 0.999, -bound * 0.999):
            assert load_config(experiment_config("interpolate", options={"weights": [w]})).options["weights"] == [w]
        for w in (1e308, -1e308, bound * 1.001, -bound * 1.001):
            with pytest.raises(ConfigInvalid, match="weights entry"):
                load_config(experiment_config("interpolate", options={"weights": [0.5, w]}))
        cfg = experiment_config("interpolate", seed=1, options={"weights": [1e308]})
        cfg["grid"].update(t_min=1e-3, boot_gap=1e-3)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_method(self):
        cfg = base_config()
        cfg["sampler"]["method"] = "not-a-method"
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    def test_sweep_required_for_convergence(self):
        cfg = experiment_config("convergence")
        del cfg["sampler"]["n_steps_sweep"]
        with pytest.raises(ConfigInvalid, match="requires sampler.n_steps_sweep"):
            load_config(cfg)

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
        cfg = experiment_config("convergence")
        cfg["sampler"]["n_steps_sweep"] = [8, 0]
        with pytest.raises(ConfigInvalid, match="n_steps_sweep entry = 0"):
            load_config(cfg)

    # (config key, value); a top-level key is set at the root, "section.key"
    # in that section and any other key in "problem"; json writes nan/inf as
    # NaN and Infinity, which json.load reads back.  "experiment" picks the
    # experiment_config the other keys are set in (sample by default)
    @pytest.mark.parametrize("key,value", [
        ("cov", [[1.0, 0.0], [0.0, math.nan]]),
        ("mix", [[math.nan, 0.0], [0.1, 0.3]]),
        ("offset", [0.4, math.inf]),
        ("x_T", [math.nan, -0.5]),
        # these cases also set the experiment that reads the key; their ids
        # name the key alone
        pytest.param(("experiment", "x0"), ("marginals", [0.0, -math.inf]), id="x0-value4"),
        ("bias", math.nan),
        # ill-typed values
        ("n_trajectories", "abc"),
        ("schedule.horizon", [1]),
        ("grid.n_steps", "x"),
        ("sampler.eta", "x"),
        ("seed", "x"),
        ("grid.t_min", None),
        ("schedule.beta", "x"),
        ("mix", "x"),
        pytest.param(("experiment", "options.n_points"), ("drift-check", "x"), id="options.n_points-x"),
        # integer fields with a fractional part
        ("grid.n_steps", 2.7),
        ("n_trajectories", 2.7),
        ("seed", 1.5),
        pytest.param(("experiment", "sampler.n_steps_sweep"), ("convergence", [2.5]),
                     id="sampler.n_steps_sweep-value18"),
        # drift-check times are fractions of the horizon in (0, 1)
        pytest.param(("experiment", "options.t_range"), ("drift-check", [0, 5]), id="options.t_range-value19"),
        # sigma_t^2 underflows to 0 at the first grid time: on a VP schedule,
        # and on a Brownian bridge where beta * t rounds to 0
        (("schedule", "grid.t_min"), ({"kind": "vp"}, 5e-324)),
        (("schedule.beta", "grid.t_min"), (0.5, 5e-324)),
        # counts far above the limits (test_count_limits has the edges)
        ("n_trajectories", 2 ** 62),
        ("grid.n_steps", 2 ** 62),
        pytest.param(("experiment", "sampler.n_steps_sweep"), ("convergence", [2 ** 62]),
                     id="sampler.n_steps_sweep-value24"),
        # experiment options far above the limits, and a single sample per
        # condition, which has no diversity score
        (("experiment", "sampler.n_steps_sweep", "options.samples_per_condition"),
         ("diversity", [4], 2 ** 62)),
        (("experiment", "sampler.n_steps_sweep", "options.n_conditions"), ("diversity", [4], 2 ** 62)),
        (("experiment", "sampler.n_steps_sweep", "options.samples_per_condition"), ("diversity", [4], 1)),
        (("experiment", "options.n_points"), ("drift-check", 2 ** 62)),
        # sweep entries below the method's order
        (("experiment", "sampler.method", "sampler.eta", "sampler.n_steps_sweep"),
         ("convergence", "dbim3", 0.0, [8, 2])),
        (("experiment", "sampler.method", "sampler.eta", "sampler.n_steps_sweep"),
         ("diversity", "dbim3", 0.0, [8, 2])),
        (("experiment", "sampler.method", "sampler.eta", "grid.kind", "sampler.n_steps_sweep"),
         ("convergence", "dbim2", 0.0, "edm_power", [1])),
        # a misspelt option key, which would otherwise fall back to its default
        (("experiment", "options.n_point"), ("drift-check", 5)),
        # VE schedules whose sigma_t^2 overflows at the horizon or underflows
        # to 0 toward t = 0
        (("schedule", "sampler"), ({"kind": "ve", "sigma_max": 1e155}, {"method": "pf_ode_heun"})),
        (("experiment", "schedule"), ("marginals", {"kind": "ve", "sigma_min": 1e-200})),
        (("experiment", "schedule"), ("drift-check", {"kind": "ve", "sigma_max": 1e300})),
        # VE schedules whose sigma_t^2 fits but whose g^2 overflows at the horizon
        (("experiment", "schedule"), ("convergence", {"kind": "ve", "sigma_min": 0.01, "sigma_max": 1e153})),
        (("schedule", "sampler"), ({"kind": "ve", "sigma_min": 0.01, "sigma_max": 1e153}, {"method": "pf_ode_heun"})),
        # a JSON integer past the float range, a ragged matrix, and weights
        # that are not a list
        ("schedule.beta", 10 ** 400),
        ("cov", [[1.0, 0.3], [0.3]]),
        (("experiment", "options.weights"), ("interpolate", 0.5)),
        # sweep entries each within the step limit whose sum is past it
        pytest.param(("experiment", "sampler.n_steps_sweep"), ("convergence", [600000, 600000]),
                     id="sampler.n_steps_sweep-sum"),
    ])
    def test_invalid_input_exits_2_without_output(self, tmp_path, key, value):
        # a tuple of keys sets each key to the matching entry of the value tuple
        pairs = dict(zip(key, value)) if isinstance(key, tuple) else {key: value}
        cfg = experiment_config(pairs.pop("experiment", "sample"))
        for key, value in pairs.items():
            if key in cfg:
                cfg[key] = value
            elif key is not None and "." in key:
                section, name = key.split(".")
                cfg.setdefault(section, {})[name] = value
            elif key is not None:
                cfg["problem"][key] = value
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert not out.exists()

    # one misspelt key at the root and in each section; each would otherwise
    # be replaced by its default (a schedule key of another kind as well)
    @pytest.mark.parametrize("path", [
        ("n_trajectorie",), ("schedule", "horizn"), ("schedule", "beta_min"), ("problem", "biass"),
        ("grid", "bootgap"), ("sampler", "etaa"), ("options", "n_point"),
    ], ids="-".join)
    def test_misspelt_key_exits_2_without_output(self, tmp_path, capsys, path):
        cfg = base_config(options={})
        owner = cfg
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = 1.0
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert f"unknown keys ['{path[-1]}']" in capsys.readouterr().err
        assert not out.exists()

    # a key the experiment does not read, which would otherwise be ignored;
    # where the experiment reads nothing in the key's section, the section
    # is the key named.  The last case holds an eta marginals reads and a
    # method it does not, with which that eta would be invalid
    @pytest.mark.parametrize("experiment,path,value", [
        ("drift-check", ("options", "weights"), [0.3]),
        ("drift-check", ("sampler", "n_steps_sweep"), [4]),
        ("sample", ("problem", "x0"), [0.0, 0.0]),
        ("sample", ("options", "n_points"), 5),
        ("sample", ("sampler", "n_steps_sweep"), [4]),
        ("roundtrip", ("sampler", "n_steps_sweep"), [4]),
        ("marginals", ("problem", "bias"), 0.1),
        ("marginals", ("sampler", "method"), "dbim3"),
    ])
    def test_unread_key_exits_2_without_output(self, tmp_path, capsys, experiment, path, value):
        cfg = experiment_config(experiment, options={})
        named = path[1] if path[0] in cfg else path[0]
        cfg.setdefault(path[0], {})[path[1]] = value
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown keys ['{named}']" in err and f"experiment '{experiment}'" in err
        assert not out.exists()

    # eta indexes the dbim1 family only, so a nonzero eta with another method
    # would be echoed into the report and CSV rows without being used
    @pytest.mark.parametrize("experiment", ["sample", "convergence", "diversity"])
    def test_non_dbim1_eta_exits_2_without_output(self, tmp_path, capsys, experiment):
        cfg = experiment_config(experiment, sampler={"method": "dbim3", "eta": 0.5})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dbim1 only" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_omitted_options_take_the_table_defaults(self, experiment):
        defaults = _EXPERIMENTS[experiment].options
        short = load_config(experiment_config(experiment))
        spelled = load_config(experiment_config(experiment, options=json.loads(json.dumps(defaults))))
        assert set(short.options) == set(defaults)
        assert short.options == spelled.options

    def test_grid_t_max_rejected(self):
        # the grid always ends at schedule.horizon, so even t_max at the
        # horizon is an unknown key (test_grid_must_end_at_horizon has 0.5)
        cfg = base_config()
        cfg["grid"]["t_max"] = cfg["schedule"]["horizon"]
        with pytest.raises(ConfigInvalid, match="unknown keys"):
            load_config(cfg)

    @pytest.mark.parametrize("grid_kind", list(bridgekit.schedule.GridKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("kind", ["vp", "ve", "brownian_bridge"])
    def test_omitted_keys_take_the_library_defaults(self, kind, grid_kind):
        def defaults(fn, skip):
            params = inspect.signature(fn).parameters.values()
            return {p.name: p.default for p in params if p.default is not p.empty and p.name not in skip}

        short = base_config(schedule={"kind": kind}, grid={"kind": grid_kind.value, "n_steps": 10})
        spelled = base_config(
            schedule={"kind": kind, **defaults(getattr(bridgekit.schedule.NoiseSchedule, kind), ())},
            grid={"kind": grid_kind.value, "n_steps": 10,
                  **defaults(bridgekit.schedule.make_grid, ("t_max", GRID_KEYS[grid_kind.value][1]))},
        )
        assert set(spelled["schedule"]) > {"kind", "horizon"}
        assert set(spelled["grid"]) == {"kind", "n_steps", "t_min", GRID_KEYS[grid_kind.value][0]}
        a, b = load_config(short), load_config(spelled)
        assert (a.schedule, a.grid) == (b.schedule, b.grid)

    @pytest.mark.parametrize("grid_kind", list(bridgekit.schedule.GridKind), ids=lambda k: k.value)
    def test_grid_key_of_the_other_kind_exits_2(self, tmp_path, capsys, grid_kind):
        own, other = GRID_KEYS[grid_kind.value]
        cfg = base_config(grid={"kind": grid_kind.value, "n_steps": 10, own: 0.01})
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "a")]) == 0
        cfg["grid"][other] = 2.0
        out = tmp_path / "b"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown keys ['{other}'] in grid of kind '{grid_kind.value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment,code", [("sample", 2), ("marginals", 2), ("roundtrip", 0)])
    def test_single_trajectory(self, tmp_path, experiment, code):
        # sample and marginals report sample variances, which need two rows
        cfg = experiment_config(experiment, n_trajectories=1)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    def test_count_limits(self, monkeypatch):
        # load_config only, so that nothing near the limits is allocated
        from bridgekit.cli import MAX_BATCH_ENTRIES, MAX_STEPS

        at_limit = MAX_BATCH_ENTRIES // 2  # the problem has d = 2
        assert load_config(base_config(n_trajectories=at_limit)).n_trajectories == at_limit
        too_many = base_config(n_trajectories=at_limit + 1)
        too_deep = base_config()
        too_deep["grid"]["n_steps"] = MAX_STEPS + 1
        sweep_too_deep = experiment_config("convergence")
        sweep_too_deep["sampler"]["n_steps_sweep"] = [4, MAX_STEPS + 1]
        # each entry within the limit, their sum past it
        sweep_too_long = experiment_config("convergence")
        sweep_too_long["sampler"]["n_steps_sweep"] = [600000, 600000]
        # marginals keeps the (n, d) states of all its grid steps: at 10 steps
        # the limit is a tenth of sample's, and 10^5 trajectories × 10^4 steps
        # would hold 16 GB
        states_at_limit = experiment_config("marginals", n_trajectories=at_limit // 10)
        assert load_config(states_at_limit).n_trajectories == at_limit // 10
        states_too_many = experiment_config("marginals", n_trajectories=at_limit // 10 + 1)
        states_too_deep = experiment_config("marginals", n_trajectories=10 ** 5)
        states_too_deep["grid"]["n_steps"] = 10 ** 4
        for cfg in (too_many, too_deep, sweep_too_deep, states_too_many, states_too_deep):
            with pytest.raises(ConfigInvalid, match="at most"):
                load_config(cfg)
        # interpolate decodes all its weights as one batch: at d = 2, 3 weights
        # fit a bound of 6 entries and 4 do not; no weights is no rows
        monkeypatch.setattr(bridgekit.cli, "MAX_BATCH_ENTRIES", 6)
        for weights in ([], [0.0, 0.5, 1.0]):
            assert load_config(experiment_config("interpolate", options={"weights": weights})).options["weights"] == weights
        with pytest.raises(ConfigInvalid, match="options.weights entries × dimension must be at most 6, got 4 × 2"):
            load_config(experiment_config("interpolate", options={"weights": [0.0, 0.25, 0.5, 1.0]}))
        # the sweep's total is checked before any of its grids is built
        built = []
        monkeypatch.setattr(bridgekit.cli, "make_grid", lambda *args, **kw: built.append(args))
        with pytest.raises(ConfigInvalid, match=f"sum to at most {MAX_STEPS}, got 1200000"):
            load_config(sweep_too_long)
        assert built == []

    @pytest.mark.parametrize("key", ["n_points", "n_conditions", "samples_per_condition"])
    def test_option_count_limits(self, key):
        at_limit = MAX_BATCH_ENTRIES // 2  # the problem has d = 2
        experiment = "drift-check" if key == "n_points" else "diversity"
        assert load_config(experiment_config(experiment, options={key: at_limit})).options[key] == at_limit
        with pytest.raises(ConfigInvalid, match="at most"):
            load_config(experiment_config(experiment, options={key: at_limit + 1}))

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


def _small_sample_config(schedule, grid=None):
    cfg = base_config(schedule=schedule, n_trajectories=4)
    cfg["grid"] = {"kind": "uniform_boot", "n_steps": 4, "t_min": 1e-4, **(grid or {})}
    return cfg


# the edm_power base has a horizon above 1, where a small edm_exponent
# overflows t_max ** (1/edm_exponent)
_FUZZ_BASES = tuple(_small_sample_config(schedule) for schedule in (
    {"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0},
    {"kind": "vp", "beta_min": 0.1, "beta_max": 20.0, "horizon": 1.0},
)) + (_small_sample_config({"kind": "brownian_bridge", "beta": 1.0, "horizon": 2.0},
                           {"kind": "edm_power", "edm_exponent": 7.0}),)
# every section and every field of a section, by path from the root
_FUZZ_PATHS = tuple(sorted({
    path
    for cfg in _FUZZ_BASES
    for key, spec in cfg.items()
    for path in [(key,)] + [(key, name) for name in (spec if isinstance(spec, dict) else ())]
}))


class TestConfigFuzz:
    # the space is 3 × 22 × 17 = 1122 cases, so this enumerates all of them
    @settings(max_examples=1200, deadline=None, derandomize=True)
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
    # drift-check reads no grid or sampler, so its base has neither: a key
    # there would exit 2 before any option is read
    cfg = experiment_config(experiment, options=options)
    if "sampler" in cfg:
        cfg["sampler"]["n_steps_sweep"] = [4]
    return cfg


_OPTIONS_FUZZ_BASES = (
    _small_options_config("diversity", {"n_conditions": 2, "samples_per_condition": 3}),
    _small_options_config("drift-check", {"n_points": 5, "t_range": [0.1, 0.9]}),
    _small_options_config("interpolate", {"weights": [0.0, 0.5]}),
)
# the options section, every option of any base, the first weight entry,
# and the step sweep (a section drift-check and interpolate do not read, so
# they exit 2 there)
_OPTIONS_FUZZ_PATHS = (("options",), ("sampler", "n_steps_sweep"), ("options", "weights", 0)) + tuple(sorted({
    ("options", name) for cfg in _OPTIONS_FUZZ_BASES for name in cfg["options"]
}))


class TestOptionsFuzz:
    # the space is 3 × 8 × 17 = 408 cases, so this enumerates all of them
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
            owner = owner.setdefault(key, {})
        owner[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            code = main(["run", "--config", str(config), "--out", str(out), "--threads", "1"])
            assert code in (0, 2, 3)
            if code == 2:
                assert not out.exists()


TINY_OPTIONS = {
    "drift-check": {"n_points": 3, "t_range": [0.1, 0.9]},
    "interpolate": {"weights": [0.0, 0.5]},
    "diversity": {"n_conditions": 2, "samples_per_condition": 2},
}


def tiny_config(experiment):
    """experiment_config at the smallest sizes: 3 rows, 4 steps, a one-grid sweep, a few option rows."""
    cfg = experiment_config(experiment, options=copy.deepcopy(TINY_OPTIONS.get(experiment, {})))
    for path, value in (("n_trajectories", 3), ("grid.n_steps", 4), ("sampler.n_steps_sweep", [4])):
        section, _, key = path.rpartition(".")
        owner = cfg.get(section, {}) if section else cfg
        if key in owner:
            owner[key] = value
    return cfg


def set_key(cfg, path, value):
    """Set the root key or "section.key" ``path`` of ``cfg`` to ``value``, or remove it for None."""
    section, _, key = path.rpartition(".")
    owner = cfg.setdefault(section, {}) if section else cfg
    if value is None:
        owner.pop(key, None)
    else:
        owner[key] = value


# for every key some experiment reads: two values that give different CSV
# bytes wherever it is read (None leaves the key out), and the keys the pair
# needs set alongside
PAIRS = {
    "grid.kind": ("uniform_boot", "edm_power", {}),
    "grid.t_min": (None, 1e-3, {}),
    "grid.boot_gap": (1e-3, 1e-2, {}),
    "grid.edm_exponent": (7.0, 3.0, {"grid.kind": "edm_power"}),
    "grid.n_steps": (4, 5, {}),
    "sampler.method": ("dbim1", "dbim2", {"sampler.eta": 0.0}),
    "sampler.eta": (0.0, 1.0, {}),
    "sampler.n_steps_sweep": ([4], [5], {}),
    "n_trajectories": (3, 4, {}),
    "problem.x_T": ([1.0, -0.5], [0.5, 0.5], {}),
    "problem.x0": (None, [0.3, 0.2], {}),
    "problem.bias": (None, 0.01, {}),
    "options.n_points": (3, 4, {}),
    "options.t_range": ([0.1, 0.9], [0.2, 0.8], {}),
    "options.weights": ([0.0, 0.5], [0.0, 0.25], {}),
    "options.n_conditions": (2, 3, {}),
    "options.samples_per_condition": (2, 3, {}),
}
# (experiment, key) for every key in each experiment's table entry, its
# options included, and for every key only other experiments read
READ = [
    (e, path) for e in EXPERIMENTS
    for path in (*_EXPERIMENTS[e].reads, *(f"options.{key}" for key in _EXPERIMENTS[e].options))
]
UNREAD_ELSEWHERE = [(e, p) for e in EXPERIMENTS for p in sorted({path for _, path in READ}) if (e, p) not in READ]


class TestTable:
    """The table in bridgekit.cli says truthfully what each experiment reads.

    The problem model (mix, offset, cov) is shared by every experiment and
    is not checked here.
    """

    @pytest.mark.parametrize("experiment,path", READ, ids=[f"{e}-{path}" for e, path in READ])
    def test_each_key_read_changes_the_csv(self, tmp_path, experiment, path):
        first, second, alongside = PAIRS[path]
        csvs = []
        for value in (first, second):
            cfg = tiny_config(experiment)
            for key, setting in {**alongside, path: value}.items():
                set_key(cfg, key, setting)
            out = tmp_path / str(len(csvs))
            assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
            (csv_path,) = out.glob("*.csv")
            csvs.append(csv_path.read_bytes())
        assert csvs[0] != csvs[1]

    @pytest.mark.parametrize("experiment,path", UNREAD_ELSEWHERE, ids=[f"{e}-{p}" for e, p in UNREAD_ELSEWHERE])
    def test_key_only_another_experiment_reads_exits_2(self, tmp_path, capsys, experiment, path):
        cfg = tiny_config(experiment)
        # where the experiment reads nothing in the key's section, the
        # section is the key named
        section, _, key = path.rpartition(".")
        named = key if not section or section in cfg else section
        first, second, _ = PAIRS[path]
        set_key(cfg, path, first if first is not None else second)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown keys ['{named}']" in err and f"experiment '{experiment}'" in err
        assert not out.exists()


class TestReport:
    # the resolved keys of each experiment beyond experiment, seed and threads
    RESOLVED = {
        "sample": ("method", "eta", "n_trajectories", "n_steps", "grid_times_first_last"),
        "marginals": ("eta", "n_trajectories", "n_steps", "grid_times_first_last"),
        "drift-check": (),
        "convergence": ("method", "eta"),
        "roundtrip": ("n_trajectories", "n_steps", "grid_times_first_last"),
        "interpolate": ("n_steps", "grid_times_first_last"),
        "diversity": ("method", "eta"),
    }

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_resolved_lists_only_what_the_experiment_read(self, tmp_path, experiment):
        out = tmp_path / "out"
        config = write_config(tmp_path, tiny_config(experiment))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        values = {
            "method": "dbim1", "eta": 0.5, "n_trajectories": 3, "n_steps": 4, "grid_times_first_last": [1e-4, 1.0],
        }
        expected = {"experiment": experiment, "seed": 42, "threads": 1}
        expected.update((key, values[key]) for key in self.RESOLVED[experiment])
        assert json.loads((out / "report.json").read_text())["resolved"] == expected

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_predictor_calls_match_the_oracle(self, tmp_path, monkeypatch, experiment):
        # count at the class, below every wrapper the experiment may use
        calls = []
        predict = GaussianOracle.predict

        def spy(self, x, t, xT):
            calls.append(t)
            return predict(self, x, t, xT)

        monkeypatch.setattr(GaussianOracle, "predict", spy)
        options = {
            "drift-check": {"n_points": 5},
            "interpolate": {"weights": [0.0, 0.5, 1.0]},
            "diversity": {"n_conditions": 2, "samples_per_condition": 3},
        }.get(experiment, {})
        raw = experiment_config(experiment, options=options)
        if "n_trajectories" in raw:
            raw["n_trajectories"] = 4
        if "n_steps" in raw.get("grid", {}):
            raw["grid"]["n_steps"] = 6
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

    @staticmethod
    def second_run_peak(tmp_path, raw, csv_name):
        """The tracemalloc peak of a run of ``raw`` after a warm-up run, whose CSV it must repeat."""
        assert run(load_config(raw, out_override=str(tmp_path / "warm-up"))) == 0
        cfg = load_config(raw, out_override=str(tmp_path / "o"))
        tracemalloc.start()
        try:
            assert run(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "o" / csv_name).read_bytes() == (tmp_path / "warm-up" / csv_name).read_bytes()
        return peak

    def test_sample_run_holds_no_row_per_trajectory(self, tmp_path):
        # sample.csv is formatted from the terminal array one block at a time,
        # so the run peaks at the dbim1 engine's own arrays, about 9 (n, d)
        # float64 arrays; Python rows of every trajectory would add about 4.5
        n, d = 50_000, 2
        raw = base_config(n_trajectories=n, grid={"kind": "uniform_boot", "n_steps": 4})
        assert self.second_run_peak(tmp_path, raw, "sample.csv") < 11 * n * d * 8

    # both tables are written from the experiment's own array, as sample.csv
    # is.  Per row, what is left is mostly the oracle's per-time table and
    # the coeffs cache (about 480 B per drift-check point, which draws a new
    # t each) or the draws and errors (about 75 B per roundtrip trajectory,
    # whose encode and decode run in blocks of 256 draws); a Python row per
    # point or trajectory held about 820 and 166 B
    @pytest.mark.parametrize("experiment,overrides,n,bound,csv_name", [
        ("drift-check", {"options": {"n_points": 5000}}, 5000, 650, "drift_check.csv"),
        ("roundtrip", {"n_trajectories": 2000, "grid": {"kind": "uniform_boot", "n_steps": 4}}, 2000, 120,
         "roundtrip.csv"),
    ], ids=["drift-check", "roundtrip"])
    def test_table_run_holds_no_row_per_point(self, tmp_path, experiment, overrides, n, bound, csv_name):
        raw = experiment_config(experiment, **overrides)
        assert self.second_run_peak(tmp_path, raw, csv_name) < bound * n

    def test_convergence_slope_matches_emitted_rows(self, tmp_path):
        cfg_raw = experiment_config("convergence")
        cfg_raw["schedule"] = {"kind": "vp", "beta_min": 0.1, "beta_max": 20.0, "horizon": 1.0}
        cfg_raw["problem"] = {
            "mix": [[0.3]], "offset": [0.2], "cov": [[2.0]], "x_T": [1.5],
        }
        cfg_raw["grid"] = {"kind": "uniform_boot", "t_min": 0.05, "boot_gap": 0.05}
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
            experiment_config("marginals", n_trajectories=2000),
            out_override=str(tmp_path / "o"),
        )
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "marginals.csv")
        assert header == ["t", "coord", "emp_mean", "tgt_mean", "emp_var", "tgt_var", "z"]
        assert len(rows) == 10 * 2  # grid times below the horizon x coordinates
        zs = [abs(float(r[6])) for r in rows]
        assert max(zs) <= 6.0

    def test_roundtrip_schema(self, tmp_path):
        cfg_raw = experiment_config("roundtrip", n_trajectories=5)
        cfg_raw["grid"]["n_steps"] = 200
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "roundtrip.csv")
        assert header == ["traj_id", "recon_rel_err"]
        assert all(float(r[1]) <= 1e-8 for r in rows)

    # every schedule kind on three grids, with and without a biased
    # predictor, then a t_min and two biases that used to exit 3; encode
    # inverts the deterministic recursion for any finite x0
    @pytest.mark.parametrize("schedule,grid,bias", [
        *[pytest.param({"kind": kind}, grid, bias, id=f"{kind}-{grid_id}-bias{bias}")
          for kind in ("brownian_bridge", "vp", "ve")
          for grid_id, grid in (
              ("uniform_boot-1e-4", {"kind": "uniform_boot", "t_min": 1e-4}),
              ("uniform_boot-0.05", {"kind": "uniform_boot", "t_min": 0.05, "boot_gap": 0.05}),
              ("edm_power-1e-3", {"kind": "edm_power", "t_min": 1e-3}),
          )
          for bias in (0.0, 0.05)],
        pytest.param(None, {"kind": "uniform_boot", "t_min": 0.01}, 0.0, id="t_min0.01"),
        pytest.param(None, {"kind": "uniform_boot"}, 0.02, id="bias0.02"),
        pytest.param(None, {"kind": "uniform_boot"}, 0.1, id="bias0.1"),
    ])
    def test_roundtrip_reconstructs_every_draw(self, tmp_path, schedule, grid, bias):
        n, n_steps = 4, 12
        cfg_raw = experiment_config("roundtrip", n_trajectories=n, grid={**grid, "n_steps": n_steps})
        cfg_raw["problem"]["bias"] = bias
        if schedule is not None:
            cfg_raw["schedule"] = schedule
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, cfg_raw)), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["max_recon_rel_err"] <= 1e-12
        # the n draws fit one block: one batched prediction (at T) to encode
        # and N to decode, each counted once
        assert report["predictor_calls"] == n_steps + 1

    def test_roundtrip_runs_one_pass_per_block(self, tmp_path):
        # one encode and one decode per block of draws, not one per draw
        n, n_steps = bridgekit.cli._LATENT_BLOCK + 1, 3
        cfg_raw = experiment_config("roundtrip", n_trajectories=n, grid={"kind": "uniform_boot", "n_steps": n_steps})
        assert run(load_config(cfg_raw, out_override=str(tmp_path / "o"))) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["predictor_calls"] == 2 * (n_steps + 1)

    def test_interpolate_schema(self, tmp_path):
        cfg_raw = experiment_config("interpolate")
        cfg_raw["options"] = {"weights": [0.0, 0.5, 1.0]}
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "interpolate.csv")
        assert header == ["w", "coord_0", "coord_1"]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]

    def test_interpolate_without_weights_writes_the_header(self, tmp_path):
        cfg = load_config(experiment_config("interpolate", options={"weights": []}), out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        assert (tmp_path / "o" / "interpolate.csv").read_bytes() == b"w,coord_0,coord_1\r\n"

    def test_diversity_schema(self, tmp_path):
        cfg_raw = experiment_config("diversity")
        cfg_raw["sampler"]["eta"] = 0.0
        cfg_raw["sampler"]["n_steps_sweep"] = [5, 10]
        cfg_raw["options"] = {"n_conditions": 3, "samples_per_condition": 8}
        cfg = load_config(cfg_raw, out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        header, rows = read_rows(tmp_path / "o" / "diversity.csv")
        assert header == ["condition_id", "n_steps", "eta", "score"]
        assert len(rows) == 6

    def test_drift_check_schema(self, tmp_path):
        cfg_raw = experiment_config("drift-check")
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

    def test_threads_flag_and_env_are_ignored(self, tmp_path, monkeypatch):
        # the engine runs on one thread; --threads still parses, and
        # BRIDGEKIT_THREADS is not read (a value it used to reject is harmless)
        monkeypatch.setenv("BRIDGEKIT_THREADS", "abc")
        p = write_config(tmp_path, base_config(n_trajectories=40))
        csvs = []
        for i, flag in enumerate(([], ["--threads", "8"], ["--threads", "-3"])):
            out = tmp_path / f"t{i}"
            assert main(["run", "--config", str(p), "--out", str(out), *flag]) == 0
            assert json.loads((out / "report.json").read_text())["resolved"]["threads"] == 1
            csvs.append((out / "sample.csv").read_bytes())
        assert csvs[1:] == csvs[:1] * 2

    def test_console_entry_point(self, tmp_path):
        p = write_config(tmp_path, base_config(n_trajectories=5))
        proc = subprocess.run(
            [sys.executable, "-m", "bridgekit.cli", "run", "--config", str(p),
             "--out", str(tmp_path / "sub"), "--threads", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # with beta_max = 1e6, b_t underflows to 0 at the drawn times, so the
        # drift is undefined: a failure at run time, after the config loads
        cfg_raw = experiment_config("drift-check", schedule={"kind": "vp", "beta_max": 1e6})
        p = write_config(tmp_path, cfg_raw)
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: drift-check:")
        assert not out.exists()

    def test_non_finite_metric_exits_3(self, tmp_path, capsys, monkeypatch):
        # real configs overflow into a numpy warning before a NaN metric, so
        # the runner is replaced by one that returns it
        def runner(cfg, predictor):
            return "sample.csv", ["traj_id"], [[0]], {"terminal_mean_norm": math.nan}

        monkeypatch.setitem(_EXPERIMENTS, "sample", dataclasses.replace(_EXPERIMENTS["sample"], runner=runner))
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, base_config())), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: sample: non-finite metric")
        assert not out.exists()

    # a NaN in one row reaches the max_* metric that aggregates it, so the run
    # exits 3 and writes nothing; Python's max(worst, nan) would keep worst
    def test_nan_row_in_roundtrip_exits_3(self, tmp_path):
        # x_T = 1e200 overflows the reconstruction into NaN; a subprocess, since
        # filterwarnings = error would turn the overflow into an exception here
        cfg_raw = experiment_config(
            "roundtrip", seed=5, n_trajectories=10,
            grid={"kind": "uniform_boot", "n_steps": 12, "t_min": 1e-3, "boot_gap": 1e-3},
        )
        cfg_raw["problem"]["x_T"] = [1e200, 1e200]
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "bridgekit.cli", "run", "--config", str(write_config(tmp_path, cfg_raw)),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "numerical failure: roundtrip: non-finite metric" in proc.stderr
        assert not out.exists()

    def test_nan_state_in_marginals_exits_3(self, tmp_path, monkeypatch):
        chain = bridgekit.cli.simulate_inference_chain

        def one_nan(*args):
            states = chain(*args)
            states[sorted(states)[3]][0, 0] = math.nan
            return states

        monkeypatch.setattr(bridgekit.cli, "simulate_inference_chain", one_nan)
        out = tmp_path / "o"
        cfg_raw = experiment_config("marginals", n_trajectories=20)
        assert main(["run", "--config", str(write_config(tmp_path, cfg_raw)), "--out", str(out)]) == 3
        assert not out.exists()

    def test_nan_drift_in_drift_check_exits_3(self, tmp_path, monkeypatch):
        drift = bridgekit.cli.drift_dbim
        calls = []

        def nan_at_second_point(*args):
            calls.append(args)
            d = drift(*args)
            return np.full_like(d, math.nan) if len(calls) == 2 else d

        monkeypatch.setattr(bridgekit.cli, "drift_dbim", nan_at_second_point)
        out = tmp_path / "o"
        cfg_raw = experiment_config("drift-check", options={"n_points": 5})
        assert main(["run", "--config", str(write_config(tmp_path, cfg_raw)), "--out", str(out)]) == 3
        assert not out.exists()


# floats whose repr is unusual: signed zero, the least subnormal, the
# exponent switch points, the largest finite doubles, inf and nan
_CSV_FLOATS = st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -1.7976931348623157e308,
                               math.inf, -math.inf, math.nan]) | st.floats()
# csv quotes a field holding a comma, a quote or a line break, and a lone
# empty field; no field of this program's output is such a string
_CSV_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"'), min_size=1)


class TestCsvWriter:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        width=st.integers(1, 4),
        n_rows=st.sampled_from([0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1]) | st.integers(0, 5),
        data=st.data(),
    )
    def test_same_bytes_as_the_csv_module(self, width, n_rows, data):
        # a few drawn rows, repeated under a row number so that every line differs
        fields = st.lists(st.integers() | _CSV_FLOATS | _CSV_TEXT, min_size=width, max_size=width)
        pool = data.draw(st.lists(fields, min_size=1, max_size=8))
        rows = [(i, *pool[i % len(pool)]) for i in range(n_rows)]
        # an (n_rows, width) float array is written as its rows under their index
        floats = st.lists(_CSV_FLOATS, min_size=width, max_size=width)
        float_pool = data.draw(st.lists(floats, min_size=1, max_size=8))
        float_rows = [(i, *float_pool[i % len(float_pool)]) for i in range(n_rows)]
        array = np.array([row[1:] for row in float_rows], dtype=float).reshape(n_rows, width)
        header = ["id"] + [f"f{j}" for j in range(width)]
        for written, expected_rows in ((rows, rows), (array, float_rows)):
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(expected_rows)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "out.csv"
                _write_csv(path, header, written)
                assert path.read_bytes() == expected.getvalue().encode("ascii")

    def test_ragged_row_raises_and_writes_nothing(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="2 fields"):
            _write_csv(path, ["a", "b"], [[1, 2.0], [3], [4, 5.0]])
        assert not path.exists()


class TestCoefficientTable:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The tables constructed from here on, with no table kept from before."""
        tables = []
        init = samplers._GridCoeffs.__init__

        def counting_init(table, *args, **kwargs):
            init(table, *args, **kwargs)
            tables.append(table)

        monkeypatch.setattr(samplers._GridCoeffs, "__init__", counting_init)
        samplers._GridCoeffs.build.cache_clear()
        return tables

    # encode and decode of every roundtrip draw reuse the table load_config built
    @pytest.mark.parametrize("experiment,n", [("roundtrip", 5), ("sample", 4)])
    def test_load_and_run_build_one_table(self, tmp_path, builds, experiment, n):
        cfg = load_config(experiment_config(experiment, n_trajectories=n), out_override=str(tmp_path / "o"))
        assert run(cfg) == 0
        assert len(builds) == 1

    # the run reads every grid coefficient from the table load_config built,
    # the ODE/SDE baselines' drifts included, so its schedule.coeffs calls
    # do not grow with the number of steps
    @pytest.mark.parametrize("experiment,overrides", [
        ("sample", {"sampler": {"method": "dbim1", "eta": 1.0}, "n_trajectories": 16}),
        ("roundtrip", {"n_trajectories": 2}),
        *(("sample", {"sampler": {"method": method}, "n_trajectories": 16})
          for method in ("pf_ode_euler", "pf_ode_heun", "sde_euler_maruyama")),
    ], ids=["deep_sample", "roundtrip", "pf_ode_euler", "pf_ode_heun", "sde_euler_maruyama"])
    def test_run_coeffs_calls_do_not_grow_with_n_steps(self, tmp_path, experiment, overrides):
        calls = []
        for n_steps in (1000, 3000):
            grid = {"kind": "uniform_boot", "n_steps": n_steps, "t_min": 1e-4, "boot_gap": 1e-4}
            raw = experiment_config(experiment, grid=grid, **overrides)
            cfg = load_config(raw, out_override=str(tmp_path / str(n_steps)))
            before = bridgekit.schedule.coeffs.cache_info()
            assert run(cfg) == 0
            after = bridgekit.schedule.coeffs.cache_info()
            calls.append(after.hits + after.misses - before.hits - before.misses)
        assert calls[0] == calls[1]

    def test_last_table_only_is_kept(self, builds):
        sched = NoiseSchedule.brownian_bridge(1.0, 1.0)
        first, second = TimeGrid((0.1, 0.5, 1.0)), TimeGrid((0.2, 1.0))
        table = samplers._GridCoeffs.build(sched, first)
        # equal, not identical, keys hit
        assert samplers._GridCoeffs.build(NoiseSchedule.brownian_bridge(1.0, 1.0), TimeGrid(first.times)) is table
        samplers._GridCoeffs.build(sched, second)
        assert samplers._GridCoeffs.build(sched, first) == table
        assert len(builds) == 3

    def test_failed_build_raises_every_time(self, builds):
        sched = NoiseSchedule.brownian_bridge(1.0, 1.0)
        for _ in range(2):
            with pytest.raises(InvalidGridParams, match="horizon"):
                samplers._GridCoeffs.build(sched, TimeGrid((0.1, 0.5)))
        assert builds == []


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
