"""Experiment harness: JSON config in, CSV tables and a JSON report out.

Exit codes: 0 on success, 2 on configuration errors (nothing is written),
3 on numerical failure during an experiment (the offending operation is
named on stderr).  CSV bodies are byte-identical across reruns of the same
config and seed; wall-clock information lives only in the JSON report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import schedule as schedule_mod
from .errors import BridgekitError, ConfigInvalid, NumericalFailure
from .bridge import eta_rho, make_rhos, markov_x0_coefficient
from .metrics import RunReport, diversity_score, fit_order, moment_check
from .oracle import GaussianBridgeProblem, GaussianOracle, PerturbedOracle
from .samplers import (
    Method,
    SamplerConfig,
    _CountingPredictor,
    _GridCoeffs,
    decode,
    drift_dbim,
    drift_pfode,
    encode,
    run_sampler,
    sample_batch,
    simulate_inference_chain,
    slerp_interpolate,
)
from .schedule import GridKind, NoiseSchedule, TimeGrid, coeffs, make_grid

EXPERIMENTS = (
    "sample",
    "marginals",
    "drift-check",
    "convergence",
    "roundtrip",
    "interpolate",
    "diversity",
)

# upper bounds on the sizes a config may ask for, checked before anything is
# allocated: trajectories × dimension (2**25 doubles = 256 MB per batch
# array) and steps per grid, including every n_steps_sweep entry
MAX_BATCH_ENTRIES = 2 ** 25
MAX_STEPS = 10 ** 6


@dataclass
class RunConfig:
    """Fully validated run configuration."""

    schedule: NoiseSchedule
    problem: GaussianBridgeProblem
    grid: TimeGrid
    method: Method
    eta: float
    n_steps_sweep: list[int]
    experiment: str
    seed: int
    out_dir: Path
    n_trajectories: int
    x_T: np.ndarray
    x0: np.ndarray | None
    bias: float
    options: dict
    raw: dict


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ConfigInvalid(f"missing '{key}' in {ctx}")
    return mapping[key]


def _section(raw: dict, key: str) -> dict:
    spec = _require(raw, key, "config")
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"'{key}' must be a JSON object")
    return spec


def _number(value, name: str, integer: bool = False) -> float | int:
    """``value`` as a finite float, or as an int when ``integer`` is set.

    Raises ConfigInvalid for anything else: a string, list, null or JSON
    boolean, a non-finite float, or a float with a fractional part in an
    integer field (``2.0`` is read as 2, ``2.7`` is rejected).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigInvalid(f"{name} must be finite, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigInvalid(f"{name} is out of the float range") from exc


def _array(spec: dict, key: str, ctx: str) -> np.ndarray:
    """``spec[key]``, a number or a (nested) list of numbers, as a float array."""
    value = _require(spec, key, ctx)
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigInvalid(f"{ctx}.{key} must be a numeric array: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise ConfigInvalid(f"{ctx}.{key} must hold numbers, got {value!r}")
    return arr.astype(float)


# schedule kind -> (constructor, its (parameter, default) pairs before the horizon)
_SCHEDULES = {
    "vp": (NoiseSchedule.vp, (("beta_min", 0.1), ("beta_max", 20.0))),
    "ve": (NoiseSchedule.ve, (("sigma_min", 0.01), ("sigma_max", 50.0))),
    "brownian_bridge": (NoiseSchedule.brownian_bridge, (("beta", 1.0),)),
}


def _build_schedule(spec: dict) -> NoiseSchedule:
    kind = _require(spec, "kind", "schedule")
    if not isinstance(kind, str) or kind not in _SCHEDULES:
        raise ConfigInvalid(f"unknown schedule kind '{kind}'")
    build, params = _SCHEDULES[kind]
    args = [_number(spec.get(key, default), f"schedule.{key}") for key, default in params]
    horizon = _number(spec.get("horizon", 1.0), "schedule.horizon")
    try:
        return build(*args, horizon)
    except BridgekitError as exc:
        raise ConfigInvalid(f"schedule: {exc}") from exc


def _steps(value, name: str) -> int:
    """``value`` as a step count of at most MAX_STEPS (the lower bound is make_grid's)."""
    n = _number(value, name, integer=True)
    if n > MAX_STEPS:
        raise ConfigInvalid(f"{name} must be at most {MAX_STEPS}, got {n}")
    return n


def _rows(value, name: str, dim: int, least: int = 1) -> int:
    """``value`` as a count of at least ``least`` rows, with rows × ``dim`` at most MAX_BATCH_ENTRIES."""
    n = _number(value, name, integer=True)
    if n < least:
        raise ConfigInvalid(f"{name} must be >= {least}, got {n}")
    if n * dim > MAX_BATCH_ENTRIES:
        raise ConfigInvalid(
            f"{name} × dimension must be at most {MAX_BATCH_ENTRIES}, got {n} × {dim}"
        )
    return n


def _grid_with_steps(grid: TimeGrid, n: int) -> TimeGrid:
    """A grid of the kind and parameters of ``grid``, with ``n`` steps."""
    return make_grid(
        grid.kind, n, t_min=grid.t_min, t_max=grid.t_max,
        boot_gap=grid.boot_gap, edm_exponent=grid.edm_exponent,
    )


def _build_grid(spec: dict, sched: NoiseSchedule) -> TimeGrid:
    kind_name = spec.get("kind", "uniform_boot")
    try:
        kind = GridKind(kind_name)
    except ValueError as exc:
        raise ConfigInvalid(f"unknown grid kind '{kind_name}'") from exc

    n_steps = _steps(_require(spec, "n_steps", "grid"), "grid.n_steps")
    params = {
        key: _number(spec.get(key, default), f"grid.{key}")
        for key, default in (("t_min", 1e-4), ("t_max", sched.horizon), ("boot_gap", 1e-4), ("edm_exponent", 7.0))
    }
    try:
        grid = make_grid(kind, n_steps, **params)
        # the samplers' coefficient table: building it checks that the grid
        # ends at the horizon and evaluates (and caches) every coefficient
        _GridCoeffs.build(sched, grid)
    except BridgekitError as exc:
        raise ConfigInvalid(f"grid: {exc}") from exc
    return grid


def load_config(raw: dict, out_override: str | None = None, seed_override: int | None = None) -> RunConfig:
    """Validate a raw JSON document into a RunConfig.

    Every referenced object is constructed (and therefore validated) here,
    before any output file is created.
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be a JSON object")
    sched = _build_schedule(_section(raw, "schedule"))

    pspec = _section(raw, "problem")
    try:
        problem = GaussianBridgeProblem(
            mix=_array(pspec, "mix", "problem"),
            offset=_array(pspec, "offset", "problem"),
            cov=_array(pspec, "cov", "problem"),
        )
    except BridgekitError as exc:
        raise ConfigInvalid(f"problem: {exc}") from exc
    x_T = _array(pspec, "x_T", "problem")
    if x_T.shape != (problem.dim,):
        raise ConfigInvalid(f"x_T shape {x_T.shape} != ({problem.dim},)")
    if not np.all(np.isfinite(x_T)):
        raise ConfigInvalid("x_T has non-finite entries")
    x0 = None
    if "x0" in pspec:
        x0 = _array(pspec, "x0", "problem")
        if x0.shape != (problem.dim,):
            raise ConfigInvalid(f"x0 shape {x0.shape} != ({problem.dim},)")
        if not np.all(np.isfinite(x0)):
            raise ConfigInvalid("x0 has non-finite entries")
    bias = _number(pspec.get("bias", 0.0), "problem.bias")

    grid = _build_grid(_section(raw, "grid"), sched)

    sspec = _section(raw, "sampler")
    method_name = _require(sspec, "method", "sampler")
    try:
        method = Method(method_name)
    except ValueError as exc:
        raise ConfigInvalid(f"unknown sampler method '{method_name}'") from exc
    eta = _number(sspec.get("eta", 0.0), "sampler.eta")
    sweep = sspec.get("n_steps_sweep", [])
    if not isinstance(sweep, list):
        raise ConfigInvalid(f"sampler.n_steps_sweep must be a list, got {sweep!r}")
    sweep = [_steps(n, "sampler.n_steps_sweep entry") for n in sweep]

    experiment = _require(raw, "experiment", "config")
    if experiment not in EXPERIMENTS:
        raise ConfigInvalid(f"unknown experiment '{experiment}'; choose from {EXPERIMENTS}")
    if experiment in ("convergence", "diversity"):
        if not sweep:
            raise ConfigInvalid(f"experiment '{experiment}' requires sampler.n_steps_sweep")
        for n in sweep:
            try:
                sweep_grid = _grid_with_steps(grid, n)
                _GridCoeffs.build(sched, sweep_grid)
                # the grid's step count against the method's order; eta is
                # checked with the run's own grid below
                SamplerConfig(method=method, grid=sweep_grid, seed=0)
            except BridgekitError as exc:
                raise ConfigInvalid(f"n_steps_sweep entry {n}: {exc}") from exc

    seed = _number(raw.get("seed", 0) if seed_override is None else seed_override, "seed", integer=True)
    if not 0 <= seed < 2 ** 64:
        raise ConfigInvalid(f"seed must fit in 64 bits, got {seed}")
    output = out_override if out_override is not None else raw.get("output", "out")
    if not isinstance(output, str):
        raise ConfigInvalid(f"output must be a path string, got {output!r}")
    out_dir = Path(output)
    # the nearest existing path must be a directory, or creating the output
    # directory after sampling would fail (a dangling symlink counts as existing)
    existing = next((p for p in (out_dir, *out_dir.parents) if os.path.lexists(p)), None)
    if existing is not None and not existing.is_dir():
        raise ConfigInvalid(f"output {output!r}: {str(existing)!r} exists and is not a directory")
    n_traj = _rows(raw.get("n_trajectories", 100), "n_trajectories", problem.dim)
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ConfigInvalid("options must be a JSON object")
    options = _typed_options(options, problem.dim)

    # construct the sampler config now so its validation also runs up front
    try:
        SamplerConfig(method=method, grid=grid, seed=seed, eta=eta)
    except BridgekitError as exc:
        raise ConfigInvalid(f"sampler: {exc}") from exc

    return RunConfig(
        schedule=sched, problem=problem, grid=grid, method=method, eta=eta,
        n_steps_sweep=sweep, experiment=experiment, seed=seed, out_dir=out_dir,
        n_trajectories=n_traj, x_T=x_T, x0=x0, bias=bias, options=options, raw=raw,
    )


def _typed_options(options: dict, dim: int) -> dict:
    """A copy of ``options`` with the keys the experiments read checked and typed.

    The counts are row counts of arrays of dimension ``dim``; a diversity
    score needs at least two samples per condition.
    """
    out = dict(options)
    for key, least in (("n_points", 1), ("n_conditions", 1), ("samples_per_condition", 2)):
        if key in out:
            out[key] = _rows(out[key], f"options.{key}", dim, least)
    if "t_range" in out:
        t_range = out["t_range"]
        if not isinstance(t_range, list) or len(t_range) != 2:
            raise ConfigInvalid(f"options.t_range must be a list [lo, hi], got {t_range!r}")
        lo, hi = (_number(v, "options.t_range entry") for v in t_range)
        # fractions of the horizon; drift is undefined at both ends
        if not 0.0 < lo <= hi < 1.0:
            raise ConfigInvalid(f"options.t_range must satisfy 0 < lo <= hi < 1, got {t_range}")
        out["t_range"] = (lo, hi)
    if "weights" in out:
        weights = out["weights"]
        if not isinstance(weights, list):
            raise ConfigInvalid(f"options.weights must be a list, got {weights!r}")
        out["weights"] = [_number(w, "options.weights entry") for w in weights]
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write comma-joined ``str`` fields, one ``\r\n``-terminated line per row.

    These are the bytes the ``csv`` module writes for this data: it writes a
    Python float as its ``repr``, which equals its ``str``, and no header or
    string field here needs quoting.  Rows must hold Python scalars
    (``tolist``/``float``), as an ``np.float64`` would print its own way.
    """
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def _predictor(cfg: RunConfig):
    base = GaussianOracle(cfg.problem, cfg.schedule)
    if cfg.bias != 0.0:
        return PerturbedOracle(base, cfg.bias, seed=cfg.seed)
    return base


# --- experiments ------------------------------------------------------------


def _exp_sample(cfg: RunConfig, predictor):
    scfg = SamplerConfig(method=cfg.method, grid=cfg.grid, seed=cfg.seed, eta=cfg.eta)
    terminal, _, _ = sample_batch(scfg, cfg.schedule, predictor, cfg.x_T, cfg.n_trajectories)
    header = ["traj_id"] + [f"coord_{i}" for i in range(cfg.problem.dim)]
    rows = [[i, *row] for i, row in enumerate(terminal.tolist())]
    metrics = {
        "terminal_mean_norm": float(np.linalg.norm(terminal.mean(axis=0))),
        "terminal_mean_var": float(terminal.var(axis=0, ddof=1).mean()),
    }
    return "sample.csv", header, rows, metrics


def _exp_marginals(cfg: RunConfig, predictor):
    x0 = cfg.x0 if cfg.x0 is not None else cfg.problem.mean_given_endpoint(cfg.x_T)
    rhos = make_rhos(cfg.schedule, cfg.grid, cfg.eta)
    states = simulate_inference_chain(
        cfg.schedule, cfg.grid, rhos, x0, cfg.x_T, cfg.n_trajectories,
        np.random.default_rng(cfg.seed),
    )
    rows = []
    max_z = 0.0
    max_var_dev = 0.0
    for t in sorted(states):
        k = coeffs(cfg.schedule, t)
        target_mean = k.a * cfg.x_T + k.b * x0
        target_cov = k.c * k.c * np.eye(cfg.problem.dim)
        report = moment_check(states[t], t, target_mean, target_cov)
        for i in range(cfg.problem.dim):
            emp_var = float(report.empirical_cov[i, i])
            rows.append([
                t, i, float(report.empirical_mean[i]), float(target_mean[i]),
                emp_var, float(k.c * k.c), float(report.z_scores[i]),
            ])
            max_var_dev = max(max_var_dev, abs(emp_var - k.c * k.c) / (k.c * k.c))
        max_z = max(max_z, report.max_abs_z)
    header = ["t", "coord", "emp_mean", "tgt_mean", "emp_var", "tgt_var", "z"]
    return "marginals.csv", header, rows, {"max_abs_z": max_z, "max_var_rel_dev": max_var_dev}


def _drift_gaps(schedule: NoiseSchedule, predictor, rng, n_points: int, dim: int, lo: float, hi: float):
    """(t, gap) between ``drift_dbim`` and ``drift_pfode`` at ``n_points`` random points.

    Each point draws t uniform on [lo, hi] × horizon, then x and x_T from
    N(0, 4 I).  The gap is the max-norm of the difference over the larger
    max-norm of the two drifts, floored at 1e-4 of the largest drift seen.
    """
    samples = []
    for _ in range(n_points):
        t = float(rng.uniform(lo * schedule.horizon, hi * schedule.horizon))
        x = rng.standard_normal(dim) * 2.0
        xT = rng.standard_normal(dim) * 2.0
        d1 = drift_dbim(schedule, predictor, x, t, xT)
        d2 = drift_pfode(schedule, predictor, x, t, xT)
        samples.append((t, d1, d2))
    scale = max(max(np.max(np.abs(d1)), np.max(np.abs(d2))) for _, d1, d2 in samples)
    gaps = []
    for t, d1, d2 in samples:
        denom = max(float(np.max(np.abs(d1))), float(np.max(np.abs(d2))), 1e-4 * scale)
        gaps.append((t, float(np.max(np.abs(d1 - d2)) / denom)))
    return gaps


def _exp_drift_check(cfg: RunConfig, predictor):
    n_points = cfg.options.get("n_points", 1000)
    lo, hi = cfg.options.get("t_range", (0.01, 0.99))
    rng = np.random.default_rng(cfg.seed)
    gaps = _drift_gaps(cfg.schedule, predictor, rng, n_points, cfg.problem.dim, lo, hi)
    rows = [[i, t, rel] for i, (t, rel) in enumerate(gaps)]
    header = ["idx", "t", "rel_dev"]
    return "drift_check.csv", header, rows, {"max_rel_dev": max(rel for _, rel in gaps)}


def _exp_convergence(cfg: RunConfig, predictor):
    # imported on use: only this experiment needs scipy.integrate
    from scipy.integrate import solve_ivp

    rows = []
    errs = []
    for n in cfg.n_steps_sweep:
        grid = _grid_with_steps(cfg.grid, n)
        scfg = SamplerConfig(method=cfg.method, grid=grid, seed=cfg.seed, eta=cfg.eta)
        traj = run_sampler(scfg, cfg.schedule, predictor, cfg.x_T)
        boot_state = traj.states[1][1]
        sol = solve_ivp(
            lambda t, y: drift_pfode(cfg.schedule, predictor, y, t, cfg.x_T),
            (grid.times[grid.n_steps - 1], grid.times[0]),
            boot_state, rtol=1e-12, atol=1e-14, method="DOP853",
        )
        err = float(np.linalg.norm(traj.terminal - sol.y[:, -1]))
        errs.append(err)
        rows.append([cfg.method.value, cfg.eta, n, err])
    header = ["method", "eta", "n_steps", "terminal_err"]
    metrics = {}
    if len(errs) >= 3 and min(errs) > 0:
        metrics["fitted_slope"] = fit_order(cfg.n_steps_sweep, errs)
    return "convergence.csv", header, rows, metrics


def _exp_roundtrip(cfg: RunConfig, predictor):
    rng = np.random.default_rng(cfg.seed)
    draws = cfg.problem.sample_x0(cfg.x_T, cfg.n_trajectories, rng)
    rows = []
    worst = 0.0
    for i in range(cfg.n_trajectories):
        x0 = draws[i]
        eps = encode(cfg.schedule, predictor, x0, cfg.x_T, cfg.grid)
        x_rec = decode(cfg.schedule, predictor, eps, cfg.x_T, cfg.grid)
        rel = float(np.linalg.norm(x_rec - x0) / max(np.linalg.norm(x0), 1.0))
        worst = max(worst, rel)
        rows.append([i, rel])
    header = ["traj_id", "recon_rel_err"]
    return "roundtrip.csv", header, rows, {"max_recon_rel_err": worst}


def _exp_interpolate(cfg: RunConfig, predictor):
    weights = cfg.options.get("weights", [0.0, 0.25, 0.5, 0.75, 1.0])
    rng = np.random.default_rng(cfg.seed)
    eps_a = rng.standard_normal(cfg.problem.dim)
    eps_b = rng.standard_normal(cfg.problem.dim)
    rows = []
    for w in weights:
        eps = slerp_interpolate(eps_a, eps_b, w)
        x = decode(cfg.schedule, predictor, eps, cfg.x_T, cfg.grid)
        rows.append([w, *x.tolist()])
    header = ["w"] + [f"coord_{i}" for i in range(cfg.problem.dim)]
    return "interpolate.csv", header, rows, {"n_weights": float(len(weights))}


def _exp_diversity(cfg: RunConfig, predictor):
    n_conditions = cfg.options.get("n_conditions", 8)
    per_condition = cfg.options.get("samples_per_condition", 5)
    rng = np.random.default_rng(cfg.seed)
    conditions = rng.standard_normal((n_conditions, cfg.problem.dim))
    rows = []
    metrics = {}
    for n in cfg.n_steps_sweep:
        grid = _grid_with_steps(cfg.grid, n)
        scores = []
        for j in range(n_conditions):
            scfg = SamplerConfig(method=cfg.method, grid=grid, seed=cfg.seed + 1 + j, eta=cfg.eta)
            terminal, _, _ = sample_batch(scfg, cfg.schedule, predictor, conditions[j], per_condition)
            score = diversity_score(terminal)
            scores.append(score)
            rows.append([j, n, cfg.eta, score])
        metrics[f"mean_diversity_n{n}"] = float(np.mean(scores))
    header = ["condition_id", "n_steps", "eta", "score"]
    return "diversity.csv", header, rows, metrics


_RUNNERS = {
    "sample": _exp_sample,
    "marginals": _exp_marginals,
    "drift-check": _exp_drift_check,
    "convergence": _exp_convergence,
    "roundtrip": _exp_roundtrip,
    "interpolate": _exp_interpolate,
    "diversity": _exp_diversity,
}


def run(cfg: RunConfig, threads: int = 1) -> int:
    """Execute one experiment; returns the process exit code.

    The report's ``predictor_calls`` is the number of ``predict`` calls the
    experiment made, counted in one place around its predictor; a batched
    call counts once.  ``threads`` is only echoed in the report.
    """
    start = time.perf_counter()
    predictor = _CountingPredictor(_predictor(cfg))
    try:
        csv_name, header, rows, metrics = _RUNNERS[cfg.experiment](cfg, predictor)
    except BridgekitError as exc:
        raise NumericalFailure(cfg.experiment, str(exc)) from exc
    for value in metrics.values():
        if not math.isfinite(value):
            raise NumericalFailure(cfg.experiment, f"non-finite metric in report: {metrics}")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out_dir / csv_name, header, rows)
    report = RunReport(
        config=cfg.raw,
        metrics=metrics,
        wall_time_s=time.perf_counter() - start,
        predictor_calls=predictor.calls,
    ).as_dict()
    report.update({
        "resolved": {
            "experiment": cfg.experiment,
            "method": cfg.method.value,
            "eta": cfg.eta,
            "seed": cfg.seed,
            "n_trajectories": cfg.n_trajectories,
            "grid_times_first_last": [cfg.grid.times[0], cfg.grid.times[-1]],
            "n_steps": cfg.grid.n_steps,
            "threads": threads,
        },
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    })
    with (cfg.out_dir / "report.json").open("w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# --- selftest ---------------------------------------------------------------


def selftest() -> int:
    """Fast named checks of the library's core identities; 0 only if all pass."""
    sched = NoiseSchedule.brownian_bridge(1.0, 1.0)
    sched_vp = NoiseSchedule.vp(0.1, 20.0, 1.0)
    problem = GaussianBridgeProblem(
        mix=np.array([[0.3]]), offset=np.array([0.2]), cov=np.array([[1.0]])
    )
    rng = np.random.default_rng(12345)
    checks: list[tuple[str, bool, str]] = []

    # coefficient identity a α_T/α_t + b/α_t = 1
    worst = 0.0
    for sch in (sched, sched_vp):
        for t in rng.uniform(0.01, 0.999, size=200):
            k = coeffs(sch, float(t))
            alpha_t = sch.alpha(float(t))
            alpha_T = sch.alpha(sch.horizon)
            worst = max(worst, abs(k.a * alpha_T / alpha_t + k.b / alpha_t - 1.0))
    checks.append(("coefficient-identity", worst <= 1e-12, f"max dev {worst:.2e}"))

    # lambda closed form: lambda_of == 0.5 log(SNR_t − SNR_T)
    worst = 0.0
    for t in rng.uniform(0.01, 0.99, size=200):
        lam = schedule_mod.lambda_of(sched, float(t))
        direct = 0.5 * math.log(sched.snr(float(t)) - sched.snr(1.0))
        worst = max(worst, abs(lam - direct))
    checks.append(("lambda-closed-form", worst <= 1e-10, f"max dev {worst:.2e}"))

    # drift equivalence on 200 random points
    oracle = GaussianOracle(problem, sched_vp)
    devs = [rel for _, rel in _drift_gaps(sched_vp, oracle, rng, 200, 1, 0.01, 0.99)]
    checks.append(("drift-equivalence", max(devs) <= 1e-9, f"max rel dev {max(devs):.2e}"))

    # Markov boundary: coefficient vanishes exactly at the eta=1 variance
    worst = 0.0
    ok_mid = True
    for _ in range(20):
        t_n = float(rng.uniform(0.05, 0.7))
        t_m = float(rng.uniform(t_n + 0.05, 0.9))
        r1 = eta_rho(sched, t_n, t_m, 1.0)
        worst = max(worst, abs(markov_x0_coefficient(sched, r1, t_n, t_m)))
        ok_mid = ok_mid and abs(markov_x0_coefficient(sched, 0.5 * r1, t_n, t_m)) > 1e-3
    checks.append(("markov-boundary", worst <= 1e-12 and ok_mid, f"eta=1 max {worst:.2e}"))

    # encode/decode round trip at N = 200
    grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 200)
    oracle_b = GaussianOracle(problem, sched)
    xT = np.array([0.7])
    x0 = problem.sample_x0(xT, 1, rng)[0]
    eps = encode(sched, oracle_b, x0, xT, grid)
    rec = decode(sched, oracle_b, eps, xT, grid)
    rel = float(np.linalg.norm(rec - x0) / max(np.linalg.norm(x0), 1.0))
    checks.append(("roundtrip-n200", rel <= 1e-6, f"rel err {rel:.2e}"))

    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{name.ljust(width)}  {status}  {detail}")
        failed += 0 if ok else 1
    print(f"{failed} of {len(checks)} checks failed" if failed else f"all {len(checks)} checks passed")
    return 1 if failed else 0


# --- entry point ------------------------------------------------------------


def _resolve_threads(flag_value: int | None) -> int:
    if flag_value is None:
        env = os.environ.get("BRIDGEKIT_THREADS")
        try:
            flag_value = int(env) if env else 0
        except ValueError as exc:
            raise ConfigInvalid(f"BRIDGEKIT_THREADS must be an integer, got {env!r}") from exc
    if flag_value == 0:
        return os.cpu_count() or 1
    if flag_value < 0:
        raise ConfigInvalid(f"--threads must be >= 0, got {flag_value}")
    return flag_value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bridgekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON run configuration")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--seed", type=int, default=None, help="seed override (64-bit unsigned)")
    runp.add_argument("--threads", type=int, default=None,
                      help="thread count, validated and reported; the engine is single-threaded, "
                           "so it changes neither results nor speed (0 = CPU count; "
                           "falls back to BRIDGEKIT_THREADS)")
    sub.add_parser("selftest", help="run the fast built-in verification checks")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return selftest()

    try:
        threads = _resolve_threads(args.threads)
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = load_config(raw, out_override=args.out, seed_override=args.seed)
    # RecursionError: JSON nested deeper than the interpreter's recursion limit
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError, ConfigInvalid) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg, threads=threads)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
