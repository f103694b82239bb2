"""Experiment harness: JSON config in, CSV tables and a JSON report out.

Exit codes: 0 on success, 2 on configuration errors (nothing is written),
3 on numerical failure during an experiment (the offending operation is
named on stderr).  CSV bodies are byte-identical across reruns of the same
config and seed; wall-clock information lives only in the JSON report.

One table, ``_EXPERIMENTS``, lists every config key each experiment reads
beyond the keys all of them read (``_SHARED``), the defaults of its options
and its least ``n_trajectories``.  A config that gives a key its experiment
does not read is invalid, and ``report.json``'s ``resolved`` block lists
only the values the experiment read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from . import schedule as schedule_mod
from .errors import BridgekitError, ConfigInvalid, NumericalFailure
# make_rhos is not called here; perfbench's span seams resolve bridgekit.cli.make_rhos
from .bridge import eta_rho, make_rhos, markov_x0_coefficient  # noqa: F401
from .metrics import diversity_score, fit_order, moment_check
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

# upper bounds on the sizes a config may ask for, checked before anything is
# allocated: trajectories × dimension (2**25 doubles = 256 MB per batch
# array; times the steps for an experiment that keeps every step's states)
# and steps per grid, including every n_steps_sweep entry
MAX_BATCH_ENTRIES = 2 ** 25
MAX_STEPS = 10 ** 6
# rows per formatting call of _write_csv: bounds its temporary string to
# tens of KB, and an array's Python rows to one block
_CSV_BLOCK = 1024


@dataclass
class RunConfig:
    """Fully validated run configuration; a field the experiment does not read is None."""

    schedule: NoiseSchedule
    problem: GaussianBridgeProblem
    grid: TimeGrid | None
    method: Method | None
    eta: float | None
    sweep: tuple[TimeGrid, ...] | None
    experiment: str
    seed: int
    out_dir: Path
    n_trajectories: int | None
    x_T: np.ndarray | None
    x0: np.ndarray | None
    bias: float | None
    options: dict
    raw: dict


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ConfigInvalid(f"missing '{key}' in {ctx}")
    return mapping[key]


# the keys every experiment reads, as root keys or "section.key" paths (a schedule's keys are its kind's, see
# _SCHEDULES); each entry of _EXPERIMENTS lists the keys and options one experiment reads beyond these
_SHARED = ("schedule", "problem.mix", "problem.offset", "problem.cov", "experiment", "seed", "output", "options")


def _object(spec, ctx: str, keys=None) -> dict:
    """``spec`` if it is a JSON object with no key outside ``keys`` (any key when None).

    An undeclared key is rejected, so that a misspelt one is not silently
    replaced by its default.
    """
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"{ctx} must be a JSON object")
    unknown = sorted(set(spec) - set(keys)) if keys is not None else []
    if unknown:
        raise ConfigInvalid(f"unknown keys {unknown} in {ctx}; choose from {list(keys)}")
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


def _choice(table: dict, value, name: str):
    """``table[value]``; ``value`` is tested to be a string first, as a list or object is unhashable."""
    if not isinstance(value, str) or value not in table:
        raise ConfigInvalid(f"unknown {name} {value!r}; choose from {list(table)}")
    return table[value]


def _section(raw: dict, name: str, reads: tuple[str, ...], ctx: str) -> dict:
    """``raw[name]``, empty when absent, with no key but those ``reads`` lists as ``name.key``."""
    keys = tuple(path[len(name) + 1:] for path in reads if path.startswith(name + "."))
    return _object(raw.get(name, {}), f"{name} of {ctx}", keys)


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


def _vector(spec: dict, key: str, dim: int) -> np.ndarray:
    """``problem.<key>``, a finite point of dimension ``dim``."""
    value = _array(spec, key, "problem")
    if value.shape != (dim,):
        raise ConfigInvalid(f"{key} shape {value.shape} != ({dim},)")
    if not np.all(np.isfinite(value)):
        raise ConfigInvalid(f"{key} has non-finite entries")
    return value


# schedule kind -> (constructor, the keys it takes besides kind and horizon);
# a key the config omits takes the constructor's default
_SCHEDULES = {
    "vp": (NoiseSchedule.vp, ("beta_min", "beta_max")),
    "ve": (NoiseSchedule.ve, ("sigma_min", "sigma_max")),
    "brownian_bridge": (NoiseSchedule.brownian_bridge, ("beta",)),
}


def _build_schedule(spec) -> NoiseSchedule:
    build, keys = _choice(_SCHEDULES, _require(_object(spec, "schedule"), "kind", "schedule"), "schedule kind")
    _object(spec, "schedule", ("kind", "horizon", *keys))
    params = {key: _number(value, f"schedule.{key}") for key, value in spec.items() if key != "kind"}
    try:
        return build(**params)
    except BridgekitError as exc:
        raise ConfigInvalid(f"schedule: {exc}") from exc


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


# grid kind -> (make_grid's kind, the keys it takes besides kind and n_steps); an omitted key takes its default
_GRIDS = {
    "uniform_boot": (GridKind.UNIFORM_WITH_BOOT_STEP, ("t_min", "boot_gap")),
    "edm_power": (GridKind.EDM_POWER, ("t_min", "edm_exponent")),
}
# the grid section's keys but n_steps: kind, then those of every kind in _GRIDS order
_GRID_SHAPE = ("grid.kind", *dict.fromkeys(f"grid.{key}" for _, keys in _GRIDS.values() for key in keys))


def _build_grid(spec: dict, sched: NoiseSchedule, n_steps, name: str) -> TimeGrid:
    """The grid section ``spec`` with ``n_steps`` steps, read as the field ``name``.

    The grid ends at the schedule's horizon; omitted keys take make_grid's
    defaults.  ``n_steps`` may be at most MAX_STEPS (the lower bound is
    make_grid's).
    """
    kind, keys = _choice(_GRIDS, spec.get("kind", "uniform_boot"), "grid kind")
    _object(spec, f"grid of kind '{kind.value}'", ("kind", "n_steps", *keys))
    n_steps = _number(n_steps, name, integer=True)
    if n_steps > MAX_STEPS:
        raise ConfigInvalid(f"{name} must be at most {MAX_STEPS}, got {n_steps}")
    params = {key: _number(spec[key], f"grid.{key}") for key in keys if key in spec}
    try:
        grid = make_grid(kind, n_steps, t_max=sched.horizon, **params)
        # the samplers' coefficient table: building it evaluates (and
        # caches) every coefficient
        _GridCoeffs.build(sched, grid)
    except BridgekitError as exc:
        raise ConfigInvalid(f"grid with {name} = {n_steps}: {exc}") from exc
    return grid


def load_config(raw: dict, out_override: str | None = None, seed_override: int | None = None) -> RunConfig:
    """Validate a raw JSON document into a RunConfig.

    The experiment is read first: ``_SHARED`` and its ``_EXPERIMENTS``
    entry list every key the config may give, and ``x_T``, ``grid.n_steps``,
    ``sampler.method`` and ``n_steps_sweep`` are required where read.  Every
    referenced object is constructed (and therefore validated) here, before
    any output file is created.
    """
    experiment = _require(_object(raw, "config root"), "experiment", "config")
    entry = _choice(_EXPERIMENTS, experiment, "experiment")
    ctx = f"experiment '{experiment}'"
    reads = _SHARED + entry.reads
    _object(raw, f"config root of {ctx}", tuple(dict.fromkeys(path.split(".")[0] for path in reads)))
    sched = _build_schedule(_require(raw, "schedule", "config"))

    pspec, gspec, sspec = (_section(raw, name, reads, ctx) for name in ("problem", "grid", "sampler"))
    try:
        problem = GaussianBridgeProblem(**{key: _array(pspec, key, "problem") for key in ("mix", "offset", "cov")})
    except BridgekitError as exc:
        raise ConfigInvalid(f"problem: {exc}") from exc
    x_T = _vector(pspec, "x_T", problem.dim) if "problem.x_T" in reads else None
    x0 = _vector(pspec, "x0", problem.dim) if "x0" in pspec else None
    bias = _number(pspec.get("bias", 0.0), "problem.bias") if "problem.bias" in reads else None

    grid = None
    if "grid.n_steps" in reads:
        grid = _build_grid(gspec, sched, _require(gspec, "n_steps", "grid"), "grid.n_steps")

    method = None
    if "sampler.method" in reads:
        method = _choice({m.value: m for m in Method}, _require(sspec, "method", "sampler"), "sampler method")
    eta = _number(sspec.get("eta", 0.0), "sampler.eta") if "sampler.eta" in reads else None
    sweep = None
    if "sampler.n_steps_sweep" in reads:
        entries = sspec.get("n_steps_sweep")
        if not isinstance(entries, list) or not entries:
            raise ConfigInvalid(f"{ctx} requires sampler.n_steps_sweep, a non-empty list; got {entries!r}")
        sweep = tuple(_build_grid(gspec, sched, n, "sampler.n_steps_sweep entry") for n in entries)

    seed = _number(raw.get("seed", 0) if seed_override is None else seed_override, "seed", integer=True)
    if not 0 <= seed < 2 ** 64:
        raise ConfigInvalid(f"seed must fit in 64 bits, got {seed}")
    # construct the sampler configs now so their validation also runs up front (dbim1 where no method is read)
    for run_grid in (grid,) if grid is not None else sweep or ():
        try:
            SamplerConfig(method or Method.DBIM1, run_grid, seed, eta or 0.0)
        except BridgekitError as exc:
            raise ConfigInvalid(f"sampler: {exc}") from exc

    output = out_override if out_override is not None else raw.get("output", "out")
    if not isinstance(output, str):
        raise ConfigInvalid(f"output must be a path string, got {output!r}")
    out_dir = Path(output)
    # the nearest existing path must be a directory, or creating the output
    # directory after sampling would fail (a dangling symlink counts as existing)
    existing = next((p for p in (out_dir, *out_dir.parents) if os.path.lexists(p)), None)
    if existing is not None and not existing.is_dir():
        raise ConfigInvalid(f"output {output!r}: {str(existing)!r} exists and is not a directory")
    n_traj = None
    if "n_trajectories" in reads:
        n_traj = _rows(raw.get("n_trajectories", 100), "n_trajectories", problem.dim, entry.least_rows)
        if entry.keeps_states and n_traj * problem.dim * grid.n_steps > MAX_BATCH_ENTRIES:
            raise ConfigInvalid(
                f"{ctx} keeps the states of every step: n_trajectories × dimension × grid.n_steps must be "
                f"at most {MAX_BATCH_ENTRIES}, got {n_traj} × {problem.dim} × {grid.n_steps}"
            )
    given = _object(raw.get("options", {}), f"options of {ctx}", tuple(entry.options))
    options = _typed_options({**entry.options, **given}, problem.dim)

    return RunConfig(
        schedule=sched, problem=problem, grid=grid, method=method, eta=eta,
        sweep=sweep, experiment=experiment, seed=seed, out_dir=out_dir,
        n_trajectories=n_traj, x_T=x_T, x0=x0, bias=bias, options=options, raw=raw,
    )


def _typed_options(options: dict, dim: int) -> dict:
    """``options``, defaults filled in, with each value checked and typed in place.

    The counts are row counts of arrays of dimension ``dim``; a diversity
    score needs at least two samples per condition.
    """
    for key, least in (("n_points", 1), ("n_conditions", 1), ("samples_per_condition", 2)):
        if key in options:
            options[key] = _rows(options[key], f"options.{key}", dim, least)
    if "t_range" in options:
        t_range = options["t_range"]
        if not isinstance(t_range, list) or len(t_range) != 2:
            raise ConfigInvalid(f"options.t_range must be a list [lo, hi], got {t_range!r}")
        lo, hi = (_number(v, "options.t_range entry") for v in t_range)
        # fractions of the horizon; drift is undefined at both ends
        if not 0.0 < lo <= hi < 1.0:
            raise ConfigInvalid(f"options.t_range must satisfy 0 < lo <= hi < 1, got {t_range}")
        options["t_range"] = (lo, hi)
    if "weights" in options:
        weights = options["weights"]
        if not isinstance(weights, list):
            raise ConfigInvalid(f"options.weights must be a list, got {weights!r}")
        options["weights"] = [_number(w, "options.weights entry") for w in weights]
        # slerp takes sin(w θ) and sin((1 − w) θ) for an angle θ in [0, π]
        for w in options["weights"]:
            if not (math.isfinite(w * math.pi) and math.isfinite((1.0 - w) * math.pi)):
                raise ConfigInvalid(f"options.weights entry {w!r}: w·π and (1 − w)·π must be finite")
    return options


def _write_csv(path: Path, header: list[str], rows: list[Sequence] | np.ndarray) -> None:
    """Write comma-joined ``str`` fields, one ``\r\n``-terminated line per row.

    These are the bytes the ``csv`` module writes for this data: it writes a
    Python float as its ``repr``, which equals its ``str``, and no header or
    string field here needs quoting.  List rows must hold Python scalars
    (``tolist``/``float``), as an ``np.float64`` would print its own way.

    Each block of ``_CSV_BLOCK`` rows is formatted by one ``%`` call on a
    template of one ``%s`` per field (``%s`` is ``str``).  A template takes
    its fields in order, so a row of another width would shift the fields
    of every later row: rows must be rectangular, ``len(header)`` fields
    each, or ``ValueError`` is raised before the file is opened.

    ``rows`` may also be an (n, k) float array (``sample``, ``drift-check``
    and ``roundtrip`` pass their tables so), whose row i is written as the
    fields i, then the row's k values; an array cannot be ragged, so its
    width, 1 + k, is read from its shape.  Only the block being formatted is
    converted to Python objects (``tolist``), so at most ``_CSV_BLOCK`` rows
    of them exist at once, not one row and its floats per array row.
    """
    width = len(header)
    widths = {1 + rows.shape[1]} if isinstance(rows, np.ndarray) else set(map(len, rows))
    if widths - {width}:
        raise ValueError(f"every CSV row needs {width} fields, got rows of {sorted(widths)}")
    line = ",".join(["%s"] * width) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(rows), _CSV_BLOCK):
            block = rows[lo:lo + _CSV_BLOCK]
            if isinstance(block, np.ndarray):
                block = list(zip(range(lo, lo + len(block)), *block.T.tolist()))
            fh.write(line * len(block) % tuple(chain.from_iterable(block)))


def _predictor(cfg: RunConfig):
    base = GaussianOracle(cfg.problem, cfg.schedule)
    if cfg.bias:
        return PerturbedOracle(base, cfg.bias, seed=cfg.seed)
    return base


# --- experiments ------------------------------------------------------------


def _exp_sample(cfg: RunConfig, predictor):
    """The terminal states of ``n_trajectories`` runs from ``x_T``, one row per trajectory.

    The rows are the (n, d) terminal array itself: ``_write_csv`` writes row
    i as i and its d coordinates, formatting one block at a time, so no
    Python row per trajectory is built.
    """
    scfg = SamplerConfig(cfg.method, cfg.grid, cfg.seed, cfg.eta)
    terminal, _, _ = sample_batch(scfg, cfg.schedule, predictor, cfg.x_T, cfg.n_trajectories)
    header = ["traj_id"] + [f"coord_{i}" for i in range(cfg.problem.dim)]
    metrics = {
        "terminal_mean_norm": float(np.linalg.norm(terminal.mean(axis=0))),
        "terminal_mean_var": float(terminal.var(axis=0, ddof=1).mean()),
    }
    return "sample.csv", header, terminal, metrics


def _exp_marginals(cfg: RunConfig, predictor):
    x0 = cfg.x0 if cfg.x0 is not None else cfg.problem.mean_given_endpoint(cfg.x_T)
    states = simulate_inference_chain(
        cfg.schedule, cfg.grid, cfg.eta, x0, cfg.x_T, cfg.n_trajectories,
        np.random.default_rng(cfg.seed),
    )
    rows = []
    # np.max, unlike max(), keeps a NaN, so that run() rejects it
    abs_z, var_devs = [], []
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
            var_devs.append(abs(emp_var - k.c * k.c) / (k.c * k.c))
        abs_z.append(report.max_abs_z)
    header = ["t", "coord", "emp_mean", "tgt_mean", "emp_var", "tgt_var", "z"]
    metrics = {"max_abs_z": float(np.max(abs_z)), "max_var_rel_dev": float(np.max(var_devs))}
    return "marginals.csv", header, rows, metrics


def _drift_gaps(schedule: NoiseSchedule, predictor, rng, n_points: int, dim: int, lo: float, hi: float):
    """An (n_points, 2) array of (t, gap) between ``drift_dbim`` and ``drift_pfode`` at random points.

    Each point draws t uniform on [lo, hi] × horizon, then x and x_T from
    N(0, 4 I).  The gap is the max-norm of the difference over the larger
    max-norm of the two drifts, floored at 1e-4 of the largest drift seen.
    Both drifts of every point go into one (2, n_points, d) array, and no
    Python row is built per point: ``_write_csv`` writes the array itself.
    """
    out = np.empty((n_points, 2))
    drifts = np.empty((2, n_points, dim))
    for i in range(n_points):
        t = out[i, 0] = rng.uniform(lo * schedule.horizon, hi * schedule.horizon)
        x = rng.standard_normal(dim) * 2.0
        xT = rng.standard_normal(dim) * 2.0
        drifts[0, i] = drift_dbim(schedule, predictor, x, t, xT)
        drifts[1, i] = drift_pfode(schedule, predictor, x, t, xT)
    size = np.abs(drifts).max(axis=2)
    # np.maximum, unlike max(), keeps a NaN, so that run() rejects it
    denom = np.maximum(size.max(axis=0), 1e-4 * size.max())
    out[:, 1] = np.abs(drifts[0] - drifts[1]).max(axis=1) / denom
    return out


def _exp_drift_check(cfg: RunConfig, predictor):
    lo, hi = cfg.options["t_range"]
    rng = np.random.default_rng(cfg.seed)
    gaps = _drift_gaps(cfg.schedule, predictor, rng, cfg.options["n_points"], cfg.problem.dim, lo, hi)
    header = ["idx", "t", "rel_dev"]
    return "drift_check.csv", header, gaps, {"max_rel_dev": float(gaps[:, 1].max())}


def _exp_convergence(cfg: RunConfig, predictor):
    # imported on use: only this experiment needs scipy.integrate
    from scipy.integrate import solve_ivp

    rows = []
    errs = []
    for grid in cfg.sweep:
        traj = run_sampler(SamplerConfig(cfg.method, grid, cfg.seed, cfg.eta), cfg.schedule, predictor, cfg.x_T)
        boot_state = traj.states[1][1]
        sol = solve_ivp(
            lambda t, y: drift_pfode(cfg.schedule, predictor, y, t, cfg.x_T),
            (grid.times[grid.n_steps - 1], grid.times[0]),
            boot_state, rtol=1e-12, atol=1e-14, method="DOP853",
        )
        err = float(np.linalg.norm(traj.terminal - sol.y[:, -1]))
        errs.append(err)
        rows.append([cfg.method.value, cfg.eta, grid.n_steps, err])
    header = ["method", "eta", "n_steps", "terminal_err"]
    metrics = {}
    if len(errs) >= 3 and min(errs) > 0:
        metrics["fitted_slope"] = fit_order([grid.n_steps for grid in cfg.sweep], errs)
    return "convergence.csv", header, rows, metrics


def _exp_roundtrip(cfg: RunConfig, predictor):
    rng = np.random.default_rng(cfg.seed)
    draws = cfg.problem.sample_x0(cfg.x_T, cfg.n_trajectories, rng)
    errs = np.empty((cfg.n_trajectories, 1))
    for i, x0 in enumerate(draws):
        eps = encode(cfg.schedule, predictor, x0, cfg.x_T, cfg.grid)
        x_rec = decode(cfg.schedule, predictor, eps, cfg.x_T, cfg.grid)
        errs[i] = np.linalg.norm(x_rec - x0) / max(np.linalg.norm(x0), 1.0)
    header = ["traj_id", "recon_rel_err"]
    return "roundtrip.csv", header, errs, {"max_recon_rel_err": float(errs.max())}


def _exp_interpolate(cfg: RunConfig, predictor):
    weights = cfg.options["weights"]
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
    n_conditions = cfg.options["n_conditions"]
    per_condition = cfg.options["samples_per_condition"]
    rng = np.random.default_rng(cfg.seed)
    conditions = rng.standard_normal((n_conditions, cfg.problem.dim))
    rows = []
    metrics = {}
    for grid in cfg.sweep:
        scores = []
        for j in range(n_conditions):
            scfg = SamplerConfig(cfg.method, grid, cfg.seed + 1 + j, cfg.eta)
            terminal, _, _ = sample_batch(scfg, cfg.schedule, predictor, conditions[j], per_condition)
            score = diversity_score(terminal)
            scores.append(score)
            rows.append([j, grid.n_steps, cfg.eta, score])
        metrics[f"mean_diversity_n{grid.n_steps}"] = float(np.mean(scores))
    header = ["condition_id", "n_steps", "eta", "score"]
    return "diversity.csv", header, rows, metrics


@dataclass(frozen=True)
class _Experiment:
    """What one experiment reads beyond the keys every experiment reads (``_SHARED``).

    ``reads`` lists its keys, as root keys or ``section.key`` paths;
    ``options`` maps each option it reads to its default, in config form.
    """

    runner: Callable
    reads: tuple[str, ...]
    options: dict = field(default_factory=dict)
    least_rows: int = 1  # least n_trajectories
    keeps_states: bool = False  # holds an (n_trajectories, d) state per grid step


# marginals runs the dbim1 chain with the true x0, so reads no method and
# calls no predictor; the sample and marginals metrics need two rows
_EXPERIMENTS = {
    "sample": _Experiment(_exp_sample, (*_GRID_SHAPE, "grid.n_steps", "sampler.method", "sampler.eta",
                                        "n_trajectories", "problem.x_T", "problem.bias"), least_rows=2),
    "marginals": _Experiment(_exp_marginals, (*_GRID_SHAPE, "grid.n_steps", "sampler.eta", "n_trajectories",
                                              "problem.x_T", "problem.x0"), least_rows=2, keeps_states=True),
    "drift-check": _Experiment(_exp_drift_check, ("problem.bias",), {"n_points": 1000, "t_range": [0.01, 0.99]}),
    "convergence": _Experiment(_exp_convergence, (*_GRID_SHAPE, "sampler.method", "sampler.eta",
                                                  "sampler.n_steps_sweep", "problem.x_T", "problem.bias")),
    "roundtrip": _Experiment(_exp_roundtrip, (*_GRID_SHAPE, "grid.n_steps", "n_trajectories", "problem.x_T",
                                              "problem.bias")),
    "interpolate": _Experiment(_exp_interpolate, (*_GRID_SHAPE, "grid.n_steps", "problem.x_T", "problem.bias"),
                               {"weights": [0.0, 0.25, 0.5, 0.75, 1.0]}),
    "diversity": _Experiment(_exp_diversity, (*_GRID_SHAPE, "sampler.method", "sampler.eta",
                                              "sampler.n_steps_sweep", "problem.bias"),
                             {"n_conditions": 8, "samples_per_condition": 5}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns the process exit code.

    The report's ``predictor_calls`` is the number of ``predict`` calls the
    experiment made, counted in one place around its predictor; a batched
    call counts once.  ``resolved.threads`` is 1, as the engine runs on the
    calling thread; its method, eta, count and grid keys appear where read.
    """
    start = time.perf_counter()
    predictor = _CountingPredictor(_predictor(cfg))
    try:
        csv_name, header, rows, metrics = _EXPERIMENTS[cfg.experiment].runner(cfg, predictor)
    except BridgekitError as exc:
        raise NumericalFailure(cfg.experiment, str(exc)) from exc
    for value in metrics.values():
        if not math.isfinite(value):
            raise NumericalFailure(cfg.experiment, f"non-finite metric in report: {metrics}")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out_dir / csv_name, header, rows)
    read = {
        "method": cfg.method.value if cfg.method else None,
        "eta": cfg.eta,
        "n_trajectories": cfg.n_trajectories,
        "grid_times_first_last": [cfg.grid.times[0], cfg.grid.times[-1]] if cfg.grid else None,
        "n_steps": cfg.grid.n_steps if cfg.grid else None,
    }
    report = {
        "config": cfg.raw,
        "metrics": metrics,
        "wall_time_s": time.perf_counter() - start,
        "predictor_calls": predictor.calls,
        "resolved": {
            "experiment": cfg.experiment, "seed": cfg.seed, "threads": 1,
            **{key: value for key, value in read.items() if value is not None},
        },
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
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
    worst = _drift_gaps(sched_vp, oracle, rng, 200, 1, 0.01, 0.99)[:, 1].max()
    checks.append(("drift-equivalence", worst <= 1e-9, f"max rel dev {worst:.2e}"))

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bridgekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON run configuration")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--seed", type=int, default=None, help="seed override (64-bit unsigned)")
    runp.add_argument("--threads", type=int, default=None,
                      help="ignored: the engine runs on one thread (kept so that existing "
                           "command lines still parse)")
    sub.add_parser("selftest", help="run the fast built-in verification checks")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return selftest()

    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = load_config(raw, out_override=args.out, seed_override=args.seed)
    # RecursionError: JSON nested deeper than the interpreter's recursion limit
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError, ConfigInvalid) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
