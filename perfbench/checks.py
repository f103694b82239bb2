"""Output checks for the benchmark workloads against the Gaussian oracle.

Every sampler here is an affine map of its noises, because the oracle's
prediction is affine in the state, so its terminal law is exactly Gaussian.
The checks compute that law without Monte Carlo and compare the CSV to it:

* ``wide`` (dbim1, η = 0): the map of the boot noise, from d + 1 ``decode``
  probes; the mean is ``decode(0)`` and the covariance is JJᵀ.
* ``deep`` (dbim1, η = 1): mean and covariance propagated step by step
  through the implicit update, with the oracle's ``linearize`` map and the
  per-step noise scale ρ from ``make_rhos``.
* ``highorder`` (dbim3): deterministic after the boot step, so its map is
  fitted exactly from d + 1 single-trajectory ``run_sampler`` probes.

For ``deep`` and ``highorder`` the exact law must also lie within the C6
bound 0.03·√tr S of the analytic posterior N(M x_T + m₀, S).  The sample
moments must lie within 6·√(tr Σ / n) of the exact law: sampling error
alone stays below about 3.5·√(tr Σ / n).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from bridgekit import GaussianOracle, SamplerConfig, decode, make_rhos, run_sampler
from bridgekit.cli import load_config
from bridgekit.schedule import coeffs

C6_FACTOR = 0.03
SAMPLING_FACTOR = 6.0


def w2_gaussian(mean_a, cov_a, mean_b, cov_b) -> float:
    """2-Wasserstein distance between Gaussians (Bures form, eigh square roots)."""

    def sqrt_psd(mat):
        w, v = np.linalg.eigh(0.5 * (mat + mat.T))
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T

    root_b = sqrt_psd(cov_b)
    cross = sqrt_psd(root_b @ cov_a @ root_b)
    bures = np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross)
    return math.sqrt(float(np.sum((mean_a - mean_b) ** 2)) + max(float(bures), 0.0))


def _dbim1_law(cfg, oracle):
    """Exact terminal law of dbim1 at the configured η, by moment propagation."""
    oracle_m = cfg.problem.mean_given_endpoint(cfg.x_T)
    times = cfg.grid.times
    N = cfg.grid.n_steps
    rhos = make_rhos(cfg.schedule, cfg.grid, cfg.eta).rhos
    d = cfg.problem.dim
    eye = np.eye(d)
    k = coeffs(cfg.schedule, times[N - 1])
    mean = k.a * cfg.x_T + k.b * oracle_m
    cov = k.c * k.c * eye
    for n in range(N - 2, -1, -1):
        kn, km = coeffs(cfg.schedule, times[n]), coeffs(cfg.schedule, times[n + 1])
        P, q = oracle.linearize(times[n + 1], cfg.x_T)
        r = math.sqrt(max(kn.c * kn.c - rhos[n] * rhos[n], 0.0)) / km.c
        gain = kn.b - r * km.b
        K = r * eye + gain * P
        mean = K @ mean + gain * q + (kn.a - r * km.a) * cfg.x_T
        cov = K @ cov @ K.T
        if rhos[n] > 0.0:
            cov = cov + rhos[n] * rhos[n] * eye
    return mean, cov


def _affine_law(boot_map, d):
    """Law N(F(0), JJᵀ) of an affine map F of a standard normal boot noise."""
    probes = [boot_map(i) for i in range(d + 1)]
    eps = np.array([np.append(e, 1.0) for e, _ in probes])
    out = np.array([x for _, x in probes])
    coef = np.linalg.solve(eps, out)
    J, mean = coef[:d].T, coef[d]
    return mean, J @ J.T


def expected_law(workload: str, raw: dict):
    """Exact terminal (mean, cov) of the workload's sampler."""
    cfg = load_config(raw)
    d = cfg.problem.dim
    oracle = GaussianOracle(cfg.problem, cfg.schedule)
    if workload == "wide":
        unit = np.eye(d)

        def probe(i):
            e = unit[i] if i < d else np.zeros(d)
            return e, decode(cfg.schedule, oracle, e, cfg.x_T, cfg.grid)

        return _affine_law(probe, d)
    if workload == "deep":
        return _dbim1_law(cfg, oracle)
    if workload == "highorder":

        def probe(i):
            scfg = SamplerConfig(cfg.method, cfg.grid, seed=i)
            traj = run_sampler(scfg, cfg.schedule, oracle, cfg.x_T)
            return traj.boot_noise, traj.terminal

        return _affine_law(probe, d)
    raise ValueError(f"no exact law for workload {workload!r}")


def csv_digest(out_dir: Path) -> str:
    try:
        return hashlib.sha256((out_dir / "sample.csv").read_bytes()).hexdigest()
    except OSError:
        return ""


def check_output(workload: str, raw: dict, law, out_dir: Path) -> tuple[list[str], str]:
    """Return (list of failures, CSV sha256) for one run's output directory."""
    n = raw["n_trajectories"]
    d = len(raw["problem"]["offset"])
    csv_path = out_dir / "sample.csv"
    failures = []
    try:
        body = csv_path.read_bytes()
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"missing output: {exc}"], ""
    digest = hashlib.sha256(body).hexdigest()
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in report.get("metrics", {}).values()):
        failures.append(f"non-finite report metrics {report.get('metrics')}")
    header = ",".join(["traj_id"] + [f"coord_{i}" for i in range(d)])
    if body.split(b"\n", 1)[0].decode(errors="replace").strip() != header:
        return failures + [f"sample.csv header is not {header}"], digest
    try:
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return failures + [f"unreadable sample.csv: {exc}"], digest
    if data.shape != (n, d + 1) or not np.array_equal(data[:, 0], np.arange(n)):
        return failures + [f"sample.csv has shape {data.shape} or bad traj_id, expected {n} rows 0..{n - 1}"], digest
    if not np.all(np.isfinite(data)):
        return failures + ["sample.csv has non-finite values"], digest

    mean, cov = law
    x = data[:, 1:]
    w2 = w2_gaussian(x.mean(axis=0), np.cov(x, rowvar=False), mean, cov)
    limit = SAMPLING_FACTOR * math.sqrt(np.trace(cov) / n)
    if not w2 <= limit:
        failures.append(f"W2(sample, exact law) {w2:.4f} > {limit:.4f}")
    if workload in ("deep", "highorder"):
        cfg = load_config(raw)
        m = cfg.problem.mean_given_endpoint(cfg.x_T)
        S = cfg.problem.cov
        w2_post = w2_gaussian(mean, cov, m, S)
        bound = C6_FACTOR * math.sqrt(np.trace(S))
        if not w2_post <= bound:
            failures.append(f"W2(exact law, N(m, S)) {w2_post:.4f} > C6 bound {bound:.4f}")
    return failures, digest
