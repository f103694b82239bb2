"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  The checks verify the mathematical claims
end to end on analytic Gaussian bridge problems where every marginal,
drift, and posterior is known in closed form.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import solve_ivp

from bridgekit import (
    GaussianBridgeProblem,
    GaussianOracle,
    GridKind,
    Method,
    NoiseSchedule,
    SamplerConfig,
    coeffs,
    decode,
    diversity_score,
    drift_dbim,
    drift_pfode,
    encode,
    eta_rho,
    fit_order,
    forward_sample,
    inference_kernel_mean_var,
    make_grid,
    markov_x0_coefficient,
    run_sampler,
    sample_batch,
    simulate_inference_chain,
    slerp_interpolate,
    wasserstein2_gaussian,
)
from bridgekit.cli import main as cli_main

BB = NoiseSchedule.brownian_bridge(1.0, 1.0)
VP = NoiseSchedule.vp(0.1, 20.0, 1.0)

PROB_1D = GaussianBridgeProblem(mix=np.array([[0.3]]), offset=np.array([0.2]), cov=np.array([[2.0]]))
PROB_2D = GaussianBridgeProblem(
    mix=np.array([[0.2, 0.0], [0.1, 0.3]]),
    offset=np.array([0.4, -0.2]),
    cov=np.array([[1.0, 0.3], [0.3, 0.5]]),
)
XT_2D = np.array([1.0, -0.5])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def interior_grid(n: int) -> "TimeGrid":
    return make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, n, t_min=0.05, t_max=1.0, boot_gap=0.05)


def test_c1_drift_equivalence():
    """Both drift assemblies agree to 1e-9 over 1000 random points per schedule."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for sch in (VP, BB):
        oracle = GaussianOracle(PROB_1D, sch)
        pts = []
        for _ in range(1000):
            t = float(rng.uniform(0.01, 0.99))
            x = rng.standard_normal(1) * 2.0
            xT = rng.standard_normal(1) * 2.0
            pts.append((drift_dbim(sch, oracle, x, t, xT), drift_pfode(sch, oracle, x, t, xT)))
        scale = max(max(np.max(np.abs(a)), np.max(np.abs(b))) for a, b in pts)
        # near zero-crossings of the drift the pointwise quotient is floored
        # at 1e-4 of the sample-set drift scale
        for a, b in pts:
            denom = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-4 * scale)
            worst = max(worst, float(np.max(np.abs(a - b))) / denom)
    elapsed = time.time() - start
    report(
        "C1 drift-equivalence",
        worst <= 1e-9 and elapsed < 5.0,
        f"max rel dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_c2_marginal_preservation():
    """Inference chains with the true x0 keep the bridge marginals at every time."""
    start = time.time()
    rng = np.random.default_rng(102)
    x0 = PROB_2D.sample_x0(XT_2D, 1, rng)[0]
    grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 8)
    n = 10 ** 5
    worst_z = 0.0
    worst_var = 0.0
    for eta in (0.0, 0.5, 1.0):
        states = simulate_inference_chain(BB, grid, eta, x0, XT_2D, n, np.random.default_rng(500))
        for t, batch in states.items():
            k = coeffs(BB, t)
            mean = k.a * XT_2D + k.b * x0
            z = np.abs(batch.mean(axis=0) - mean) / (k.c / math.sqrt(n))
            var_dev = np.abs(batch.var(axis=0, ddof=1) - k.c * k.c) / (k.c * k.c)
            worst_z = max(worst_z, float(z.max()))
            worst_var = max(worst_var, float(var_dev.max()))
    elapsed = time.time() - start
    report(
        "C2 marginal-preservation",
        worst_z <= 4.0 and worst_var <= 0.03 and elapsed < 60.0,
        f"max|z| {worst_z:.2f}, max var dev {worst_var:.3%}, {elapsed:.1f}s",
    )


def test_c3_markov_boundary():
    """The x0 coefficient vanishes exactly at the Markovian variance and only there."""
    rng = np.random.default_rng(103)
    worst_at_one = 0.0
    smallest_at_half = math.inf
    for _ in range(20):
        t_n = float(rng.uniform(0.05, 0.7))
        t_m = float(rng.uniform(t_n + 0.05, 0.95))
        rho1 = eta_rho(BB, t_n, t_m, 1.0)
        worst_at_one = max(worst_at_one, abs(markov_x0_coefficient(BB, rho1, t_n, t_m)))
        smallest_at_half = min(
            smallest_at_half, abs(markov_x0_coefficient(BB, 0.5 * rho1, t_n, t_m))
        )
    report(
        "C3 markov-boundary",
        worst_at_one <= 1e-12 and smallest_at_half > 1e-3,
        f"eta=1 max {worst_at_one:.2e}, eta=0.5 min {smallest_at_half:.2e}",
    )


def _ode_reference(sch, oracle, grid, boot_state, xT):
    # independent reference: adaptive high-order integration of the flow ODE
    # assembled in its score form
    sol = solve_ivp(
        lambda t, y: drift_pfode(sch, oracle, y, t, xT),
        (grid.times[grid.n_steps - 1], grid.times[0]),
        boot_state, rtol=1e-12, atol=1e-14, method="DOP853",
    )
    return sol.y[:, -1]


def test_c4_convergence_orders():
    """First-order slope 1.0 +/- 0.2, second 2.0 +/- 0.3, third >= 2.5."""
    start = time.time()
    oracle = GaussianOracle(PROB_1D, VP)
    xT = np.array([1.5])
    ns = [8, 16, 32, 64, 128]
    seeds = [7, 11, 13]
    slopes = {}
    for method in (Method.DBIM1, Method.DBIM2, Method.DBIM3):
        errs = []
        for n in ns:
            total = 0.0
            for seed in seeds:
                grid = interior_grid(n)
                traj = run_sampler(SamplerConfig(method, grid, seed), VP, oracle, xT)
                ref = _ode_reference(VP, oracle, grid, traj.states[1][1], xT)
                total += float(np.abs(traj.terminal - ref)[0])
            errs.append(total / len(seeds))
        slopes[method] = fit_order(ns, errs)
    elapsed = time.time() - start
    ok = (
        abs(slopes[Method.DBIM1] - 1.0) <= 0.2
        and abs(slopes[Method.DBIM2] - 2.0) <= 0.3
        and slopes[Method.DBIM3] >= 2.5
        and elapsed < 30.0
    )
    report(
        "C4 convergence-orders",
        ok,
        f"slopes {slopes[Method.DBIM1]:.2f}/{slopes[Method.DBIM2]:.2f}/{slopes[Method.DBIM3]:.2f}, {elapsed:.1f}s",
    )


def test_c5_euler_discretization():
    """Explicit Euler on the flow ODE approaches the implicit sampler at rate 1/N."""
    oracle = GaussianOracle(PROB_1D, VP)
    xT = np.array([1.5])
    ns = [8, 16, 32, 64, 128]
    diffs = []
    for n in ns:
        grid = interior_grid(n)
        a = run_sampler(SamplerConfig(Method.DBIM1, grid, 3), VP, oracle, xT)
        b = run_sampler(SamplerConfig(Method.PF_ODE_EULER, grid, 3), VP, oracle, xT)
        assert np.array_equal(a.boot_noise, b.boot_noise)
        diffs.append(float(np.abs(a.terminal - b.terminal)[0]))
    slope = fit_order(ns, diffs)
    report(
        "C5 euler-discretization",
        abs(slope - 1.0) <= 0.2,
        f"difference slope {slope:.2f}, diffs {diffs[0]:.2e}..{diffs[-1]:.2e}",
    )


def test_c6_terminal_posterior():
    """Terminal samples match the analytic conditional N(m, S) in Wasserstein-2."""
    oracle = GaussianOracle(PROB_2D, BB)
    m = PROB_2D.mean_given_endpoint(XT_2D)
    S = PROB_2D.cov
    bound = 0.03 * math.sqrt(np.trace(S))
    results = []
    for method, n_steps, eta in (
        (Method.DBIM1, 400, 0.0),
        (Method.DBIM1, 400, 1.0),
        (Method.SDE_EULER_MARUYAMA, 2000, 0.0),
    ):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, n_steps)
        cfg = SamplerConfig(method, grid, seed=99, eta=eta)
        terminal, _, _ = sample_batch(cfg, BB, oracle, XT_2D, 10 ** 4)
        w2 = wasserstein2_gaussian(
            terminal.mean(axis=0), np.cov(terminal, rowvar=False), m, S
        )
        results.append((f"{method.value}(eta={eta})", w2))
    ok = all(w2 <= bound for _, w2 in results)
    detail = ", ".join(f"{name} W2={w2:.4f}" for name, w2 in results) + f", bound {bound:.4f}"
    report("C6 terminal-posterior", ok, detail)


def test_c7_roundtrip():
    """Encode/decode is an inverse pair; latent interpolation hits its endpoints."""
    oracle = GaussianOracle(PROB_2D, BB)
    grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 1000)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(5):
        x0 = PROB_2D.sample_x0(XT_2D, 1, rng)[0]
        eps = encode(BB, oracle, x0, XT_2D, grid)
        rec = decode(BB, oracle, eps, XT_2D, grid)
        worst = max(worst, float(np.linalg.norm(rec - x0) / max(np.linalg.norm(x0), 1.0)))
    eps_a = rng.standard_normal(2)
    eps_b = rng.standard_normal(2)
    da = decode(BB, oracle, eps_a, XT_2D, grid)
    db = decode(BB, oracle, eps_b, XT_2D, grid)
    ends_exact = np.array_equal(
        decode(BB, oracle, slerp_interpolate(eps_a, eps_b, 0.0), XT_2D, grid), da
    ) and np.array_equal(
        decode(BB, oracle, slerp_interpolate(eps_a, eps_b, 1.0), XT_2D, grid), db
    )
    report(
        "C7 roundtrip",
        worst <= 1e-6 and ends_exact,
        f"max recon rel err {worst:.2e}, slerp endpoints exact: {ends_exact}",
    )


def test_c8_limits():
    """Vanishing endpoint coupling recovers the plain implicit diffusion step;
    a vanishing-noise linear bridge recovers the straight-interpolation step."""
    # endpoint coupling SNR_T/SNR_t below 1e-8: step coefficients match the
    # (sigma_s/sigma_t, alpha_s - sigma_s alpha_t/sigma_t) pair to 1e-6
    sch = NoiseSchedule.vp(2.0, 2.0, 20.0)
    t, s = 0.5, 0.3
    assert sch.snr(sch.horizon) / sch.snr(t) <= 1e-8
    kt, ks = coeffs(sch, t), coeffs(sch, s)
    x_coef = ks.c / kt.c
    xh_coef = ks.b - x_coef * kt.b
    xT_coef = ks.a - x_coef * kt.a
    plain_x = sch.sigma(s) / sch.sigma(t)
    plain_xh = sch.alpha(s) - sch.sigma(s) * sch.alpha(t) / sch.sigma(t)
    coef_scale = abs(plain_x) + abs(plain_xh)
    plain_dev = max(
        abs(x_coef - plain_x) / abs(plain_x),
        abs(xh_coef - plain_xh) / abs(plain_xh),
        abs(xT_coef) / coef_scale,
    )

    # nearly-noiseless linear bridge: the fully stochastic step collapses to
    # x_s = s x_T + (1 - s) x_hat to 1e-4 relative
    schb = NoiseSchedule.brownian_bridge(1e-8, 1.0)
    prob = GaussianBridgeProblem.scalar(0.0, 0.3, 0.5)
    oracle = GaussianOracle(prob, schb)
    rng = np.random.default_rng(108)
    xT = np.array([1.0])
    t, s = 0.6, 0.4
    fm_dev = 0.0
    for _ in range(10):
        x0 = prob.sample_x0(xT, 1, rng)[0]
        x_t = forward_sample(schb, x0, xT, t, rng.standard_normal(1))
        x_hat = oracle.predict(x_t, t, xT)
        rho = eta_rho(schb, s, t, 1.0)
        stepped = inference_kernel_mean_var(schb, rho, x_hat, x_t, xT, s, t)[0]
        target = s * xT + (1.0 - s) * x_hat
        scale = max(float(np.linalg.norm(target)), 1.0)
        fm_dev = max(fm_dev, float(np.linalg.norm(stepped - target)) / scale)
        assert rho <= 1e-4 * scale
    report(
        "C8 limits",
        plain_dev <= 1e-6 and fm_dev <= 1e-4,
        f"implicit-diffusion coef dev {plain_dev:.2e}, linear-bridge step dev {fm_dev:.2e}",
    )


def test_c9_diversity_trend():
    """Deterministic-sampler diversity grows with step count and converges to
    the analytic posterior spread."""
    oracle = GaussianOracle(PROB_2D, BB)
    target = float(np.sqrt(np.diag(PROB_2D.cov)).mean())
    rng = np.random.default_rng(109)
    conditions = rng.standard_normal((16, 2))
    per_condition = 100

    def mean_score(n_steps):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, n_steps)
        scores = []
        for j, xT in enumerate(conditions):
            cfg = SamplerConfig(Method.DBIM1, grid, seed=1000 + j, eta=0.0)
            terminal, _, _ = sample_batch(cfg, BB, oracle, xT, per_condition)
            scores.append(diversity_score(terminal))
        return float(np.mean(scores))

    trend = [mean_score(n) for n in (5, 10, 20, 50)]
    final = mean_score(200)
    monotone = all(a < b for a, b in zip(trend, trend[1:]))
    converged = abs(final - target) <= 0.05 * target
    report(
        "C9 diversity-trend",
        monotone and converged,
        f"scores {['%.3f' % s for s in trend]} -> {final:.3f}, target {target:.3f}",
    )


def test_c10_determinism_and_threads(tmp_path):
    """Identical seeds give byte-identical CSVs on reruns and with ``--threads`` 1 and 8.

    The engine runs on the calling thread, so ``--threads`` is accepted and ignored.
    """
    cfg = {
        "schedule": {"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0},
        "problem": {
            "mix": [[0.2, 0.0], [0.1, 0.3]],
            "offset": [0.4, -0.2],
            "cov": [[1.0, 0.3], [0.3, 0.5]],
            "x_T": [1.0, -0.5],
        },
        "grid": {"kind": "uniform_boot", "n_steps": 12},
        "sampler": {"method": "dbim1", "eta": 0.7},
        "experiment": "sample",
        "seed": 424242,
        "n_trajectories": 1000,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "t8"), "--threads", "8"]) == 0
    b1 = (tmp_path / "t1" / "sample.csv").read_bytes()
    b8 = (tmp_path / "t8" / "sample.csv").read_bytes()
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "r"), "--threads", "1"]) == 0
    rerun = (tmp_path / "r" / "sample.csv").read_bytes()
    report(
        "C10 determinism-threads",
        b1 == b8 and b1 == rerun,
        f"csv bytes equal across thread counts and reruns: {b1 == b8 and b1 == rerun}",
    )
