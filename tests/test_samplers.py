"""Sampler tests: boot step, implicit updates, solvers, drifts, baselines, encoding."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from bridgekit import samplers
from bridgekit import (
    GaussianBridgeProblem,
    GaussianOracle,
    GridKind,
    Method,
    NoiseSchedule,
    SamplerConfig,
    TimeGrid,
    coeffs,
    decode,
    drift_dbim,
    drift_pfode,
    encode,
    fit_order,
    inference_kernel_mean_var,
    make_grid,
    make_rhos,
    marginal_at,
    run_sampler,
    sample_batch,
    simulate_inference_chain,
    slerp_interpolate,
    taylor_integral,
)
from bridgekit.errors import (
    BridgekitError,
    DegenerateCoefficient,
    DimensionMismatch,
    InitialStepSingularity,
    InvalidGridParams,
    NonpositiveStep,
    SingularSystem,
    ZeroVector,
)

BB = NoiseSchedule.brownian_bridge(1.0, 1.0)
VP = NoiseSchedule.vp(0.1, 20.0, 1.0)

PROB1 = GaussianBridgeProblem(mix=np.array([[0.3]]), offset=np.array([0.2]), cov=np.array([[1.0]]))
ORACLE1 = GaussianOracle(PROB1, BB)


class CountingOracle:
    """Wraps a predictor and counts evaluations."""

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def predict(self, x, t, xT):
        self.calls += 1
        return self.base.predict(x, t, xT)

    def linearize(self, t, xT):
        return self.base.linearize(t, xT)


class ConstantPredictor:
    """Returns a fixed vector regardless of the state."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def predict(self, x, t, xT):
        return np.broadcast_to(self.value, np.shape(x)).copy()


def grid_of(n, t_min=0.05, gap=0.05, t_max=1.0, kind=GridKind.UNIFORM_WITH_BOOT_STEP):
    return make_grid(kind, n, t_min=t_min, t_max=t_max, boot_gap=gap)


# a boot from a chosen noise is decode on the one-step grid (0.9, T)
BOOT_GRID = TimeGrid((0.9, 1.0))


class TestBootStep:
    def test_zero_noise_lands_on_prior_mean_line(self):
        xT = np.array([1.5])
        out = decode(BB, ORACLE1, np.zeros(1), xT, BOOT_GRID)
        k = coeffs(BB, 0.9)
        m = PROB1.mean_given_endpoint(xT)
        assert np.array_equal(out, k.a * xT + k.b * m)

    def test_hand_value(self):
        # a=0.9, b=0.1, c=0.3 at t=0.9; m(1.5) = 0.65; eps = 0.4
        out = decode(BB, ORACLE1, np.array([0.4]), np.array([1.5]), BOOT_GRID)
        np.testing.assert_allclose(out, [1.535], rtol=1e-13)

    def test_matches_forward_kernel_with_exact_data(self):
        # substituting the true x0 for the prediction reproduces the kernel draw
        xT = np.array([1.5])
        x0 = PROB1.mean_given_endpoint(xT)
        eps = np.array([0.7])
        k = coeffs(BB, 0.9)
        assert np.array_equal(decode(BB, ORACLE1, eps, xT, BOOT_GRID), k.a * xT + k.b * x0 + k.c * eps)

    def test_rejects_target_at_horizon(self):
        with pytest.raises(InvalidGridParams):
            decode(BB, ORACLE1, np.zeros(1), np.array([1.0]), TimeGrid((1.0, 1.0)))


class TestDbimStep:
    # one dbim1 update is the inference-kernel mean with x_hat in place of x0, plus rho eps
    def test_full_variance_cancels_residual(self):
        kn = coeffs(BB, 0.3)
        x_next, xT, x_hat, eps = np.array([9.0]), np.array([1.2]), np.array([0.4]), np.array([0.7])
        out = inference_kernel_mean_var(BB, kn.c, x_hat, x_next, xT, 0.3, 0.6)[0] + kn.c * eps
        np.testing.assert_allclose(out, kn.a * xT + kn.b * x_hat + kn.c * eps, rtol=1e-12)

    def test_deterministic_step_stays_on_bridge_line(self):
        kn, km = coeffs(BB, 0.3), coeffs(BB, 0.6)
        xT, x0 = np.array([1.2]), np.array([0.4])
        x_next = km.a * xT + km.b * x0
        out = inference_kernel_mean_var(BB, 0.0, x0, x_next, xT, 0.3, 0.6)[0]
        np.testing.assert_allclose(out, kn.a * xT + kn.b * x0, rtol=1e-12)

    def test_hand_value_half_eta(self):
        # 50-digit substitution, t 0.6 -> 0.3, eta = 0.5 variance
        from bridgekit import eta_rho

        rho = eta_rho(BB, 0.3, 0.6, 0.5)
        mean = inference_kernel_mean_var(
            BB, rho, np.array([0.4]), np.array([0.9]), np.array([1.2]), 0.3, 0.6
        )[0]
        np.testing.assert_allclose(mean + rho * np.array([0.7]), [0.79251024207507276133], rtol=1e-13)

    def test_initial_step_singularity(self):
        with pytest.raises(InitialStepSingularity):
            inference_kernel_mean_var(BB, 0.0, np.zeros(1), np.zeros(1), np.zeros(1), 0.9, 1.0)

    def test_rho_cannot_exceed_c(self):
        with pytest.raises(InvalidGridParams):
            inference_kernel_mean_var(BB, 5.0, np.zeros(1), np.zeros(1), np.zeros(1), 0.3, 0.6)


class TestRunDbim1:
    def test_single_step_run_is_boot_only(self):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 1, t_min=0.9, t_max=1.0, boot_gap=0.1)
        cfg = SamplerConfig(Method.DBIM1, grid, seed=5)
        traj = run_sampler(cfg, BB, ORACLE1, np.array([1.0]))
        assert len(traj.states) == 2
        expected = decode(BB, ORACLE1, traj.boot_noise, np.array([1.0]), BOOT_GRID)
        assert np.array_equal(traj.terminal, expected)

    def test_predictor_called_once_per_step(self):
        counting = CountingOracle(ORACLE1)
        grid = grid_of(9)
        cfg = SamplerConfig(Method.DBIM1, grid, seed=5, eta=0.5)
        traj = run_sampler(cfg, BB, counting, np.array([1.0]))
        assert counting.calls == 9
        assert traj.predictor_calls == 9

    def test_times_match_grid(self):
        grid = grid_of(6)
        traj = run_sampler(SamplerConfig(Method.DBIM1, grid, seed=1), BB, ORACLE1, np.array([1.0]))
        assert [t for t, _ in traj.states] == list(reversed(grid.times))

    def test_deterministic_map_is_affine_in_boot_noise(self):
        # three collinear noises give collinear terminals
        grid = grid_of(20)
        xT = np.array([0.8, -0.2])
        prob = GaussianBridgeProblem(
            mix=0.2 * np.eye(2), offset=np.array([0.3, 0.1]), cov=np.array([[1.0, 0.2], [0.2, 0.5]])
        )
        oracle = GaussianOracle(prob, BB)
        e0 = np.array([0.5, -1.0])
        e1 = np.array([-0.7, 0.4])
        mid = 0.5 * (e0 + e1)
        y0 = decode(BB, oracle, e0, xT, grid)
        y1 = decode(BB, oracle, e1, xT, grid)
        ym = decode(BB, oracle, mid, xT, grid)
        np.testing.assert_allclose(ym, 0.5 * (y0 + y1), rtol=1e-10, atol=1e-12)

    def test_terminal_moments_match_marginal(self):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 400, t_min=1e-4, boot_gap=1e-4)
        xT = np.array([1.0])
        cfg = SamplerConfig(Method.DBIM1, grid, seed=123, eta=0.0)
        n = 10 ** 4
        terminal, _, _ = sample_batch(cfg, BB, ORACLE1, xT, n)
        mean, cov = marginal_at(PROB1, BB, grid.times[0], xT)
        se = math.sqrt(cov[0, 0] / n)
        assert abs(terminal.mean() - mean[0]) <= 4 * se
        assert abs(terminal.var(ddof=1) - cov[0, 0]) <= 4 * cov[0, 0] * math.sqrt(2.0 / n)

    def test_bitwise_determinism(self):
        grid = grid_of(12)
        cfg = SamplerConfig(Method.DBIM1, grid, seed=999, eta=0.7)
        a = run_sampler(cfg, BB, ORACLE1, np.array([1.0]))
        b = run_sampler(cfg, BB, ORACLE1, np.array([1.0]))
        assert np.array_equal(a.boot_noise, b.boot_noise)
        for (ta, xa), (tb, xb) in zip(a.states, b.states):
            assert ta == tb and np.array_equal(xa, xb)

    @pytest.mark.parametrize("method", [m for m in Method if m is not Method.DBIM1], ids=lambda m: m.value)
    def test_eta_rejected_for_non_dbim1(self, method):
        # eta indexes the dbim1 family only; 0 stays valid for every method
        SamplerConfig(method, grid_of(4), seed=0, eta=0.0)
        with pytest.raises(InvalidGridParams, match="dbim1 only"):
            SamplerConfig(method, grid_of(4), seed=0, eta=0.5)

    def test_order_validation(self):
        with pytest.raises(InvalidGridParams):
            SamplerConfig(Method.DBIM3, make_grid(
                GridKind.UNIFORM_WITH_BOOT_STEP, 2, t_min=0.4, t_max=1.0, boot_gap=0.1
            ), seed=0)


class TestTaylorIntegral:
    def test_reduces_to_first_order_without_derivatives(self):
        lam_s, lam_t = 0.8, 0.1
        x_hat = np.array([1.3])
        out = taylor_integral(lam_s, lam_t, x_hat, np.zeros(1))
        expect = math.exp(lam_s) * (1.0 - math.exp(-(lam_s - lam_t))) * x_hat
        np.testing.assert_allclose(out, expect, rtol=1e-14)

    def test_linear_integrand_exact_vs_quadrature(self):
        lam_t, lam_s = -0.4, 1.1
        out = taylor_integral(lam_s, lam_t, np.array([lam_t]), np.array([1.0]))
        expect, _ = quad(lambda lam: math.exp(lam) * lam, lam_t, lam_s, epsabs=1e-13)
        np.testing.assert_allclose(out, [expect], rtol=1e-10)

    def test_quadratic_integrand_exact_vs_quadrature(self):
        lam_t, lam_s = -0.3, 0.9

        def f(lam):
            return 0.5 * (lam - lam_t) ** 2 + 2.0 * (lam - lam_t) + 0.7

        out = taylor_integral(lam_s, lam_t, np.array([0.7]), np.array([2.0]), np.array([1.0]))
        expect, _ = quad(lambda lam: math.exp(lam) * f(lam), lam_t, lam_s, epsabs=1e-13)
        np.testing.assert_allclose(out, [expect], rtol=1e-10)

    def test_small_step_series_weights(self):
        # series branch below h = 1e-4 against 50-digit direct evaluation,
        # where the naive float expressions lose most of their digits
        from bridgekit.samplers import _phi2, _phi3

        np.testing.assert_allclose(_phi2(5e-5), 1.2499791669270807292e-9, rtol=1e-13)
        np.testing.assert_allclose(_phi3(5e-5), 2.0833072919270811632e-14, rtol=1e-13)
        np.testing.assert_allclose(_phi2(9.9e-5), 4.9003382875024041271e-9, rtol=1e-13)
        np.testing.assert_allclose(_phi3(9.9e-5), 1.6171249759587286323e-13, rtol=1e-13)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(NonpositiveStep):
            taylor_integral(0.1, 0.5, np.zeros(1), np.zeros(1))


class TestRunDbimHigh:
    def test_constant_predictor_orders_agree(self):
        # zero-variance pairing: all derivative estimates vanish, every order
        # reproduces the first-order trajectory exactly
        prob = GaussianBridgeProblem(
            mix=np.array([[0.5]]), offset=np.array([0.1]), cov=np.array([[0.0]])
        )
        oracle = GaussianOracle(prob, BB)
        grid = grid_of(8)
        xT = np.array([2.0])
        outs = []
        for method in (Method.DBIM1, Method.DBIM2, Method.DBIM3):
            cfg = SamplerConfig(method, grid, seed=42)
            outs.append(run_sampler(cfg, BB, oracle, xT).terminal)
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(outs[0], outs[2], rtol=1e-9, atol=1e-12)

    def test_one_predictor_call_per_step(self):
        for method, n in ((Method.DBIM2, 7), (Method.DBIM3, 7)):
            counting = CountingOracle(ORACLE1)
            cfg = SamplerConfig(method, grid_of(n), seed=3)
            traj = run_sampler(cfg, BB, counting, np.array([1.0]))
            assert counting.calls == n
            assert traj.predictor_calls == n

    def test_orders_against_dense_first_order_reference(self):
        # reference run: first order, 1e4 steps, same boot noise
        sch = VP
        prob = GaussianBridgeProblem(
            mix=np.array([[0.3]]), offset=np.array([0.2]), cov=np.array([[2.0]])
        )
        oracle = GaussianOracle(prob, sch)
        xT = np.array([1.5])

        def terminal(method, n):
            cfg = SamplerConfig(method, grid_of(n), seed=7)
            return run_sampler(cfg, sch, oracle, xT).terminal

        ref = terminal(Method.DBIM1, 10 ** 4)
        ns = [8, 16, 32, 64, 128]
        errs1 = [float(np.abs(terminal(Method.DBIM1, n) - ref)[0]) for n in ns]
        errs2 = [float(np.abs(terminal(Method.DBIM2, n) - ref)[0]) for n in ns]
        assert abs(fit_order(ns, errs1) - 1.0) <= 0.2
        assert abs(fit_order(ns, errs2) - 2.0) <= 0.3


class TestDrifts:
    def test_equivalence_on_random_points(self):
        rng = np.random.default_rng(20)
        for sch in (BB, VP):
            prob = GaussianBridgeProblem(
                mix=np.array([[0.3]]), offset=np.array([0.2]), cov=np.array([[0.8]])
            )
            oracle = GaussianOracle(prob, sch)
            pts = []
            for _ in range(1000):
                t = float(rng.uniform(0.01, 0.99))
                x = rng.standard_normal(1) * 2
                xT = rng.standard_normal(1) * 2
                pts.append((drift_dbim(sch, oracle, x, t, xT), drift_pfode(sch, oracle, x, t, xT)))
            scale = max(max(np.max(np.abs(a)), np.max(np.abs(b))) for a, b in pts)
            worst = max(
                float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-4 * scale))
                for a, b in pts
            )
            assert worst <= 1e-9

    @pytest.mark.parametrize("drift", [drift_dbim, drift_pfode])
    def test_undefined_at_the_horizon(self, drift):
        with pytest.raises(DegenerateCoefficient, match="c=0"):
            drift(BB, ORACLE1, np.array([0.5]), 1.0, np.array([1.0]))

    def test_drift_keeps_mean_trajectory(self):
        # at the marginal mean with the exact predictor the drift equals the
        # time derivative of t -> a_t x_T + b_t m (central differences)
        xT = np.array([1.2])
        m = PROB1.mean_given_endpoint(xT)
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            k = coeffs(BB, t)
            x = k.a * xT + k.b * m
            v = drift_dbim(BB, ORACLE1, x, t, xT)
            kp, km_ = coeffs(BB, t + h), coeffs(BB, t - h)
            num = ((kp.a - km_.a) * xT + (kp.b - km_.b) * m) / (2 * h)
            np.testing.assert_allclose(v, num, rtol=1e-6)

    def test_pfode_spot_value(self):
        # hand assembly on the Brownian schedule with a stubbed prediction
        stub = ConstantPredictor([0.5])
        v = drift_pfode(BB, stub, np.array([0.7]), 0.4, np.array([1.2]))
        np.testing.assert_allclose(v, [0.66666666666666666667], rtol=1e-12)
        v2 = drift_dbim(BB, stub, np.array([0.7]), 0.4, np.array([1.2]))
        np.testing.assert_allclose(v2, v, rtol=1e-11)

    def test_affine_in_inputs(self):
        # drift coefficients match the closed forms directly
        t = 0.37
        k = coeffs(BB, t)
        g2 = BB.g2(t)
        half = g2 / (2 * k.c * k.c)
        c_ratio = BB.f(t) + g2 / BB.sigma2(t) - half
        stub = ConstantPredictor([0.0])
        x, xT = np.array([1.0]), np.array([0.0])
        np.testing.assert_allclose(drift_dbim(BB, stub, x, t, xT), [c_ratio], rtol=1e-12)
        np.testing.assert_allclose(
            drift_dbim(BB, stub, np.zeros(1), t, np.ones(1)), [half * k.a], rtol=1e-12
        )


class TestBaselines:
    def test_heun_single_step_is_euler_plus_corrector(self):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 2, t_min=0.4, t_max=1.0, boot_gap=0.1)
        xT = np.array([1.0])
        cfg = SamplerConfig(Method.PF_ODE_HEUN, grid, seed=8)
        traj = run_sampler(cfg, BB, ORACLE1, xT)
        x1 = traj.states[1][1]
        t_hi, t_lo = grid.times[1], grid.times[0]
        dt = t_lo - t_hi
        v1 = drift_pfode(BB, ORACLE1, x1, t_hi, xT)
        pred = x1 + dt * v1
        v2 = drift_pfode(BB, ORACLE1, pred, t_lo, xT)
        np.testing.assert_allclose(traj.terminal, x1 + 0.5 * dt * (v1 + v2), rtol=1e-13)

    def test_heun_costs_two_calls_per_step(self):
        counting = CountingOracle(ORACLE1)
        cfg = SamplerConfig(Method.PF_ODE_HEUN, grid_of(6), seed=8)
        traj = run_sampler(cfg, BB, counting, np.array([1.0]))
        assert counting.calls == 1 + 2 * 5
        assert traj.predictor_calls == 11

    def test_euler_approaches_deterministic_implicit_sampler(self):
        xT = np.array([1.0])
        diffs = []
        for n in (16, 64, 256):
            grid = grid_of(n)
            a = run_sampler(SamplerConfig(Method.DBIM1, grid, seed=3), BB, ORACLE1, xT)
            b = run_sampler(SamplerConfig(Method.PF_ODE_EULER, grid, seed=3), BB, ORACLE1, xT)
            assert np.array_equal(a.boot_noise, b.boot_noise)
            diffs.append(float(np.abs(a.terminal - b.terminal)[0]))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] <= diffs[0] * (16 / 256) * 3.0

    def test_em_terminal_moments(self):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 500, t_min=1e-4, boot_gap=1e-4)
        xT = np.array([1.0])
        cfg = SamplerConfig(Method.SDE_EULER_MARUYAMA, grid, seed=31)
        n = 4000
        terminal, _, _ = sample_batch(cfg, BB, ORACLE1, xT, n)
        mean, cov = marginal_at(PROB1, BB, grid.times[0], xT)
        se = math.sqrt(cov[0, 0] / n)
        assert abs(terminal.mean() - mean[0]) <= 5 * se
        np.testing.assert_allclose(terminal.var(ddof=1), cov[0, 0], rtol=0.1)


class PreparingOracle(CountingOracle):
    """A CountingOracle that also has the ``prepare`` hook and records its calls."""

    def __init__(self, base):
        super().__init__(base)
        self.prepared = []

    def prepare(self, table):
        self.prepared.append(table.times)
        self.base.prepare(table)


class TestPrepareHook:
    PROB2 = GaussianBridgeProblem(
        mix=np.array([[0.2, 0.0], [0.1, 0.3]]), offset=np.array([0.4, -0.2]),
        cov=np.array([[1.0, 0.3], [0.3, 0.5]]),
    )

    @pytest.mark.parametrize("method", list(Method))
    def test_hook_changes_neither_bytes_nor_call_count(self, method):
        grid = grid_of(12, t_min=1e-3, gap=1e-3)
        cfg = SamplerConfig(method, grid, seed=5, eta=0.5 if method is Method.DBIM1 else 0.0)
        xT = np.array([1.0, -0.5])
        hooked = PreparingOracle(GaussianOracle(self.PROB2, VP))
        plain = CountingOracle(GaussianOracle(self.PROB2, VP))
        # 300 rows: two noise chunks
        got = sample_batch(cfg, VP, hooked, xT, 300)
        want = sample_batch(cfg, VP, plain, xT, 300)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        expected_calls = 1 + 2 * 11 if method is Method.PF_ODE_HEUN else 12
        assert got[2] == want[2] == hooked.calls == plain.calls == expected_calls
        assert hooked.prepared == [grid.times]

    def test_encode_prepares_its_grid(self):
        grid = grid_of(20, t_min=1e-3, gap=1e-3)
        xT = np.array([1.0, -0.5])
        hooked = PreparingOracle(GaussianOracle(self.PROB2, VP))
        plain = CountingOracle(GaussianOracle(self.PROB2, VP))
        x0 = self.PROB2.mean_given_endpoint(xT) + np.array([0.3, -0.1])
        assert encode(VP, hooked, x0, xT, grid).tobytes() == encode(VP, plain, x0, xT, grid).tobytes()
        assert hooked.prepared == [grid.times]


class TestEncodeDecode:
    def test_roundtrip_identity(self):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 1000, t_min=1e-4, boot_gap=1e-4)
        xT = np.array([1.0])
        rng = np.random.default_rng(40)
        for _ in range(3):
            x0 = PROB1.sample_x0(xT, 1, rng)[0]
            eps = encode(BB, ORACLE1, x0, xT, grid)
            rec = decode(BB, ORACLE1, eps, xT, grid)
            assert np.linalg.norm(rec - x0) <= 1e-8 * max(1.0, np.linalg.norm(x0))

    def test_encode_inverts_decode(self):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 200, t_min=1e-4, boot_gap=1e-4)
        xT = np.array([0.5])
        eps = np.array([0.37])
        x0 = decode(BB, ORACLE1, eps, xT, grid)
        back = encode(BB, ORACLE1, x0, xT, grid)
        np.testing.assert_allclose(back, eps, rtol=1e-8, atol=1e-10)

    def test_degenerate_problem_consistency_check(self):
        # zero-variance pairing: encode inverts the recursion for any finite
        # x0, on the support m(x_T) and off it
        prob = GaussianBridgeProblem(
            mix=np.array([[0.5]]), offset=np.array([0.1]), cov=np.array([[0.0]])
        )
        oracle = GaussianOracle(prob, BB)
        grid = grid_of(50)
        xT = np.array([2.0])
        m = prob.mean_given_endpoint(xT)
        for x0 in (m, m + 1.0):
            rec = decode(BB, oracle, encode(BB, oracle, x0, xT, grid), xT, grid)
            assert np.linalg.norm(rec - x0) <= 1e-12 * np.linalg.norm(x0)

    @pytest.mark.parametrize("n_steps", [12, 50, 200])
    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("schedule", [BB, VP, NoiseSchedule.ve()], ids=["bb", "vp", "ve"])
    def test_batch_encode_matches_rows(self, schedule, d, n_steps):
        rng = np.random.default_rng(d)
        root = rng.standard_normal((d, d))
        prob = GaussianBridgeProblem(
            mix=0.3 * rng.standard_normal((d, d)), offset=rng.standard_normal(d),
            cov=root @ root.T / d + 0.5 * np.eye(d),
        )
        oracle = GaussianOracle(prob, schedule)
        grid = grid_of(n_steps, t_min=1e-3, gap=1e-3)
        xT = rng.standard_normal(d)
        m = prob.mean_given_endpoint(xT)
        for shape in ((37, d), (6, 6, d)):
            x0 = m + rng.standard_normal(shape)
            rows = np.stack([encode(schedule, oracle, row, xT, grid) for row in x0.reshape(-1, d)])
            assert encode(schedule, oracle, x0, xT, grid).tobytes() == rows.tobytes()
        # n = d, where a matrix solve would take the batch for the right-hand side
        x0 = m + rng.standard_normal((d, d))
        rec = decode(schedule, oracle, encode(schedule, oracle, x0, xT, grid), xT, grid)
        assert np.all(np.linalg.norm(rec - x0, axis=1) <= 1e-10 * np.linalg.norm(x0, axis=1))

    def test_singular_step_raises(self):
        grid = grid_of(10)
        n = 4
        table = samplers._GridCoeffs.build(BB, grid)
        kappa = table.c[n] / table.c[n + 1]
        gain = table.b[n] - kappa * table.b[n + 1]
        # step n's matrix κI + gain · P, formed as encode forms it, has a zero
        # first row: an exact zero pivot
        P = np.diag([-kappa / gain, 0.0])
        assert not (kappa * np.eye(2) + gain * P)[0].any()

        class SingularAtOneStep:
            def predict(self, x, t, xT):
                return np.zeros_like(x)

            def linearize(self, t, xT):
                return (P if t == grid.times[n + 1] else np.zeros((2, 2))), np.zeros(2)

        with pytest.raises(SingularSystem, match=f"encode step {n} -> {n + 1} is not invertible"):
            encode(BB, SingularAtOneStep(), np.ones((3, 2)), np.ones(2), grid)

    def test_encode_requires_linearize(self):
        xT = np.array([1.0])
        with pytest.raises(BridgekitError, match="linearize"):
            encode(BB, ConstantPredictor([0.2]), np.array([0.3]), xT, grid_of(4))

    def test_batch_and_threads_agree(self):
        grid = grid_of(10)
        xT = np.array([1.0, -1.0])
        prob = GaussianBridgeProblem(
            mix=0.2 * np.eye(2), offset=np.zeros(2), cov=np.eye(2)
        )
        oracle = GaussianOracle(prob, BB)
        cfg = SamplerConfig(Method.DBIM1, grid, seed=77, eta=0.6)
        t1 = sample_batch(cfg, BB, oracle, xT, 700)
        t4 = sample_batch(cfg, BB, oracle, xT, 700)
        assert np.array_equal(t1[0], t4[0])
        assert np.array_equal(t1[1], t4[1])


class TestPowerGridSampling:
    def test_all_methods_run_on_power_grid(self):
        grid = make_grid(GridKind.EDM_POWER, 12, t_min=1e-3, t_max=1.0, edm_exponent=7.0)
        xT = np.array([1.0])
        for method in Method:
            cfg = SamplerConfig(method, grid, seed=21)
            traj = run_sampler(cfg, BB, ORACLE1, xT)
            assert np.all(np.isfinite(traj.terminal))
            assert [t for t, _ in traj.states] == list(reversed(grid.times))

    def test_power_grid_terminal_moments(self):
        grid = make_grid(GridKind.EDM_POWER, 200, t_min=1e-3, t_max=1.0, edm_exponent=7.0)
        xT = np.array([1.0])
        cfg = SamplerConfig(Method.DBIM1, grid, seed=22, eta=0.0)
        n = 4000
        terminal, _, _ = sample_batch(cfg, BB, ORACLE1, xT, n)
        mean, cov = marginal_at(PROB1, BB, grid.times[0], xT)
        se = math.sqrt(cov[0, 0] / n)
        assert abs(terminal.mean() - mean[0]) <= 5 * se
        np.testing.assert_allclose(terminal.var(ddof=1), cov[0, 0], rtol=0.1)

    def test_grid_must_match_horizon(self):
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 5, t_min=0.05, t_max=0.9, boot_gap=0.05)
        cfg = SamplerConfig(Method.DBIM1, grid, seed=0)
        with pytest.raises(InvalidGridParams):
            run_sampler(cfg, BB, ORACLE1, np.array([1.0]))

    @pytest.mark.parametrize("times, message", [
        pytest.param((0.5, 0.3, 1.0), r"must strictly increase, got t_0 = 0\.5, t_1 = 0\.3$", id="unordered"),
        pytest.param((1.0, 1.0), r"must strictly increase, got t_0 = 1\.0, t_1 = 1\.0$", id="repeated"),
        pytest.param((1.0,), r"needs at least two times, got 1$", id="one_time"),
    ])
    @pytest.mark.parametrize("entry", ["sample_batch", "decode", "encode", "simulate_inference_chain"])
    def test_grid_must_strictly_increase(self, entry, times, message):
        # every such grid ends at the horizon; TimeGrid rejects it as it is built, before the entry runs
        xT = np.array([1.0])
        runs = {
            "sample_batch": lambda: sample_batch(
                SamplerConfig(Method.DBIM1, TimeGrid(times), seed=0), BB, ORACLE1, xT, 3
            ),
            "decode": lambda: decode(BB, ORACLE1, np.zeros(1), xT, TimeGrid(times)),
            "encode": lambda: encode(BB, ORACLE1, PROB1.mean_given_endpoint(xT), xT, TimeGrid(times)),
            "simulate_inference_chain": lambda: simulate_inference_chain(
                BB, TimeGrid(times), 0.0, np.zeros(1), xT, 3,
                np.random.default_rng(0),
            ),
        }
        with pytest.raises(InvalidGridParams, match=message):
            runs[entry]()


class TestNoiseProtocol:
    """The engine asks ``normals(tag, step, shape)`` for per-step noise, or gets None."""

    N = 8

    def run_recording(self, method, eta=0.0):
        calls = []

        def normals(tag, step, shape):
            calls.append((tag, step, shape))
            return np.ones(shape)

        grid = grid_of(self.N)
        samplers._run_chunk(method, grid, eta, BB, ORACLE1, np.array([1.0]), np.zeros((3, 1)), normals, False)
        return calls, make_rhos(BB, grid, eta).rhos

    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_dbim1_draws_each_step_from_the_top_down(self, eta):
        calls, rhos = self.run_recording(Method.DBIM1, eta)
        assert all(r > 0.0 for r in rhos)
        assert calls == [(samplers._STEP_TAG, i - 1, (3, 1)) for i in range(self.N - 1, 0, -1)]

    def test_deterministic_dbim1_never_draws(self):
        calls, _ = self.run_recording(Method.DBIM1, 0.0)
        assert calls == []

    def test_euler_maruyama_draws_at_the_upper_index(self):
        calls, _ = self.run_recording(Method.SDE_EULER_MARUYAMA)
        assert calls == [(samplers._STEP_TAG, i, (3, 1)) for i in range(self.N - 1, 0, -1)]

    def test_decode_runs_without_a_noise_source(self, monkeypatch):
        seen = []
        run_chunk = samplers._run_chunk

        def spy(*args):
            seen.append(args[7])
            return run_chunk(*args)

        monkeypatch.setattr(samplers, "_run_chunk", spy)
        decode(BB, ORACLE1, np.array([0.3]), np.array([1.0]), grid_of(self.N))
        assert seen == [None]


class TestSlerp:
    def test_endpoints_exact(self):
        a = np.array([0.3, -0.7, 1.1])
        b = np.array([-0.2, 0.9, 0.4])
        assert np.array_equal(slerp_interpolate(a, b, 0.0), a)
        assert np.array_equal(slerp_interpolate(a, b, 1.0), b)

    def test_orthogonal_unit_midpoint_norm(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        mid = slerp_interpolate(a, b, 0.5)
        np.testing.assert_allclose(np.linalg.norm(mid), 1.0, rtol=1e-14)

    def test_parallel_endpoints_interpolate_linearly(self):
        # θ = 0, where the slerp weights are 0/0
        a = np.array([3.0, 4.0])
        assert np.array_equal(slerp_interpolate(a, 2 * a, 0.5), 1.5 * a)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            slerp_interpolate(np.zeros(2), np.ones(2), 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            slerp_interpolate(np.ones(2), np.ones(3), 0.5)
