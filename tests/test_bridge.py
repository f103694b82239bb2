"""Non-Markovian kernel family: variance schedules, kernels, weights, marginals."""

import math

import numpy as np
import pytest

from bridgekit import (
    GridKind,
    NoiseSchedule,
    coeffs,
    eta_rho,
    forward_sample,
    inference_kernel_mean_var,
    make_grid,
    make_rhos,
    markov_x0_coefficient,
    simulate_inference_chain,
    vi_weight,
)
from bridgekit.errors import (
    DimensionMismatch,
    InitialStepSingularity,
    InvalidGridParams,
    ZeroRho,
)

BB = NoiseSchedule.brownian_bridge(1.0, 1.0)


def bb_grid(n, t_min=0.1, gap=0.1):
    return make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, n, t_min=t_min, t_max=1.0, boot_gap=gap)


class TestForwardSample:
    def test_noiseless_midpoint(self):
        out = forward_sample(BB, np.zeros(1), np.full(1, 2.0), 0.5, np.zeros(1))
        np.testing.assert_allclose(out, [1.0], rtol=1e-14)

    def test_endpoint_returns_condition(self):
        xT = np.array([1.7, -0.3])
        out = forward_sample(BB, np.array([5.0, 5.0]), xT, 1.0, np.array([9.0, -9.0]))
        np.testing.assert_allclose(out, xT, rtol=0, atol=0)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(10)
        n = 10 ** 5
        noise = rng.standard_normal((n, 1))
        out = forward_sample(BB, np.zeros((n, 1)), np.full((n, 1), 2.0), 0.5, noise)
        se = 0.5 / math.sqrt(n)
        assert abs(out.mean() - 1.0) <= 3 * se
        assert abs(out.var() - 0.25) <= 0.02 * 0.25

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            forward_sample(BB, np.zeros(2), np.zeros(3), 0.5, np.zeros(2))

    def test_broadcast_batch_equals_row_draws(self):
        rng = np.random.default_rng(11)
        x0, xT = np.array([0.3, -1.2]), np.array([1.5, 0.4])
        noise = rng.standard_normal((5, 2))
        batch = forward_sample(BB, x0, xT, 0.7, noise)
        rows = [forward_sample(BB, x0, xT, 0.7, row) for row in noise]
        assert batch.shape == (5, 2)
        assert np.array_equal(batch, np.stack(rows))


class TestVarianceSchedule:
    def test_eta_zero_is_deterministic_except_boundary(self):
        grid = bb_grid(5)
        vp = make_rhos(BB, grid, 0.0)
        assert all(r == 0.0 for r in vp.rhos[:-1])
        np.testing.assert_allclose(vp.rhos[-1], coeffs(BB, grid.times[4]).c, rtol=1e-14)

    def test_hand_value(self):
        # sigma_{0.25} sqrt(1 - SNR_{0.5}/SNR_{0.25}) = 0.5 sqrt(0.5)
        np.testing.assert_allclose(eta_rho(BB, 0.25, 0.5, 1.0), 0.5 * math.sqrt(0.5), rtol=1e-14)

    def test_eta_one_boundary_formula_coincides(self):
        # at t_{n+1} = T the eta=1 variance equals the bridge coefficient c
        for t in (0.2, 0.5, 0.9):
            np.testing.assert_allclose(eta_rho(BB, t, 1.0, 1.0), coeffs(BB, t).c, rtol=1e-13)

    def test_linear_in_eta(self):
        grid = bb_grid(6)
        base = make_rhos(BB, grid, 1.0)
        for eta in (0.25, 0.5, 0.75):
            scaled = make_rhos(BB, grid, eta)
            np.testing.assert_allclose(
                scaled.rhos[:-1], [eta * r for r in base.rhos[:-1]], rtol=1e-13
            )

    def test_eta_out_of_range(self):
        with pytest.raises(InvalidGridParams):
            make_rhos(BB, bb_grid(4), 1.5)

    def test_chain_rejects_eta_out_of_range(self):
        for eta in (-0.1, 1.5):
            with pytest.raises(InvalidGridParams, match="eta must lie in"):
                simulate_inference_chain(
                    BB, bb_grid(4), eta, np.zeros(1), np.ones(1), 3, np.random.default_rng(0)
                )


class TestInferenceKernel:
    def test_full_variance_drops_next_state(self):
        k = coeffs(BB, 0.25)
        mean, var = inference_kernel_mean_var(
            BB, k.c, np.array([0.3]), np.array([123.0]), np.array([1.5]), 0.25, 0.5
        )
        expect = k.a * 1.5 + k.b * 0.3
        np.testing.assert_allclose(mean, [expect], rtol=1e-12)
        np.testing.assert_allclose(var, k.c * k.c, rtol=1e-12)

    def test_zero_variance_on_the_bridge_line(self):
        kn, km = coeffs(BB, 0.25), coeffs(BB, 0.5)
        x0, xT = np.array([0.3]), np.array([1.5])
        x_next = km.a * xT + km.b * x0
        mean, var = inference_kernel_mean_var(BB, 0.0, x0, x_next, xT, 0.25, 0.5)
        np.testing.assert_allclose(mean, kn.a * xT + kn.b * x0, rtol=1e-12)
        assert var == 0.0

    def test_hand_value(self):
        # 50-digit substitution with the eta=0.5 variance
        rho = eta_rho(BB, 0.25, 0.5, 0.5)
        np.testing.assert_allclose(rho, 0.1767766952966368811, rtol=1e-14)
        mean, var = inference_kernel_mean_var(
            BB, rho, np.array([0.3]), np.array([0.8]), np.array([1.5]), 0.25, 0.5
        )
        np.testing.assert_allclose(mean, [0.5209430584957905167], rtol=1e-13)
        np.testing.assert_allclose(var, 0.03125, rtol=1e-13)

    def test_initial_step_must_boot(self):
        with pytest.raises(InitialStepSingularity):
            inference_kernel_mean_var(
                BB, 0.1, np.zeros(1), np.zeros(1), np.zeros(1), 0.5, 1.0
            )

    def test_step_must_go_down_the_grid(self):
        x = np.array([0.3])
        for t_next in (0.5, 0.25):
            with pytest.raises(InvalidGridParams, match="need t_next > t_n"):
                inference_kernel_mean_var(BB, 0.1, x, x, x, 0.5, t_next)

    def test_rho_above_c_rejected(self):
        # the check has a 1e-12 relative slack
        c = coeffs(BB, 0.25).c
        x = np.array([0.3])
        for rho in (c, c * (1.0 + 1e-13)):
            inference_kernel_mean_var(BB, rho, x, x, x, 0.25, 0.5)
        with pytest.raises(InvalidGridParams, match="exceeds"):
            inference_kernel_mean_var(BB, c * (1.0 + 1e-9), x, x, x, 0.25, 0.5)


class TestMarkovCoefficient:
    def test_vanishes_at_markov_variance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t_n = float(rng.uniform(0.05, 0.7))
            t_m = float(rng.uniform(t_n + 0.05, 0.95))
            rho = eta_rho(BB, t_n, t_m, 1.0)
            assert abs(markov_x0_coefficient(BB, rho, t_n, t_m)) <= 1e-12

    def test_nonzero_below_markov_variance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t_n = float(rng.uniform(0.05, 0.7))
            t_m = float(rng.uniform(t_n + 0.05, 0.95))
            rho = eta_rho(BB, t_n, t_m, 1.0)
            for frac in (0.2, 0.5, 0.9):
                assert abs(markov_x0_coefficient(BB, frac * rho, t_n, t_m)) > 1e-3

    def test_hand_value(self):
        rho = eta_rho(BB, 0.25, 0.5, 0.5)
        np.testing.assert_allclose(
            markov_x0_coefficient(BB, rho, 0.25, 0.5), -6.973665961010275992, rtol=1e-12
        )

    def test_monotone_and_crossing(self):
        t_n, t_m = 0.3, 0.6
        rho1 = eta_rho(BB, t_n, t_m, 1.0)
        values = [markov_x0_coefficient(BB, f * rho1, t_n, t_m) for f in np.linspace(0.05, 1.0, 30)]
        assert np.all(np.diff(values) > 0)
        assert values[-1] <= 1e-12 and values[0] < 0

    def test_zero_rho_rejected(self):
        with pytest.raises(ZeroRho):
            markov_x0_coefficient(BB, 0.0, 0.25, 0.5)

    def test_step_out_of_the_horizon_rejected(self):
        with pytest.raises(InitialStepSingularity):
            markov_x0_coefficient(BB, 0.1, 0.5, 1.0)


class TestVariationalWeight:
    def test_positive_and_finite(self):
        grid = bb_grid(5)
        for eta in (0.3, 0.7, 1.0):
            rhos = make_rhos(BB, grid, eta)
            for n in range(1, 6):
                g = vi_weight(BB, grid, rhos, n)
                assert math.isfinite(g) and g > 0

    def test_frozen_table(self):
        # Brownian schedule, eta=1, four uniform steps on [0.1, 0.9] plus the boot
        grid = bb_grid(4)
        rhos = make_rhos(BB, grid, 1.0)
        expect = [
            0.92430555555555555556,
            0.23030303030303030303,
            0.18947368421052631579,
            0.055555555555555555556,
        ]
        got = [vi_weight(BB, grid, rhos, n) for n in range(1, 5)]
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_zero_rho_rejected(self):
        grid = bb_grid(4)
        rhos = make_rhos(BB, grid, 0.0)
        with pytest.raises(ZeroRho):
            vi_weight(BB, grid, rhos, 1)

    def test_index_bounds(self):
        grid = bb_grid(4)
        rhos = make_rhos(BB, grid, 1.0)
        with pytest.raises(InvalidGridParams):
            vi_weight(BB, grid, rhos, 0)
        with pytest.raises(InvalidGridParams):
            vi_weight(BB, grid, rhos, 5)

    def test_weight_reproduces_kernel_kl(self):
        # the KL between the inference kernels driven by the true x0 and by a
        # prediction equals the weighted squared prediction error; the weight
        # relates to vi_weight through gamma * b^2/c^4 at the upper time
        from bridgekit import gaussian_kl

        grid = bb_grid(5)
        rng = np.random.default_rng(9)
        xT = np.array([1.1])
        x_next = np.array([0.4])
        for eta in (0.4, 1.0):
            rhos = make_rhos(BB, grid, eta)
            for n in range(1, grid.n_steps - 1):
                t_n, t_m = grid.times[n], grid.times[n + 1]
                rho = rhos.rhos[n]
                x0 = rng.standard_normal(1)
                x_hat = x0 + rng.standard_normal(1)
                mean_true, var = inference_kernel_mean_var(BB, rho, x0, x_next, xT, t_n, t_m)
                mean_pred, _ = inference_kernel_mean_var(BB, rho, x_hat, x_next, xT, t_n, t_m)
                kl = gaussian_kl(mean_true, [[var]], mean_pred, [[var]])
                km = coeffs(BB, t_m)
                gamma = vi_weight(BB, grid, rhos, n + 1)
                expect = gamma * (km.b ** 2 / km.c ** 4) * ((x0 - x_hat) ** 2).item()
                np.testing.assert_allclose(kl, expect, rtol=1e-9)
            # the lowest index uses the convention d_0 = 1: the final factor
            # is centered on the prediction itself, N(x_hat, rho_0^2 I)
            rho0 = rhos.rhos[0]
            x0 = rng.standard_normal(1)
            x_hat = x0 + rng.standard_normal(1)
            kl0 = gaussian_kl(x0, [[rho0 ** 2]], x_hat, [[rho0 ** 2]])
            k1 = coeffs(BB, grid.times[1])
            gamma1 = vi_weight(BB, grid, rhos, 1)
            np.testing.assert_allclose(
                kl0, gamma1 * (k1.b ** 2 / k1.c ** 4) * ((x0 - x_hat) ** 2).item(), rtol=1e-9
            )


class TestMarginalPreservation:
    def test_chain_preserves_bridge_marginals(self):
        # fixed endpoints, five stochasticity levels, Monte Carlo moments at
        # every grid time against N(a x_T + b x0, c^2 I)
        x0 = np.array([0.6, -0.4])
        xT = np.array([1.0, 0.5])
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 6, t_min=0.05, t_max=1.0, boot_gap=0.05)
        n = 10 ** 5
        for eta in (0.0, 0.3, 0.5, 0.8, 1.0):
            states = simulate_inference_chain(
                BB, grid, eta, x0, xT, n, np.random.default_rng(77)
            )
            for t, batch in states.items():
                k = coeffs(BB, t)
                mean = k.a * xT + k.b * x0
                se = k.c / math.sqrt(n)
                assert np.all(np.abs(batch.mean(axis=0) - mean) <= 4 * se)
                var = batch.var(axis=0, ddof=1)
                np.testing.assert_allclose(var, k.c * k.c, rtol=4 * math.sqrt(2.0 / n) + 1e-12)
