"""Gaussian distances, order fits, diversity, and moment reports."""

import numpy as np
import pytest

from bridgekit import (
    GaussianBridgeProblem,
    GaussianOracle,
    GridKind,
    Method,
    NoiseSchedule,
    SamplerConfig,
    diversity_score,
    fit_order,
    gaussian_kl,
    make_grid,
    moment_check,
    sample_batch,
    wasserstein2_gaussian,
)
from bridgekit.errors import DimensionMismatch, InvalidGridParams, SingularCovariance


class TestGaussianKL:
    def test_identical_is_zero(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert gaussian_kl([0.1, -0.2], cov, [0.1, -0.2], cov) <= 1e-12

    def test_unit_mean_shift(self):
        assert abs(gaussian_kl([0.0], [[1.0]], [1.0], [[1.0]]) - 0.5) <= 1e-12

    def test_asymmetry(self):
        a = gaussian_kl([0.0], [[1.0]], [0.0], [[4.0]])
        b = gaussian_kl([0.0], [[4.0]], [0.0], [[1.0]])
        assert abs(a - b) > 0.1

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            r1 = rng.standard_normal((d, d))
            r2 = rng.standard_normal((d, d))
            kl = gaussian_kl(
                rng.standard_normal(d), r1 @ r1.T + 0.1 * np.eye(d),
                rng.standard_normal(d), r2 @ r2.T + 0.1 * np.eye(d),
            )
            assert kl >= 0.0

    def test_singular_target_rejected(self):
        with pytest.raises(SingularCovariance):
            gaussian_kl([0.0], [[1.0]], [0.0], [[0.0]])

    def test_singular_source_is_infinite(self):
        assert gaussian_kl([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], np.eye(2)) == np.inf


class TestWasserstein:
    def test_identical_is_zero(self):
        cov = np.array([[1.5, 0.4], [0.4, 0.9]])
        assert wasserstein2_gaussian([0.3, 0.1], cov, [0.3, 0.1], cov) <= 1e-7

    def test_pure_mean_shift(self):
        cov = np.eye(2)
        d = wasserstein2_gaussian([0.0, 0.0], cov, [0.6, 0.8], cov)
        np.testing.assert_allclose(d, 1.0, rtol=1e-10)

    def test_scalar_variance_gap(self):
        # equal means, variances 1 and 4: distance |1 - 2| = 1
        d = wasserstein2_gaussian([0.0], [[1.0]], [0.0], [[4.0]])
        np.testing.assert_allclose(d, 1.0, rtol=1e-10)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_commuting_covariances_exact(self, d):
        # Q diag(a) Qᵀ and Q diag(b) Qᵀ share eigenvectors, so
        # W2² = |Δm|² + Σ (√a_i − √b_i)²
        rng = np.random.default_rng(d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = rng.uniform(0.1, 3.0, d)
        b = rng.uniform(0.1, 3.0, d)
        ma, mb = rng.standard_normal(d), rng.standard_normal(d)
        w2 = wasserstein2_gaussian(ma, (q * a) @ q.T, mb, (q * b) @ q.T)
        exact = np.sum((ma - mb) ** 2) + np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)
        np.testing.assert_allclose(w2 ** 2, exact, rtol=1e-12, atol=1e-14 * np.sum(a + b))

    def test_identical_at_rounding_level(self):
        # the Bures term is a sum of squares, so nothing cancels to a
        # rounding residue that the square root then lifts to ~1e-8
        cov = np.array([[1.5, 0.4], [0.4, 0.9]])
        assert wasserstein2_gaussian([0.3, 0.1], cov, [0.3, 0.1], cov) <= 1e-14

    def test_resolves_relative_scaling(self):
        # N(0, A) against N(0, (1+ε)² A): √B = (1+ε)√A, so W2 = ε √tr A.
        # Rounding the two roots (~1e-16) against ε bounds the relative
        # error near 1e-7 times a conditioning factor; the trace form gives 1.
        eps = 1e-9
        for d in range(1, 65):
            rng = np.random.default_rng(d)
            r = rng.standard_normal((d, d))
            cov = r @ r.T / d + 0.1 * np.eye(d)
            w2 = wasserstein2_gaussian(np.zeros(d), cov, np.zeros(d), (1 + eps) ** 2 * cov)
            np.testing.assert_allclose(w2, eps * np.sqrt(np.trace(cov)), rtol=1e-5, err_msg=f"d={d}")

    def test_matches_trace_form_on_order_one_pairs(self):
        # W2² = |Δm|² + tr A + tr B − 2 tr √(√B A √B), accurate when W2 is O(1)
        def root(m):
            w, v = np.linalg.eigh(m)
            return (v * np.sqrt(w)) @ v.T

        rng = np.random.default_rng(11)
        for d in range(1, 65):
            r1, r2 = rng.standard_normal((2, d, d))
            a = r1 @ r1.T / d + 0.1 * np.eye(d)
            b = r2 @ r2.T / d + 0.1 * np.eye(d)
            ma, mb = rng.standard_normal((2, d))
            rb = root(b)
            trace_form = np.sum((ma - mb) ** 2) + np.trace(a) + np.trace(b) - 2 * np.trace(root(rb @ a @ rb))
            w2 = wasserstein2_gaussian(ma, a, mb, b)
            np.testing.assert_allclose(w2 ** 2, trace_form, rtol=1e-12, err_msg=f"d={d}")


class TestFitOrder:
    def test_linear(self):
        ns = [8, 16, 32, 64]
        np.testing.assert_allclose(fit_order(ns, [1.0 / n for n in ns]), 1.0, atol=1e-12)

    def test_quadratic(self):
        ns = [8, 16, 32, 64]
        np.testing.assert_allclose(fit_order(ns, [1.0 / n ** 2 for n in ns]), 2.0, atol=1e-12)

    def test_noisy_quadratic(self):
        rng = np.random.default_rng(2)
        ns = np.array([8, 16, 32, 64, 128])
        errs = (1.0 / ns ** 2) * (1.0 + 0.01 * rng.standard_normal(5))
        assert abs(fit_order(ns, errs) - 2.0) <= 0.05

    def test_scale_invariance(self):
        ns = [8, 16, 32, 64]
        errs = [3e-2, 8e-3, 2.2e-3, 5e-4]
        a = fit_order(ns, errs)
        b = fit_order(ns, [17.0 * e for e in errs])
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_input_validation(self):
        with pytest.raises(InvalidGridParams):
            fit_order([8, 16], [0.1, 0.05])
        with pytest.raises(InvalidGridParams):
            fit_order([8, 16, 32], [0.1, -0.05, 0.01])


class TestDiversity:
    def test_identical_samples_zero(self):
        assert diversity_score(np.ones((5, 3))) == 0.0

    def test_two_point_population_convention(self):
        assert diversity_score(np.array([[0.0], [2.0]])) == 1.0

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((20, 4))
        np.testing.assert_allclose(
            diversity_score(3.5 * batch), 3.5 * diversity_score(batch), rtol=1e-12
        )

    def test_needs_two_samples(self):
        with pytest.raises(DimensionMismatch):
            diversity_score(np.ones((1, 3)))

    def test_converges_to_posterior_spread(self):
        # deterministic sampling over many boot noises recovers the average
        # per-coordinate posterior standard deviation as the grid refines
        sch = NoiseSchedule.brownian_bridge(1.0, 1.0)
        prob = GaussianBridgeProblem(
            mix=0.1 * np.eye(2), offset=np.array([0.2, -0.1]),
            cov=np.array([[0.8, 0.2], [0.2, 0.4]]),
        )
        oracle = GaussianOracle(prob, sch)
        xT = np.array([0.5, 1.0])
        target = float(np.sqrt(np.diag(prob.cov)).mean())
        scores = []
        for n in (10, 40, 160):
            grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, n, t_min=1e-4, boot_gap=1e-4)
            cfg = SamplerConfig(Method.DBIM1, grid, seed=5, eta=0.0)
            terminal, _, _ = sample_batch(cfg, sch, oracle, xT, 400)
            scores.append(diversity_score(terminal))
        gaps = [abs(s - target) for s in scores]
        assert gaps[0] > gaps[-1]
        assert gaps[-1] <= 0.05 * target


class TestMomentCheck:
    def test_calibrated_on_target_draws(self):
        rng = np.random.default_rng(4)
        mean = np.array([0.5, -1.0])
        cov = np.array([[1.0, 0.2], [0.2, 0.7]])
        batch = rng.multivariate_normal(mean, cov, size=20000)
        report = moment_check(batch, 0.5, mean, cov)
        assert report.max_abs_z <= 4.0
        assert report.n_samples == 20000
        np.testing.assert_allclose(report.empirical_cov, cov, rtol=0.1)

    def test_shift_scales_with_sqrt_n(self):
        rng = np.random.default_rng(5)
        mean = np.zeros(1)
        cov = np.eye(1)
        shift = 0.05
        zs = []
        for n in (1000, 16000):
            batch = rng.standard_normal((n, 1)) + shift
            zs.append(moment_check(batch, 0.1, mean, cov).max_abs_z)
        assert zs[1] > 2.5 * zs[0]

    def test_sampler_batch_at_mid_grid_time(self):
        sch = NoiseSchedule.brownian_bridge(1.0, 1.0)
        prob = GaussianBridgeProblem.scalar(0.0, 0.3, 0.6)
        oracle = GaussianOracle(prob, sch)
        xT = np.array([1.0])
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 64, t_min=1e-4, boot_gap=1e-4)
        cfg = SamplerConfig(Method.DBIM1, grid, seed=6, eta=1.0)
        _, _, _, stack = sample_batch(cfg, sch, oracle, xT, 20000, record=True)
        # stack rows run from t_{N-1} down to t_0
        idx = 32
        t = grid.times[grid.n_steps - 1 - idx]
        from bridgekit import marginal_at

        mean, cov = marginal_at(prob, sch, t, xT)
        report = moment_check(stack[idx], t, mean, cov)
        assert report.max_abs_z <= 4.5
        np.testing.assert_allclose(
            float(report.empirical_cov[0, 0]), cov[0, 0], rtol=0.08
        )
