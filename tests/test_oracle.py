"""Exact Gaussian conditioning: posterior means, scores, marginals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgekit import (
    GaussianBridgeProblem,
    GaussianOracle,
    GridKind,
    NoiseSchedule,
    PerturbedOracle,
    TimeGrid,
    coeffs,
    forward_sample,
    make_grid,
    marginal_at,
    samplers,
    score_from_predictor,
)
from bridgekit.errors import DegenerateCoefficient, DimensionMismatch, InvalidGridParams, SingularSystem

BB = NoiseSchedule.brownian_bridge(1.0, 1.0)


def random_problem(rng, d):
    mix = rng.standard_normal((d, d)) * 0.3
    offset = rng.uniform(0.5, 1.5, size=d) * np.sign(rng.standard_normal(d))
    root = rng.standard_normal((d, d)) * 0.5
    cov = root @ root.T + 0.2 * np.eye(d)
    return GaussianBridgeProblem(mix=mix, offset=offset, cov=cov)


class TestProblemValidation:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(InvalidGridParams):
            GaussianBridgeProblem(
                mix=np.eye(2), offset=np.zeros(2), cov=np.array([[1.0, 0.5], [0.2, 1.0]])
            )

    def test_indefinite_cov_rejected(self):
        with pytest.raises(InvalidGridParams):
            GaussianBridgeProblem(
                mix=np.eye(2), offset=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -0.5]])
            )

    def test_dimension_cap(self):
        with pytest.raises(InvalidGridParams):
            GaussianBridgeProblem(mix=np.eye(65), offset=np.zeros(65), cov=np.eye(65))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianBridgeProblem(mix=np.eye(3), offset=np.zeros(2), cov=np.eye(2))


class TestPredict:
    def test_dimension_mismatch_rejected(self):
        prob = GaussianBridgeProblem(mix=np.eye(2), offset=np.zeros(2), cov=np.eye(2))
        with pytest.raises(DimensionMismatch, match="xT dim"):
            prob.mean_given_endpoint(np.zeros(3))
        with pytest.raises(DimensionMismatch, match="state dim"):
            GaussianOracle(prob, BB).predict(np.zeros(3), 0.5, np.zeros(2))

    def test_deterministic_pairing_returns_conditional_mean(self):
        prob = GaussianBridgeProblem(
            mix=np.array([[0.5]]), offset=np.array([0.1]), cov=np.array([[0.0]])
        )
        oracle = GaussianOracle(prob, BB)
        xT = np.array([2.0])
        m = prob.mean_given_endpoint(xT)
        for t in (0.2, 0.5, 0.9):
            for x in (np.array([-3.0]), np.array([4.0])):
                np.testing.assert_allclose(oracle.predict(x, t, xT), m, atol=1e-8)

    def test_unit_problem_hand_value(self):
        # gain b S (b^2 S + c^2)^{-1} = 0.5/(0.25 + 0.25) = 1 at the midpoint
        prob = GaussianBridgeProblem.scalar(0.0, 0.0, 1.0)
        oracle = GaussianOracle(prob, BB)
        out = oracle.predict(np.array([0.5]), 0.5, np.array([0.0]))
        np.testing.assert_allclose(out, [0.5], rtol=1e-9)

    def test_conditional_mean_point_is_fixed(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, 3)
        oracle = GaussianOracle(prob, BB)
        xT = rng.standard_normal(3)
        m = prob.mean_given_endpoint(xT)
        for t in (0.1, 0.6, 0.95):
            k = coeffs(BB, t)
            x = k.a * xT + k.b * m
            np.testing.assert_allclose(oracle.predict(x, t, xT), m, rtol=1e-9, atol=1e-9)

    def test_endpoint_returns_prior_mean(self):
        rng = np.random.default_rng(7)
        prob = random_problem(rng, 2)
        oracle = GaussianOracle(prob, BB)
        xT = rng.standard_normal(2)
        np.testing.assert_allclose(
            oracle.predict(xT, 1.0, xT), prob.mean_given_endpoint(xT), rtol=1e-12
        )

    def test_monte_carlo_regression_unit_problem(self):
        # E[x0 | x_t near 0.5] from 1e6 forward draws, window half-width 0.05
        prob = GaussianBridgeProblem.scalar(0.0, 0.0, 1.0)
        oracle = GaussianOracle(prob, BB)
        rng = np.random.default_rng(8)
        n = 10 ** 6
        xT = np.zeros((n, 1))
        x0 = rng.standard_normal((n, 1))
        xt = forward_sample(BB, x0, xT, 0.5, rng.standard_normal((n, 1)))
        window = np.abs(xt[:, 0] - 0.5) < 0.05
        estimate = x0[window, 0].mean()
        assert abs(estimate - 0.5) <= 0.01 * 0.5

    def test_monte_carlo_regression_random_problems(self):
        # Gaussian-kernel regression of E[x0 | x_t] against the closed form
        rng = np.random.default_rng(9)
        n = 10 ** 6
        for d in (1, 2):
            for trial in range(5):
                prob = random_problem(rng, d)
                oracle = GaussianOracle(prob, BB)
                t = float(rng.uniform(0.2, 0.8))
                xT = rng.standard_normal(d)
                x0 = prob.mean_given_endpoint(xT) + rng.standard_normal((n, d)) @ np.linalg.cholesky(
                    prob.cov + 1e-12 * np.eye(d)
                ).T
                xt = forward_sample(BB, x0, np.broadcast_to(xT, (n, d)), t, rng.standard_normal((n, d)))
                k = coeffs(BB, t)
                query = k.a * xT + k.b * prob.mean_given_endpoint(xT) + 0.3 * rng.standard_normal(d)
                bw = 0.08 * math.sqrt(d)
                w = np.exp(-np.sum((xt - query) ** 2, axis=1) / (2 * bw * bw))
                estimate = (w[:, None] * x0).sum(axis=0) / w.sum()
                expect = oracle.predict(query, t, xT)
                np.testing.assert_allclose(estimate, expect, rtol=0.02, atol=0.02)


def broadcast_predict(oracle, x, t, xT):
    """The posterior mean with x_T and m(x_T) broadcast as (d,) vectors."""
    m = oracle.problem.mean_given_endpoint(xT)
    k = coeffs(oracle.schedule, t)
    if k.c == 0.0:
        return np.broadcast_to(m, x.shape).copy()
    return m + (x - k.a * xT - k.b * m) @ oracle._gain(k.b, k.c).T


class TestPredictTiles:
    """``predict`` tiles x_T and m(x_T) to the batch; the bits must not move."""

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 64),
        n=st.one_of(st.none(), st.integers(1, 600)),
        # (0, T]; below about 1e-322 the VP log-SNR itself fails (log of 0)
        t=st.floats(1e-300, 1.0),
        vp=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_broadcast_formula_bit_for_bit(self, d, n, t, vp, seed):
        rng = np.random.default_rng(seed)
        oracle = GaussianOracle(random_problem(rng, d), NoiseSchedule.vp() if vp else BB)
        shape = (d,) if n is None else (n, d)
        xT = rng.standard_normal(d)
        # a 1-D state and a second x_T in between: the tiles are rebuilt for
        # each new (x_T, shape) and reused when it repeats
        for x_shape, endpoint in ((shape, xT), ((d,), xT), (shape, xT), (shape, xT), (shape, -xT)):
            x = rng.standard_normal(x_shape)
            got = oracle.predict(x, t, endpoint)
            want = broadcast_predict(oracle, x, t, endpoint)
            assert got.shape == want.shape == x_shape
            assert got.tobytes() == want.tobytes()

    def test_pinned_endpoint_returns_fresh_arrays(self):
        rng = np.random.default_rng(3)
        oracle = GaussianOracle(random_problem(rng, 3), BB)
        xT = rng.standard_normal(3)
        first = oracle.predict(np.zeros((4, 3)), 1.0, xT)
        first[:] = np.nan
        np.testing.assert_array_equal(
            oracle.predict(np.zeros((4, 3)), 1.0, xT), np.tile(oracle.problem.mean_given_endpoint(xT), (4, 1))
        )


class TestScore:
    def test_zero_on_mean_line_with_true_x0(self):
        prob = GaussianBridgeProblem.scalar(0.0, 0.3, 0.5)
        xT = np.array([1.0])
        x0 = np.array([0.8])
        k = coeffs(BB, 0.4)
        x = k.a * xT + k.b * x0
        out = score_from_predictor(BB, x, 0.4, xT, x0)
        np.testing.assert_allclose(out, [0.0], atol=1e-12)

    def test_hand_value(self):
        # -(x - a x_T - b x_hat)/c^2 at t=0.3 on the Brownian schedule
        out = score_from_predictor(BB, np.array([0.9]), 0.3, np.array([1.1]), np.array([0.25]))
        np.testing.assert_allclose(out, [-1.8809523809523809524], rtol=1e-13)

    def test_matches_analytic_marginal_score(self):
        # with the exact predictor the implied score equals the gradient of
        # log N(x; a x_T + b m, b^2 S + c^2 I)
        rng = np.random.default_rng(11)
        for d in (1, 3):
            prob = random_problem(rng, d)
            oracle = GaussianOracle(prob, BB)
            for _ in range(50):
                t = float(rng.uniform(0.05, 0.95))
                xT = rng.standard_normal(d)
                x = rng.standard_normal(d) * 2.0
                x_hat = oracle.predict(x, t, xT)
                got = score_from_predictor(BB, x, t, xT, x_hat)
                mean, cov = marginal_at(prob, BB, t, xT)
                expect = -np.linalg.solve(cov, x - mean)
                np.testing.assert_allclose(got, expect, rtol=1e-7, atol=1e-8)

    def test_degenerate_at_endpoint(self):
        with pytest.raises(DegenerateCoefficient):
            score_from_predictor(BB, np.zeros(1), 1.0, np.zeros(1), np.zeros(1))


class TestMarginal:
    def test_endpoint_pinned(self):
        rng = np.random.default_rng(12)
        prob = random_problem(rng, 2)
        xT = rng.standard_normal(2)
        mean, cov = marginal_at(prob, BB, 1.0, xT)
        np.testing.assert_allclose(mean, xT, rtol=1e-12)
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-12)

    def test_early_time_approaches_posterior(self):
        rng = np.random.default_rng(13)
        prob = random_problem(rng, 2)
        xT = rng.standard_normal(2)
        mean, cov = marginal_at(prob, BB, 1e-6, xT)
        np.testing.assert_allclose(mean, prob.mean_given_endpoint(xT), atol=1e-4)
        np.testing.assert_allclose(cov, prob.cov, atol=1e-4)

    def test_monte_carlo_moments_2d(self):
        rng = np.random.default_rng(14)
        prob = random_problem(rng, 2)
        xT = rng.standard_normal(2)
        t = 0.35
        n = 10 ** 6
        x0 = prob.sample_x0(xT, n, rng)
        xt = forward_sample(BB, x0, np.broadcast_to(xT, (n, 2)), t, rng.standard_normal((n, 2)))
        mean, cov = marginal_at(prob, BB, t, xT)
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(xt.mean(axis=0) - mean) <= 4 * se)
        np.testing.assert_allclose(np.cov(xt, rowvar=False), cov, rtol=0.02, atol=0.002)


class TestPerturbedOracle:
    def test_bias_norm_and_direction_fixed(self):
        prob = GaussianBridgeProblem.scalar(0.0, 0.0, 1.0)
        base = GaussianOracle(prob, BB)
        pert = PerturbedOracle(base, eps_bias=0.05, seed=3)
        assert abs(np.linalg.norm(pert.bias) - 0.05) <= 1e-12
        x, xT = np.array([0.4]), np.array([1.0])
        np.testing.assert_allclose(
            pert.predict(x, 0.5, xT), base.predict(x, 0.5, xT) + pert.bias, rtol=1e-14
        )

    def test_linearize_includes_bias(self):
        prob = GaussianBridgeProblem.scalar(0.1, 0.2, 0.7)
        base = GaussianOracle(prob, BB)
        pert = PerturbedOracle(base, eps_bias=0.1, seed=4)
        P0, q0 = base.linearize(0.4, np.array([0.5]))
        P1, q1 = pert.linearize(0.4, np.array([0.5]))
        np.testing.assert_allclose(P0, P1)
        np.testing.assert_allclose(q1, q0 + pert.bias)


class TestLinearize:
    def test_matches_predict(self):
        rng = np.random.default_rng(15)
        prob = random_problem(rng, 3)
        oracle = GaussianOracle(prob, BB)
        xT = rng.standard_normal(3)
        for t in (0.15, 0.5, 0.85):
            P, q = oracle.linearize(t, xT)
            for _ in range(5):
                x = rng.standard_normal(3) * 2
                np.testing.assert_allclose(
                    P @ x + q, oracle.predict(x, t, xT), rtol=1e-10, atol=1e-12
                )


def reference_gain(problem, b, c):
    """b S (b² S + c² I)⁻¹ by ``dpotrf`` then ``dpotrs``, one system at a time."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    eye = np.eye(problem.dim)
    S = problem.cov + 1e-10 * eye
    chol, info = dpotrf(b * b * S + c * c * eye, lower=0, clean=0)
    assert info == 0
    solved, info = dpotrs(chol, b * S, lower=0)
    assert info == 0
    return solved.T


def assert_same_array(got, want):
    # the memory layout decides how a later matmul rounds, so it must match too
    assert got.tobytes() == want.tobytes()
    assert (got.shape, got.strides) == (want.shape, want.strides)


def grid_table(schedule, times):
    """The samplers' coefficient table of the grid ``times``, as the engine hands it to ``prepare``."""
    return samplers._GridCoeffs.build(schedule, TimeGrid(times))


class TestGainTable:
    """``prepare`` fills the per-time table up front; its entries must be the on-demand bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 64),
        vp=st.booleans(),
        n_times=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prepared_gains_equal_on_demand_and_reference(self, d, vp, n_times, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, d)
        schedule = NoiseSchedule.vp() if vp else BB
        # a random grid ending at the pinned endpoint, which the miss path serves
        times = sorted({float(t) for t in rng.uniform(1e-6, 1.0, n_times)}) + [1.0]
        prepared = GaussianOracle(problem, schedule)
        prepared.prepare(grid_table(schedule, times))
        fresh = GaussianOracle(problem, schedule)
        assert list(prepared._by_time) == times[:-1]
        for t in times[:-1]:
            k = coeffs(schedule, t)
            entry = prepared._by_time[t]
            a, b, got = entry
            assert (a, b) == (k.a, k.b)
            assert_same_array(got, fresh._at(t)[2])
            assert_same_array(got, reference_gain(problem, k.b, k.c))
            assert prepared._at(t) is entry
        assert prepared._at(1.0) == (1.0, 0.0, None)

    def test_blocks_and_cache_cap(self, monkeypatch):
        import bridgekit.oracle as oracle_mod

        rng = np.random.default_rng(21)
        problem = random_problem(rng, 3)
        times = [0.05 * i for i in range(1, 20)] + [1.0]
        table = grid_table(BB, times)
        whole = GaussianOracle(problem, BB)
        whole.prepare(table)
        # two systems per stacked block, so the 19 times end in a partial block
        monkeypatch.setattr(oracle_mod, "_STACK_ELEMS", 2 * 9)
        blocked = GaussianOracle(problem, BB)
        blocked.prepare(grid_table(BB, times[:5] + [1.0]))
        blocked.prepare(table)
        assert list(blocked._by_time) == list(whole._by_time) == times[:-1]
        for t, (a, b, gain) in whole._by_time.items():
            assert blocked._by_time[t][:2] == (a, b)
            assert_same_array(blocked._by_time[t][2], gain)
        monkeypatch.setattr(oracle_mod, "_GAIN_CACHE_MAX", 7)
        capped = GaussianOracle(problem, BB)
        capped.prepare(table)
        assert len(capped._by_time) == 7
        # a doubles budget of five 3×3 gains caps the table below 7 entries,
        # in prepare and on the miss path alike
        monkeypatch.setattr(oracle_mod, "_GAIN_CACHE_DOUBLES", 5 * 9 + 8)
        by_size = GaussianOracle(problem, BB)
        by_size.prepare(table)
        assert list(by_size._by_time) == times[:5]
        assert_same_array(by_size._at(times[-2])[2], whole._by_time[times[-2]][2])
        assert by_size._at(1.0)[2] is None
        assert len(by_size._by_time) == 5

    def test_unsolvable_system_raises_only_when_asked_for(self):
        oracle = GaussianOracle(GaussianBridgeProblem.scalar(0.0, 0.0, 1.0), BB)
        # with S = −I the system b² S + c² I = c² − b² is negative at t = 0.2
        # on the Brownian bridge (b² = 0.64 > c² = 0.16)
        oracle._jittered_cov = -np.eye(1)
        oracle.prepare(grid_table(BB, [0.2, 1.0]))
        assert oracle._by_time == {}
        with pytest.raises(SingularSystem):
            oracle.predict(np.zeros(1), 0.2, np.zeros(1))
        with pytest.raises(SingularSystem):
            oracle.linearize(0.2, np.zeros(1))

    def test_perturbed_oracle_forwards_prepare(self):
        base = GaussianOracle(random_problem(np.random.default_rng(22), 2), BB)
        PerturbedOracle(base, eps_bias=0.1, seed=1).prepare(grid_table(BB, [0.25, 0.5, 1.0]))
        assert list(base._by_time) == [0.25, 0.5]

    def test_table_of_another_schedule_is_ignored(self):
        oracle = GaussianOracle(random_problem(np.random.default_rng(23), 2), BB)
        oracle.prepare(grid_table(NoiseSchedule.vp(), [0.25, 0.5, 1.0]))
        assert oracle._by_time == {}

    @pytest.mark.parametrize("schedule", [BB, NoiseSchedule.vp(), NoiseSchedule.ve()], ids=["bb", "vp", "ve"])
    def test_prepared_and_unprepared_give_the_same_bits(self, monkeypatch, schedule):
        import bridgekit.oracle as oracle_mod

        rng = np.random.default_rng(24)
        problem = random_problem(rng, 3)
        grid = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 30, t_min=1e-3, boot_gap=1e-3)
        # a cap of 12 entries: the prepare fills it, and the other 19 times,
        # t = T among them, take the miss path
        monkeypatch.setattr(oracle_mod, "_GAIN_CACHE_MAX", 12)
        prepared = GaussianOracle(problem, schedule)
        prepared.prepare(grid_table(schedule, grid.times))
        assert len(prepared._by_time) == 12
        monkeypatch.undo()
        plain = GaussianOracle(problem, schedule)
        xT = rng.standard_normal(3)
        x = rng.standard_normal((5, 3))
        for t in grid.times:
            assert prepared.predict(x, t, xT).tobytes() == plain.predict(x, t, xT).tobytes()
            for got, want in zip(prepared.linearize(t, xT), plain.linearize(t, xT)):
                assert_same_array(got, want)
        assert len(prepared._by_time) == 12
