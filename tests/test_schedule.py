"""Schedule, bridge-coefficient, and timestep-grid tests.

High-precision expected values were computed independently with 50-digit
arithmetic (mpmath) by direct substitution into the closed forms.
"""

import json
import math

import numpy as np
import pytest

from bridgekit import (
    GridKind,
    NoiseSchedule,
    TimeGrid,
    coeffs,
    lambda_of,
    make_grid,
    time_of_lambda,
)
from bridgekit.cli import main
from bridgekit.errors import (
    DegenerateCoefficient,
    InvalidGridParams,
    NotBracketed,
    TimeOutOfRange,
)

BB = NoiseSchedule.brownian_bridge(1.0, 1.0)
VP_EXP = NoiseSchedule.vp(2.0, 2.0, 1.0)  # alpha_t = e^{-t}, sigma_t^2 = 1 - e^{-2t}
ALL_SCHEDULES = [
    BB,
    VP_EXP,
    NoiseSchedule.vp(0.1, 20.0, 1.0),
    NoiseSchedule.ve(0.01, 50.0, 1.0),
    NoiseSchedule.brownian_bridge(0.25, 2.0),
]


class TestCoeffs:
    def test_brownian_midpoint(self):
        k = coeffs(BB, 0.5)
        np.testing.assert_allclose([k.a, k.b, k.c], [0.5, 0.5, 0.5], rtol=1e-14)

    def test_endpoint_is_pinned(self):
        for sch in ALL_SCHEDULES:
            k = coeffs(sch, sch.horizon)
            assert (k.a, k.b, k.c) == (1.0, 0.0, 0.0)
            assert k.lam == -math.inf

    def test_vp_exponential_alpha_spot(self):
        # 50-digit substitution into the coefficient closed forms
        k = coeffs(VP_EXP, 0.5)
        np.testing.assert_allclose(k.a, 0.44340944198503695433, rtol=1e-14)
        np.testing.assert_allclose(k.b, 0.44340944198503695433, rtol=1e-14)
        np.testing.assert_allclose(k.c, 0.67979199558395048706, rtol=1e-14)
        np.testing.assert_allclose(k.lam, -0.42729327106557047151, rtol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(TimeOutOfRange):
            coeffs(BB, 0.0)
        with pytest.raises(TimeOutOfRange):
            coeffs(BB, 1.5)

    def test_degenerate_when_signal_underflows(self):
        # long-horizon VP drives alpha_t below the representable floor
        sch = NoiseSchedule.vp(2.0, 2.0, 700.0)
        with pytest.raises(DegenerateCoefficient):
            coeffs(sch, 695.0)

    def test_mixing_identity(self):
        # a α_T/α_t + b/α_t = 1 for every schedule and time
        rng = np.random.default_rng(0)
        for sch in ALL_SCHEDULES:
            for t in rng.uniform(0.01, 0.999, size=200) * sch.horizon:
                k = coeffs(sch, float(t))
                lhs = k.a * sch.alpha(sch.horizon) / sch.alpha(float(t)) + k.b / sch.alpha(float(t))
                assert abs(lhs - 1.0) <= 1e-12


class TestLambda:
    def test_symmetric_midpoint_is_zero(self):
        assert abs(lambda_of(BB, 0.5)) < 1e-14

    def test_hand_value(self):
        np.testing.assert_allclose(lambda_of(BB, 0.2), 0.5 * math.log(4.0), rtol=1e-14)

    def test_half_log_snr_gap_closed_form(self):
        rng = np.random.default_rng(1)
        for sch in ALL_SCHEDULES:
            for t in rng.uniform(0.02, 0.98, size=100) * sch.horizon:
                lam = lambda_of(sch, float(t))
                direct = 0.5 * math.log(sch.snr(float(t)) - sch.snr(sch.horizon))
                assert abs(lam - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_matches_log_b_over_c(self):
        rng = np.random.default_rng(2)
        for sch in ALL_SCHEDULES:
            for t in rng.uniform(0.02, 0.98, size=50) * sch.horizon:
                k = coeffs(sch, float(t))
                np.testing.assert_allclose(k.lam, math.log(k.b / k.c), rtol=1e-10, atol=1e-12)

    def test_strictly_decreasing(self):
        for sch in ALL_SCHEDULES:
            ts = np.linspace(0.01, 0.99, 200) * sch.horizon
            lams = [lambda_of(sch, float(t)) for t in ts]
            assert np.all(np.diff(lams) < 0)

    def test_inverse_pair(self):
        for sch in ALL_SCHEDULES:
            for t in (0.3 * sch.horizon, 0.05 * sch.horizon, 0.9 * sch.horizon):
                back = time_of_lambda(sch, lambda_of(sch, t))
                assert abs(back - t) <= 1e-10 * t

    def test_not_bracketed(self):
        with pytest.raises(NotBracketed):
            time_of_lambda(NoiseSchedule.ve(0.01, 50.0, 1.0), 1e9)

    def test_out_of_range_at_endpoint(self):
        with pytest.raises(TimeOutOfRange):
            lambda_of(BB, 1.0)


class TestDriftDiffusionConsistency:
    def test_f_and_g2_match_finite_differences(self):
        # f = (log alpha)' and g^2 = (sigma^2)' - 2 f sigma^2, central h = 1e-5
        rng = np.random.default_rng(3)
        h = 1e-5
        for sch in ALL_SCHEDULES:
            ts = rng.uniform(0.01, 0.99, size=334) * sch.horizon
            for t in ts:
                t = float(t)
                f_num = (sch.log_alpha(t + h) - sch.log_alpha(t - h)) / (2 * h)
                assert abs(sch.f(t) - f_num) <= 1e-6 * max(1.0, abs(f_num))
                ds2 = (sch.sigma2(t + h) - sch.sigma2(t - h)) / (2 * h)
                g2_num = ds2 - 2.0 * sch.f(t) * sch.sigma2(t)
                assert abs(sch.g2(t) - g2_num) <= 1e-6 * max(1.0, abs(g2_num))

    def test_snr_strictly_decreasing(self):
        for sch in ALL_SCHEDULES:
            ts = np.linspace(0.01, 1.0, 300) * sch.horizon
            snrs = [sch.log_snr(float(t)) for t in ts]
            assert np.all(np.diff(snrs) < 0)

    def test_sigma_strictly_increasing(self):
        for sch in ALL_SCHEDULES:
            ts = np.linspace(0.01, 1.0, 300) * sch.horizon
            sigs = [sch.sigma(float(t)) for t in ts]
            assert np.all(np.diff(sigs) > 0)


class TestGrids:
    def test_uniform_two_steps(self):
        g = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 2, t_min=1e-4, t_max=1.0, boot_gap=1e-4)
        assert g.times == (1e-4, 0.9999, 1.0)

    def test_single_step_requires_matching_endpoints(self):
        with pytest.raises(InvalidGridParams):
            make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 1, t_min=1e-4, t_max=1.0, boot_gap=1e-4)
        g = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 1, t_min=0.9999, t_max=1.0, boot_gap=1e-4)
        assert g.times == (0.9999, 1.0)

    def test_uniform_structure(self):
        g = make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 7, t_min=0.01, t_max=1.0, boot_gap=0.01)
        ts = np.asarray(g.times)
        assert ts[0] == 0.01 and ts[-1] == 1.0 and ts[-2] == 0.99
        np.testing.assert_allclose(np.diff(ts[:-1]), np.diff(ts[:-1])[0], rtol=1e-12)

    def test_edm_power_closed_form(self):
        n, kappa, lo, hi = 4, 7.0, 1e-4, 1.0
        g = make_grid(GridKind.EDM_POWER, n, t_min=lo, t_max=hi, edm_exponent=kappa)
        expect = sorted(
            (hi ** (1 / kappa) + (i / n) * (lo ** (1 / kappa) - hi ** (1 / kappa))) ** kappa
            for i in range(n + 1)
        )
        np.testing.assert_allclose(np.asarray(g.times), expect, rtol=1e-12)
        assert np.all(np.diff(np.asarray(g.times)) > 0)

    def test_edm_power_unit_exponent_is_uniform(self):
        g = make_grid(GridKind.EDM_POWER, 10, t_min=0.1, t_max=1.0, edm_exponent=1.0)
        np.testing.assert_allclose(np.asarray(g.times), np.linspace(0.1, 1.0, 11), rtol=1e-12)

    def test_invalid_params(self):
        with pytest.raises(InvalidGridParams):
            make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 0)
        with pytest.raises(InvalidGridParams):
            make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 5, t_min=0.5, t_max=0.4)
        with pytest.raises(InvalidGridParams):
            make_grid(GridKind.UNIFORM_WITH_BOOT_STEP, 5, t_min=0.9999, t_max=1.0, boot_gap=1e-4)
        with pytest.raises(InvalidGridParams):
            make_grid(GridKind.EDM_POWER, 5, t_min=0.1, t_max=1.0, edm_exponent=-1.0)

    def test_time_grid_is_valid_by_construction(self, tmp_path):
        for times, pair in (((0.5, 0.3, 1.0), "t_0 = 0.5, t_1 = 0.3"), ((1.0, 1.0), "t_0 = 1.0, t_1 = 1.0"),
                            ((1.0,), "at least two times, got 1")):
            with pytest.raises(InvalidGridParams, match=pair):
                TimeGrid(times)
        grid = TimeGrid([np.float64(0.25), np.float64(1.0)])
        assert grid.times == (0.25, 1.0) and type(grid.times) is tuple
        assert all(type(t) is float for t in grid.times)
        # at horizon 1e300, t_max − boot_gap rounds to t_max: make_grid cannot order the grid
        cfg = {
            "schedule": {"kind": "brownian_bridge", "horizon": 1e300},
            "problem": {"mix": [[0.2]], "offset": [0.4], "cov": [[1.0]], "x_T": [1.0]},
            "grid": {"n_steps": 4}, "sampler": {"method": "dbim1"}, "experiment": "sample",
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
        assert not out.exists()


class TestScheduleValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(InvalidGridParams):
            NoiseSchedule.vp(-1.0, 20.0)
        with pytest.raises(InvalidGridParams):
            NoiseSchedule.ve(0.5, 0.1)
        with pytest.raises(InvalidGridParams):
            NoiseSchedule.brownian_bridge(0.0)
        with pytest.raises(TimeOutOfRange):
            NoiseSchedule.brownian_bridge(1.0, horizon=-2.0)


class TestScheduleHashAndUnderflow:
    def test_equal_schedules_hash_equal_also_after_pickling(self):
        import pickle

        for schedule in ALL_SCHEDULES:
            twin = NoiseSchedule(schedule.kind, schedule.params, schedule.horizon)
            assert twin == schedule and hash(twin) == hash(schedule)
            copy = pickle.loads(pickle.dumps(schedule))
            assert copy == schedule and hash(copy) == hash(schedule)
            assert coeffs(copy, 0.5) == coeffs(schedule, 0.5)

    def test_schedules_differing_in_one_field_are_unequal(self):
        base = NoiseSchedule.vp(0.1, 20.0, horizon=1.0)
        for other in (
            NoiseSchedule.ve(0.1, 20.0, horizon=1.0),  # kind
            NoiseSchedule.vp(0.1, 19.0, horizon=1.0),  # params
            NoiseSchedule.vp(0.1, 20.0, horizon=2.0),  # horizon
        ):
            assert other != base and not other == base
        assert base == base
        assert base != (base.kind, base.params, base.horizon)

    @pytest.mark.parametrize("schedule", [NoiseSchedule.vp(), NoiseSchedule.brownian_bridge(0.5)])
    def test_sigma2_underflow_is_degenerate(self, schedule):
        # VP: log α_t rounds to 0; Brownian bridge: β t rounds to 0
        for fn in (schedule.log_sigma2, schedule.log_snr, lambda t: coeffs(schedule, t)):
            with pytest.raises(DegenerateCoefficient):
                fn(5e-324)
