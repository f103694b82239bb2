"""Noise schedules, bridge coefficients, and timestep grids.

A noise schedule defines the Gaussian forward kernel N(α_t x₀, σ_t² I) of a
linear diffusion through the pair (α_t, σ_t) on t ∈ (0, T].  The associated
drift and squared diffusion are

    f(t) = d log α_t / dt,        g²(t) = dσ_t²/dt − 2 f(t) σ_t².

Pinning the diffusion at a fixed endpoint x_T yields the bridge kernel
N(a_t x_T + b_t x₀, c_t² I) with

    a_t = (α_t/α_T)(SNR_T/SNR_t),   b_t = α_t (1 − SNR_T/SNR_t),
    c_t² = σ_t² (1 − SNR_T/SNR_t),  SNR_t = α_t²/σ_t².

The log-ratio λ_t = log(b_t/c_t) = ½ log(SNR_t − SNR_T) is strictly
decreasing in t and serves as the integration variable for the exponential
solvers in :mod:`bridgekit.samplers`.

Everything here is immutable and pure; schedules are evaluated in log space
to avoid underflow near both endpoints.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCoefficient,
    InvalidGridParams,
    NotBracketed,
    TimeOutOfRange,
)

_COEF_FLOOR = 1e-300
# the largest x with math.exp(x) finite
_LOG_MAX = math.log(sys.float_info.max)


class ScheduleKind(enum.Enum):
    VP = "vp"
    VE = "ve"
    BROWNIAN_BRIDGE = "brownian_bridge"


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable (α_t, σ_t) schedule on (0, T].

    Parameters per kind:

    * ``VP``: ``params = (beta_min, beta_max)``; β(s) ramps linearly from
      beta_min to beta_max over [0, T], α_t = exp(−½∫₀ᵗ β), σ_t² = 1 − α_t².
    * ``VE``: ``params = (sigma_min, sigma_max)``; α_t = 1 and σ_t grows
      geometrically from sigma_min to sigma_max.
    * ``BROWNIAN_BRIDGE``: ``params = (beta,)``; α_t = 1, σ_t² = β t.
    """

    kind: ScheduleKind
    params: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise TimeOutOfRange(f"horizon must be positive, got {self.horizon}")
        p = self.params
        if self.kind is ScheduleKind.VP:
            if len(p) != 2 or p[0] <= 0 or p[1] < p[0]:
                raise InvalidGridParams(f"VP needs 0 < beta_min <= beta_max, got {p}")
        elif self.kind is ScheduleKind.VE:
            if len(p) != 2 or p[0] <= 0 or p[1] <= p[0]:
                raise InvalidGridParams(f"VE needs 0 < sigma_min < sigma_max, got {p}")
            # σ_t² = exp(log σ_t²) grows from σ_min² (t → 0) to σ_max² (t = T), and
            # g² = σ_t² · 2 log(σ_max/σ_min)/T with it
            if not (math.exp(self.log_sigma2(0.0)) > 0.0 and self.log_sigma2(self.horizon) <= _LOG_MAX
                    and math.isfinite(self.g2(self.horizon))):
                raise InvalidGridParams(f"VE sigma_t^2 or g^2 leaves the double range for sigma_min, sigma_max = {p}")
        elif self.kind is ScheduleKind.BROWNIAN_BRIDGE:
            if len(p) != 1 or p[0] <= 0:
                raise InvalidGridParams(f"Brownian bridge needs beta > 0, got {p}")
        else:  # pragma: no cover - enum is closed
            raise InvalidGridParams(f"unknown schedule kind {self.kind}")

    @classmethod
    def vp(cls, beta_min: float = 0.1, beta_max: float = 20.0, horizon: float = 1.0) -> "NoiseSchedule":
        return cls(ScheduleKind.VP, (float(beta_min), float(beta_max)), float(horizon))

    @classmethod
    def ve(cls, sigma_min: float = 0.01, sigma_max: float = 50.0, horizon: float = 1.0) -> "NoiseSchedule":
        return cls(ScheduleKind.VE, (float(sigma_min), float(sigma_max)), float(horizon))

    @classmethod
    def brownian_bridge(cls, beta: float = 1.0, horizon: float = 1.0) -> "NoiseSchedule":
        return cls(ScheduleKind.BROWNIAN_BRIDGE, (float(beta),), float(horizon))

    # -- primitive log-space evaluations ------------------------------------

    def log_alpha(self, t: float) -> float:
        if self.kind is ScheduleKind.VP:
            b0, b1 = self.params
            return -0.5 * (b0 * t + (b1 - b0) * t * t / (2.0 * self.horizon))
        return 0.0

    def log_sigma2(self, t: float) -> float:
        """log σ_t²; raises DegenerateCoefficient where σ_t² underflows to 0."""
        if self.kind is ScheduleKind.VE:
            smin, smax = self.params
            return 2.0 * (math.log(smin) + (t / self.horizon) * math.log(smax / smin))
        if self.kind is ScheduleKind.VP:
            # σ² = 1 − α² = −expm1(2 log α), exact near t = 0
            sigma2 = -math.expm1(2.0 * self.log_alpha(t))
        else:
            beta, = self.params
            sigma2 = beta * t
        if not sigma2 > 0.0:
            raise DegenerateCoefficient(f"sigma_t^2 underflows to {sigma2} at t={t}")
        return math.log(sigma2)

    # -- derived quantities --------------------------------------------------

    def alpha(self, t: float) -> float:
        return math.exp(self.log_alpha(t))

    def sigma(self, t: float) -> float:
        return math.exp(0.5 * self.log_sigma2(t))

    def sigma2(self, t: float) -> float:
        return math.exp(self.log_sigma2(t))

    def log_snr(self, t: float) -> float:
        return 2.0 * self.log_alpha(t) - self.log_sigma2(t)

    def snr(self, t: float) -> float:
        return math.exp(self.log_snr(t))

    def f(self, t: float) -> float:
        """Drift coefficient f(t) = d log α_t / dt."""
        if self.kind is ScheduleKind.VP:
            b0, b1 = self.params
            return -0.5 * (b0 + (b1 - b0) * t / self.horizon)
        return 0.0

    def g2(self, t: float) -> float:
        """Squared diffusion g²(t) = dσ_t²/dt − 2 f(t) σ_t²."""
        if self.kind is ScheduleKind.VP:
            b0, b1 = self.params
            return b0 + (b1 - b0) * t / self.horizon
        if self.kind is ScheduleKind.VE:
            smin, smax = self.params
            return self.sigma2(t) * 2.0 * math.log(smax / smin) / self.horizon
        beta, = self.params
        return beta


@dataclass(frozen=True)
class BridgeCoeffs:
    """Bridge-kernel coefficients (a_t, b_t, c_t) and λ_t = log(b_t/c_t) at one time."""

    a: float
    b: float
    c: float
    lam: float


def _check_time(schedule: NoiseSchedule, t: float, *, endpoint_ok: bool) -> None:
    upper_ok = t <= schedule.horizon if endpoint_ok else t < schedule.horizon
    if not (t > 0.0 and upper_ok):
        raise TimeOutOfRange(
            f"t={t} outside valid range (0, {schedule.horizon}{']' if endpoint_ok else ')'}"
        )


@functools.lru_cache(maxsize=65536)
def coeffs(schedule: NoiseSchedule, t: float) -> BridgeCoeffs:
    """Evaluate (a_t, b_t, c_t, λ_t) for 0 < t ≤ T.

    At t = T the bridge is pinned: returns exactly (1, 0, 0) with λ = −inf.
    For interior times where b_t or c_t would underflow, raises
    DegenerateCoefficient instead of returning non-finite values.
    Results are cached; schedules are immutable and hashable.
    """
    _check_time(schedule, t, endpoint_ok=True)
    T = schedule.horizon
    if t == T:
        return BridgeCoeffs(a=1.0, b=0.0, c=0.0, lam=-math.inf)
    # snr_gap = 1 − SNR_T/SNR_t, computed in log space
    dls = schedule.log_snr(T) - schedule.log_snr(t)
    snr_gap = -math.expm1(dls)
    a = math.exp(schedule.log_alpha(t) - schedule.log_alpha(T) + dls)
    b = schedule.alpha(t) * snr_gap
    c = schedule.sigma(t) * math.sqrt(snr_gap) if snr_gap > 0.0 else 0.0
    if b < _COEF_FLOOR or c < _COEF_FLOOR:
        raise DegenerateCoefficient(f"b_t={b}, c_t={c} degenerate at t={t}")
    lam = 0.5 * (schedule.log_snr(t) + math.log(snr_gap))
    return BridgeCoeffs(a=a, b=b, c=c, lam=lam)


def lambda_of(schedule: NoiseSchedule, t: float) -> float:
    """λ_t = log(b_t/c_t) = ½ log(SNR_t − SNR_T), strictly decreasing on (0, T).

    The value is :func:`coeffs`' ``lam``; unlike :func:`coeffs`, the endpoint
    t = T (where λ = −inf) is rejected.
    """
    _check_time(schedule, t, endpoint_ok=False)
    return coeffs(schedule, t).lam


def time_of_lambda(schedule: NoiseSchedule, lam: float) -> float:
    """Invert λ_t by bracketed root-finding on the monotone map t ↦ λ_t.

    Raises NotBracketed when ``lam`` lies outside the range attainable on
    the open interval (0, T).
    """
    T = schedule.horizon
    lo = T * 1e-14
    hi = T * (1.0 - 1e-14)
    f_lo = lambda_of(schedule, lo) - lam
    f_hi = lambda_of(schedule, hi) - lam
    if f_lo * f_hi > 0.0:
        raise NotBracketed(f"lambda={lam} outside attainable range ({lam + f_hi}, {lam + f_lo})")
    # imported on use: scipy.optimize is a large share of the package's
    # import time and nothing else needs it
    from scipy.optimize import brentq

    root = brentq(lambda s: lambda_of(schedule, s) - lam, lo, hi, xtol=1e-15 * T, rtol=8.9e-16)
    return float(root)


class GridKind(enum.Enum):
    UNIFORM_WITH_BOOT_STEP = "uniform_boot"
    EDM_POWER = "edm_power"


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times t_0 < … < t_N (N ≥ 1) as Python floats, checked on construction."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(map(float, self.times))
        if len(times) < 2:
            raise InvalidGridParams(f"a grid needs at least two times, got {len(times)}")
        for n, (lo, hi) in enumerate(zip(times, times[1:])):
            if not lo < hi:  # name one pair, never the tuple: a grid may hold 10⁶ times
                raise InvalidGridParams(f"grid times must strictly increase, got t_{n} = {lo}, t_{n + 1} = {hi}")
        object.__setattr__(self, "times", times)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def t_max(self) -> float:
        return self.times[-1]


def make_grid(
    kind: GridKind,
    n_steps: int,
    t_min: float = 1e-4,
    t_max: float = 1.0,
    boot_gap: float = 1e-4,
    edm_exponent: float = 7.0,
) -> TimeGrid:
    """Build an N-step grid of N+1 times.

    ``UNIFORM_WITH_BOOT_STEP`` places t_N = t_max, t_{N−1} = t_max − boot_gap
    and spaces t_0 … t_{N−1} uniformly on [t_min, t_max − boot_gap].  The
    degenerate N = 1 grid is allowed only when t_min = t_max − boot_gap.

    ``EDM_POWER`` uses (t_max^{1/κ} + (i/N)(t_min^{1/κ} − t_max^{1/κ}))^κ,
    which reduces to a uniform grid at κ = 1; a κ that puts t_max^{1/κ}
    beyond the float range is rejected.
    """
    if n_steps < 1:
        raise InvalidGridParams(f"n_steps must be >= 1, got {n_steps}")
    if not (0.0 < t_min < t_max):
        raise InvalidGridParams(f"need 0 < t_min < t_max, got {t_min}, {t_max}")

    if kind is GridKind.UNIFORM_WITH_BOOT_STEP:
        if boot_gap <= 0.0 or t_max - boot_gap <= 0.0:
            raise InvalidGridParams(f"boot_gap={boot_gap} invalid for t_max={t_max}")
        top = t_max - boot_gap
        if n_steps == 1:
            if t_min != top:
                raise InvalidGridParams(
                    f"N=1 uniform grid requires t_min == t_max - boot_gap, got {t_min} != {top}"
                )
            times = (t_min, t_max)
        else:
            if not t_min < top:
                raise InvalidGridParams(f"need t_min < t_max - boot_gap, got {t_min} >= {top}")
            times = (*np.linspace(t_min, top, n_steps), t_max)
    elif kind is GridKind.EDM_POWER:
        kappa = float(edm_exponent)
        if kappa <= 0.0:
            raise InvalidGridParams(f"edm_exponent must be positive, got {kappa}")
        try:
            hi = t_max ** (1.0 / kappa)
        except OverflowError:  # out of the float range (where 1/κ = inf, the power is inf instead)
            hi = math.inf
        if not math.isfinite(hi):
            raise InvalidGridParams(f"t_max ** (1/edm_exponent) overflows for t_max={t_max}, edm_exponent={kappa}")
        lo = t_min ** (1.0 / kappa)
        idx = np.arange(n_steps + 1)
        desc = (hi + (idx / n_steps) * (lo - hi)) ** kappa
        # both ends exactly t_min and t_max; TimeGrid makes every time a Python float
        times = (t_min, *desc[::-1][1:-1], t_max)
    else:  # pragma: no cover - enum is closed
        raise InvalidGridParams(f"unknown grid kind {kind}")
    return TimeGrid(times)
