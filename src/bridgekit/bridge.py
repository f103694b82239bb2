"""Forward bridge kernel and its discretized non-Markovian generalization.

On a grid t_0 < … < t_N = T the bridge marginal N(a_t x_T + b_t x₀, c_t² I)
admits a family of joint distributions indexed by per-step standard
deviations ρ = (ρ_0, …, ρ_{N−1}) whose inference kernel from t_{n+1} down
to t_n is

    N( a_{t_n} x_T + b_{t_n} x₀
       + √(c²_{t_n} − ρ_n²) · (x_{t_{n+1}} − a_{t_{n+1}} x_T − b_{t_{n+1}} x₀) / c_{t_{n+1}},
       ρ_n² I ),

subject to the boundary restriction ρ_{N−1} = c_{t_{N−1}}.  Every member
reproduces the bridge marginals at all grid times.  A scalar η ∈ [0, 1]
interpolates the family between its deterministic (η = 0) and Markovian
(η = 1) extremes via

    ρ_n = η σ_{t_n} √(1 − SNR_{t_{n+1}} / SNR_{t_n}).

This module holds each kernel formula once: :func:`forward_sample` is the
bridge kernel, which the samplers' boot step also draws from with the
prediction in place of x₀, and ``_kernel_mean`` is the inference-kernel
mean, which :func:`inference_kernel_mean_var` guards for outside callers
and the samplers' engine calls directly.  The chain itself runs on that
engine (:func:`bridgekit.samplers.simulate_inference_chain`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InitialStepSingularity, InvalidGridParams, ZeroRho
from .schedule import NoiseSchedule, TimeGrid, coeffs


@dataclass(frozen=True)
class VarianceParam:
    """Per-step standard deviations ρ_0 … ρ_{N−1} with ρ_{N−1} = c_{t_{N−1}}."""

    eta: float
    rhos: tuple[float, ...]


def eta_rho(schedule: NoiseSchedule, t_n: float, t_next: float, eta: float) -> float:
    """ρ_n = η σ_{t_n} √(1 − SNR_{t_{n+1}}/SNR_{t_n}) for a single step t_n < t_{n+1}."""
    ratio = math.exp(schedule.log_snr(t_next) - schedule.log_snr(t_n))
    return eta * schedule.sigma(t_n) * math.sqrt(max(1.0 - ratio, 0.0))


def make_rhos(schedule: NoiseSchedule, grid: TimeGrid, eta: float) -> VarianceParam:
    """Build the η-interpolated variance schedule on a grid.

    The final entry is always overridden to c_{t_{N−1}}, the only choice
    consistent with the pinned endpoint.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidGridParams(f"eta must lie in [0, 1], got {eta}")
    ts = grid.times
    rhos = [eta_rho(schedule, ts[n], ts[n + 1], eta) for n in range(grid.n_steps - 1)]
    rhos.append(coeffs(schedule, ts[grid.n_steps - 1]).c)
    return VarianceParam(eta=float(eta), rhos=tuple(rhos))


def forward_sample(
    schedule: NoiseSchedule,
    x0: np.ndarray,
    xT: np.ndarray,
    t: float,
    noise: np.ndarray,
) -> np.ndarray:
    """Draw from the bridge kernel: a_t x_T + b_t x₀ + c_t · noise.

    The inputs broadcast against each other, so a (d,) x₀ or x_T serves a
    whole (n, d) batch of noises.
    """
    x0 = np.asarray(x0, dtype=float)
    xT = np.asarray(xT, dtype=float)
    noise = np.asarray(noise, dtype=float)
    try:
        np.broadcast_shapes(x0.shape, xT.shape, noise.shape)
    except ValueError as exc:
        raise DimensionMismatch(
            f"shapes do not broadcast: x0 {x0.shape}, xT {xT.shape}, noise {noise.shape}"
        ) from exc
    k = coeffs(schedule, t)
    return k.a * xT + k.b * x0 + k.c * noise


def _kernel_mean(a_n, b_n, c_n, a_m, b_m, c_m, rho_n, x_next, xT, x0):
    """Inference-kernel mean a_n x_T + b_n x₀ + √(c_n² − ρ_n²)(x_{n+1} − a_m x_T − b_m x₀)/c_m.

    ``*_n`` are the coefficients at t_n and ``*_m`` those at t_{n+1}.  The
    samplers and the inference chain all call this one implementation, and
    their output bytes depend on its operation order.
    """
    root = math.sqrt(max(c_n * c_n - rho_n * rho_n, 0.0))
    return a_n * xT + b_n * x0 + root * (x_next - a_m * xT - b_m * x0) / c_m


def inference_kernel_mean_var(
    schedule: NoiseSchedule,
    rho_n: float,
    x0: np.ndarray,
    x_next: np.ndarray,
    xT: np.ndarray,
    t_n: float,
    t_next: float,
) -> tuple[np.ndarray, float]:
    """Mean and variance of the inference kernel from t_{n+1} down to t_n.

    Requires t_{n+1} < T, where c_{t_{n+1}} > 0; the initial step out of
    t = T must instead go through the boot step, since the residual is
    undefined there.  ρ_n may not exceed c_{t_n}.
    """
    if not t_next > t_n:
        raise InvalidGridParams(f"need t_next > t_n, got {t_next} <= {t_n}")
    if t_next >= schedule.horizon:
        raise InitialStepSingularity(
            f"step from t={t_next} >= T is singular; route it through the boot step"
        )
    kn = coeffs(schedule, t_n)
    km = coeffs(schedule, t_next)
    if rho_n > kn.c * (1.0 + 1e-12):
        raise InvalidGridParams(f"rho_n={rho_n} exceeds c_t={kn.c}")
    x0 = np.asarray(x0, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    xT = np.asarray(xT, dtype=float)
    mean = _kernel_mean(kn.a, kn.b, kn.c, km.a, km.b, km.c, rho_n, x_next, xT, x0)
    return mean, float(rho_n * rho_n)


def markov_x0_coefficient(
    schedule: NoiseSchedule, rho_n: float, t_n: float, t_next: float
) -> float:
    """Coefficient of x₀ in the gradient of the induced forward log-kernel.

    The forward transition obtained from the inference kernel by Bayes' rule
    depends on x₀ exactly through

        (b_{t_{n+1}} c²_{t_n} − b_{t_n} c_{t_{n+1}} √(c²_{t_n} − ρ_n²)) / (c²_{t_{n+1}} ρ_n²),

    which vanishes precisely at the Markovian choice of ρ_n.  Undefined at
    ρ_n = 0.
    """
    if rho_n == 0.0:
        raise ZeroRho("x0 coefficient is undefined at rho_n = 0")
    kn = coeffs(schedule, t_n)
    km = coeffs(schedule, t_next)
    if km.c == 0.0:
        raise InitialStepSingularity(f"c=0 at t={t_next}")
    root = math.sqrt(max(kn.c * kn.c - rho_n * rho_n, 0.0))
    return (km.b * kn.c * kn.c - kn.b * km.c * root) / (km.c * km.c * rho_n * rho_n)


def vi_weight(schedule: NoiseSchedule, grid: TimeGrid, rhos: VarianceParam, n: int) -> float:
    """Variational per-step weight γ(t_n) for 1 ≤ n ≤ N.

    γ(t_n) = d²_{n−1} c⁴_{t_n} / (2 ρ²_{n−1} b²_{t_n}) with
    d_{n−1} = b_{t_{n−1}} − √(c²_{t_{n−1}} − ρ²_{n−1}) b_{t_n} / c_{t_n} and
    d_0 = 1 by definition.  The ratio c²_t/b_t equals σ_t²/α_t, which keeps
    the weight finite at t_N = T.
    """
    N = grid.n_steps
    if not 1 <= n <= N:
        raise InvalidGridParams(f"n must lie in [1, {N}], got {n}")
    rho = rhos.rhos[n - 1]
    if rho == 0.0:
        raise ZeroRho("variational weight is undefined at rho = 0")
    t_n = grid.times[n]
    if n == 1:
        d = 1.0
    else:
        t_prev = grid.times[n - 1]
        k_prev = coeffs(schedule, t_prev)
        k_n = coeffs(schedule, t_n)
        root = math.sqrt(max(k_prev.c * k_prev.c - rho * rho, 0.0))
        # b_t/c_t = exp(λ_t); exactly 0 at t = T where λ = −inf
        d = k_prev.b - root * math.exp(k_n.lam)
    c2_over_b = schedule.sigma2(t_n) / schedule.alpha(t_n)
    return d * d * c2_over_b * c2_over_b / (2.0 * rho * rho)

