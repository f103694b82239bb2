"""Diffusion-bridge implicit samplers with analytic Gaussian oracles.

The package is organized in coefficient order: :mod:`~bridgekit.schedule`
defines noise schedules, bridge coefficients and timestep grids;
:mod:`~bridgekit.bridge` the discretized non-Markovian kernel family;
:mod:`~bridgekit.oracle` exact Gaussian data predictors standing in for a
trained network; :mod:`~bridgekit.samplers` the generation procedures;
:mod:`~bridgekit.metrics` the quantitative checks; and :mod:`~bridgekit.cli`
the experiment harness.

Importing the package loads numpy's and the oracle's OpenBLAS with
``OPENBLAS_THREAD_TIMEOUT`` set to 4 unless it is already set, so their
idle worker threads sleep at once instead of busy-waiting for about 0.1 s
of CPU each; thread counts are unchanged, and the variable is removed
from ``os.environ`` again once the submodules are imported.
"""

import os as _os

# OpenBLAS reads this once, when the library loads: numpy's at the first
# ``import numpy`` (in ``schedule``), scipy's when ``oracle`` loads ``dposv``.
# An idle worker then waits 2**4 cycles, not 2**28, before it sleeps (the
# value is clamped to [4, 30]).
_BLAS_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
_set_timeout = _BLAS_TIMEOUT not in _os.environ
if _set_timeout:
    _os.environ[_BLAS_TIMEOUT] = "4"
try:
    from . import errors
    from .schedule import (
        BridgeCoeffs,
        GridKind,
        NoiseSchedule,
        ScheduleKind,
        TimeGrid,
        coeffs,
        lambda_of,
        make_grid,
        time_of_lambda,
    )
    from .bridge import (
        VarianceParam,
        eta_rho,
        forward_sample,
        inference_kernel_mean_var,
        make_rhos,
        markov_x0_coefficient,
        vi_weight,
    )
    from .oracle import (
        GaussianBridgeProblem,
        GaussianOracle,
        PerturbedOracle,
        marginal_at,
        score_from_predictor,
    )
    from .samplers import (
        Method,
        SamplerConfig,
        Trajectory,
        decode,
        drift_dbim,
        drift_pfode,
        encode,
        run_sampler,
        sample_batch,
        simulate_inference_chain,
        slerp_interpolate,
        taylor_integral,
    )
    from .metrics import (
        MomentReport,
        diversity_score,
        fit_order,
        gaussian_kl,
        moment_check,
        wasserstein2_gaussian,
    )
finally:
    if _set_timeout:
        del _os.environ[_BLAS_TIMEOUT]

__version__ = "0.1.0"

__all__ = [
    "BridgeCoeffs",
    "GaussianBridgeProblem",
    "GaussianOracle",
    "GridKind",
    "Method",
    "MomentReport",
    "NoiseSchedule",
    "PerturbedOracle",
    "SamplerConfig",
    "ScheduleKind",
    "TimeGrid",
    "Trajectory",
    "VarianceParam",
    "coeffs",
    "decode",
    "diversity_score",
    "drift_dbim",
    "drift_pfode",
    "encode",
    "errors",
    "eta_rho",
    "fit_order",
    "forward_sample",
    "gaussian_kl",
    "inference_kernel_mean_var",
    "lambda_of",
    "make_grid",
    "make_rhos",
    "marginal_at",
    "markov_x0_coefficient",
    "moment_check",
    "run_sampler",
    "sample_batch",
    "score_from_predictor",
    "simulate_inference_chain",
    "slerp_interpolate",
    "taylor_integral",
    "time_of_lambda",
    "vi_weight",
    "wasserstein2_gaussian",
]
