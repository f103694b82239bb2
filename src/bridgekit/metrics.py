"""Quantitative checks: Gaussian distances, moment reports, order fits, diversity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidGridParams, SingularCovariance


@dataclass
class MomentReport:
    """Empirical vs target first/second moments of a sample batch at one time."""

    t: float
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    target_mean: np.ndarray
    target_cov: np.ndarray
    n_samples: int
    z_scores: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z_scores)))


def _as_cov(cov, d: int) -> np.ndarray:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape != (d, d):
        raise DimensionMismatch(f"covariance shape {cov.shape} != ({d}, {d})")
    return cov


def gaussian_kl(mean_a, cov_a, mean_b, cov_b) -> float:
    """KL divergence between Gaussians, ½[tr + quad − d + log-det ratio]."""
    mean_a = np.atleast_1d(np.asarray(mean_a, dtype=float))
    mean_b = np.atleast_1d(np.asarray(mean_b, dtype=float))
    d = mean_a.shape[0]
    cov_a = _as_cov(cov_a, d)
    cov_b = _as_cov(cov_b, d)
    sign_b, logdet_b = np.linalg.slogdet(cov_b)
    if sign_b <= 0:
        raise SingularCovariance("cov_b must be positive definite")
    sign_a, logdet_a = np.linalg.slogdet(cov_a)
    if sign_a <= 0:
        return math.inf
    binv = np.linalg.inv(cov_b)
    diff = mean_b - mean_a
    kl = 0.5 * (np.trace(binv @ cov_a) + diff @ binv @ diff - d + logdet_b - logdet_a)
    return max(float(kl), 0.0)


def wasserstein2_gaussian(mean_a, cov_a, mean_b, cov_b) -> float:
    """2-Wasserstein distance between Gaussians (Bures closed form)."""
    mean_a = np.atleast_1d(np.asarray(mean_a, dtype=float))
    mean_b = np.atleast_1d(np.asarray(mean_b, dtype=float))
    d = mean_a.shape[0]
    cov_a = _as_cov(cov_a, d)
    cov_b = _as_cov(cov_b, d)
    # The Bures term tr A + tr B − 2 tr √(√B A √B) is min ‖√A − U √B‖²_F over
    # orthogonal U, attained at U = P Qᵀ where √A √B = P Σ Qᵀ.  As a sum of
    # squares it does not cancel to a rounding residue for close A and B.
    root_a = _psd_sqrt(cov_a)
    root_b = _psd_sqrt(cov_b)
    p, _, qt = np.linalg.svd(root_a @ root_b)
    bures = float(np.sum((root_a - p @ qt @ root_b) ** 2))
    return math.sqrt(float(np.sum((mean_a - mean_b) ** 2)) + bures)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of the symmetric part of ``mat``, negative eigenvalues clipped to 0."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def fit_order(step_counts, errors) -> float:
    """Least-squares slope of log error against log step size (1/N)."""
    ns = np.asarray(step_counts, dtype=float)
    es = np.asarray(errors, dtype=float)
    if ns.shape != es.shape or ns.size < 3:
        raise InvalidGridParams("need at least 3 matching (step count, error) pairs")
    if np.any(ns <= 0) or np.any(es <= 0):
        raise InvalidGridParams("step counts and errors must be positive")
    slope, _ = np.polyfit(np.log(1.0 / ns), np.log(es), 1)
    return float(slope)


def diversity_score(samples) -> float:
    """Mean per-coordinate population standard deviation across samples."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise DimensionMismatch(f"need a (n >= 2, d) sample array, got shape {arr.shape}")
    return float(np.std(arr, axis=0, ddof=0).mean())


def moment_check(batch, t: float, target_mean, target_cov) -> MomentReport:
    """Compare empirical moments of a batch with a target Gaussian.

    z-scores are per-coordinate mean deviations in units of the target's
    Monte Carlo standard error σ/√n; covariance uses the unbiased estimate.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] < 2:
        raise DimensionMismatch(f"need a (n >= 2, d) batch, got shape {batch.shape}")
    n, d = batch.shape
    target_mean = np.atleast_1d(np.asarray(target_mean, dtype=float))
    target_cov = _as_cov(target_cov, d)
    emp_mean = batch.mean(axis=0)
    emp_cov = np.cov(batch, rowvar=False, ddof=1).reshape(d, d)
    se = np.sqrt(np.diag(target_cov) / n)
    dev = emp_mean - target_mean
    z = np.where(se > 0, dev / np.where(se > 0, se, 1.0), np.where(dev == 0, 0.0, np.inf))
    return MomentReport(
        t=t,
        empirical_mean=emp_mean,
        empirical_cov=emp_cov,
        target_mean=target_mean,
        target_cov=target_cov,
        n_samples=n,
        z_scores=z,
    )
