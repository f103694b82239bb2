"""Analytic Gaussian bridge problems and exact data predictors.

A problem fixes the conditional law of the clean state given the endpoint,

    x₀ | x_T ~ N(m(x_T), S),      m(x_T) = M x_T + m₀,

with affine m so that every deterministic sampler map stays affine and all
pushforward distributions remain exactly Gaussian.  Conditioning the bridge
kernel on this model gives closed forms for the posterior mean

    E[x₀ | x_t = x, x_T] = m + b_t S (b_t² S + c_t² I)⁻¹ (x − a_t x_T − b_t m),

the bridge marginal N(a_t x_T + b_t m, b_t² S + c_t² I), and the bridge
score: everything a sampler would normally obtain from a trained network.

``GaussianOracle.predict`` keeps x_T and m(x_T) tiled to the shape of the
batch, so each per-row constant enters as a same-shape operand: the values
are those of the (d,)-vector broadcast, bit for bit, without numpy running
one inner loop of length d per row.

The oracle keeps one capped table t → (a_t, b_t, gain b S (b² S + c² I)⁻¹,
None where c = 0).  ``prepare(table)``, which the samplers call before the
step loop, fills it from their coefficient table of the grid: it forms the
systems as stacked arrays, in blocks of bounded size, and solves each with
one LAPACK ``dposv`` call.  ``predict`` and ``linearize`` share one miss
path, ``coeffs`` and ``_gain``'s single solve, for a time not prepared: a
predictor need not have ``prepare``; the samplers call it when it exists.

``dposv`` is loaded straight from scipy's ``linalg/_flapack`` extension
module, the one ``scipy.linalg.lapack`` re-exports, so importing the oracle
does not run the ``scipy.linalg`` package ``__init__``, which pulls in
``numpy.f2py`` and ``charset_normalizer`` and was more than half of the
package's import time and about 19 MB of its resident memory.  The
extension is not left in ``sys.modules``; where its file is not found or
does not load, the oracle imports ``scipy.linalg.lapack`` instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BridgekitError,
    DegenerateCoefficient,
    DimensionMismatch,
    InvalidGridParams,
    SingularSystem,
)
from .schedule import NoiseSchedule, coeffs

_MAX_DIM = 64
_JITTER = 1e-10
# the per-time table holds at most this many entries and, at d×d doubles per
# gain, at most _GAIN_CACHE_DOUBLES doubles (128 MB): 4 096 entries at d=64
_GAIN_CACHE_MAX = 65536
_GAIN_CACHE_DOUBLES = 1 << 24
# doubles per stacked array in GaussianOracle.prepare: 1 MB, 32 systems at d=64
_STACK_ELEMS = 1 << 17
_FLAPACK = "scipy.linalg._flapack"


def _load_dposv(scipy_dirs):
    """LAPACK ``dposv`` from the ``linalg/_flapack`` extension under ``scipy_dirs``.

    Falls back to ``scipy.linalg.lapack`` when no such file exists, when the
    file does not load on its own (scipy's package ``__init__`` may be what
    makes its shared-library dependencies findable, as on Windows wheels),
    or when ``scipy.linalg`` has loaded the extension already.
    """
    paths = (
        os.path.join(root, "linalg", "_flapack" + suffix)
        for root in scipy_dirs
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    )
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is not None and _FLAPACK not in sys.modules:
        loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
        spec = importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module.dposv
        except (ImportError, OSError):
            pass
        finally:
            # single-phase init registers the module by itself, as if
            # scipy.linalg were imported; a later import of scipy.linalg
            # registers it again
            sys.modules.pop(_FLAPACK, None)
    from scipy.linalg.lapack import dposv

    return dposv


_scipy_spec = importlib.util.find_spec("scipy")
dposv = _load_dposv(_scipy_spec.submodule_search_locations if _scipy_spec else ())


@dataclass(frozen=True)
class GaussianBridgeProblem:
    """Jointly Gaussian endpoint model x₀ | x_T ~ N(M x_T + m₀, S)."""

    mix: np.ndarray
    offset: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mix = np.atleast_2d(np.asarray(self.mix, dtype=float))
        offset = np.atleast_1d(np.asarray(self.offset, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        d = offset.shape[0]
        if d > _MAX_DIM:
            raise InvalidGridParams(f"dimension {d} exceeds supported maximum {_MAX_DIM}")
        if mix.shape != (d, d) or cov.shape != (d, d):
            raise DimensionMismatch(
                f"mix {mix.shape} and cov {cov.shape} must be ({d}, {d})"
            )
        for name, value in (("mix", mix), ("offset", offset), ("cov", cov)):
            if not np.all(np.isfinite(value)):
                raise InvalidGridParams(f"{name} has non-finite entries")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12:
            raise InvalidGridParams("cov must be symmetric to 1e-12")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -1e-12:
            raise InvalidGridParams(f"cov has eigenvalue {eigvals.min()} < -1e-12")
        object.__setattr__(self, "mix", mix)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    @classmethod
    def scalar(cls, mix: float = 0.0, offset: float = 0.0, var: float = 1.0) -> "GaussianBridgeProblem":
        return cls(mix=np.array([[mix]]), offset=np.array([offset]), cov=np.array([[var]]))

    def mean_given_endpoint(self, xT: np.ndarray) -> np.ndarray:
        """m(x_T) = M x_T + m₀."""
        xT = np.asarray(xT, dtype=float)
        if xT.shape[-1] != self.dim:
            raise DimensionMismatch(f"xT dim {xT.shape[-1]} != {self.dim}")
        return xT @ self.mix.T + self.offset

    def sample_x0(self, xT: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n samples of x₀ | x_T; PSD-safe via eigendecomposition."""
        w, v = np.linalg.eigh(self.cov)
        root = v * np.sqrt(np.clip(w, 0.0, None))
        return self.mean_given_endpoint(xT) + rng.standard_normal((n, self.dim)) @ root.T


def marginal_at(
    problem: GaussianBridgeProblem, schedule: NoiseSchedule, t: float, xT: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact bridge marginal (mean, covariance) at time t given x_T."""
    k = coeffs(schedule, t)
    m = problem.mean_given_endpoint(xT)
    mean = k.a * np.asarray(xT, dtype=float) + k.b * m
    cov = k.b * k.b * problem.cov + k.c * k.c * np.eye(problem.dim)
    return mean, cov


def score_from_predictor(
    schedule: NoiseSchedule,
    x: np.ndarray,
    t: float,
    xT: np.ndarray,
    x_hat: np.ndarray,
) -> np.ndarray:
    """Bridge score implied by a data-predictor output: −(x − a x_T − b x̂)/c²."""
    k = coeffs(schedule, t)
    if k.c == 0.0:
        raise DegenerateCoefficient(f"score undefined at t={t} where c=0")
    return _score(k.a, k.b, k.c, np.asarray(x, dtype=float), np.asarray(xT, dtype=float),
                  np.asarray(x_hat, dtype=float))


def _score(a: float, b: float, c: float, x: np.ndarray, xT: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """−(x − a x_T − b x̂)/c² for the bridge coefficients (a, b, c > 0) of one time."""
    return -(x - a * xT - b * x_hat) / (c * c)


class GaussianOracle:
    """Exact data predictor E[x₀ | x_t, x_T] for a Gaussian bridge problem.

    Deterministic and pure; accepts states of shape (d,) or any batch (…, d).
    ``linearize`` exposes the affine map x ↦ P x + q of ``predict`` at a
    fixed (t, x_T), which the deterministic encoder inverts step by step.
    ``prepare`` fills the per-time table from a grid's coefficient table.
    """

    def __init__(self, problem: GaussianBridgeProblem, schedule: NoiseSchedule):
        self.problem = problem
        self.schedule = schedule
        self._by_time: dict[float, tuple[float, float, np.ndarray | None]] = {}
        self._cache_cap = min(_GAIN_CACHE_MAX, _GAIN_CACHE_DOUBLES // problem.dim ** 2)
        self._eye = np.eye(problem.dim)
        self._jittered_cov = problem.cov + _JITTER * self._eye
        # (x_T bytes, x_T shape, batch shape) -> (x_T tile, m(x_T) tile)
        self._tiles: tuple[tuple, tuple[np.ndarray, np.ndarray]] | None = None

    def predict(self, x: np.ndarray, t: float, xT: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xT = np.asarray(xT, dtype=float)
        if x.shape[-1] != self.problem.dim:
            raise DimensionMismatch(f"state dim {x.shape[-1]} != {self.problem.dim}")
        xT_tile, m_tile = self._endpoint_tiles(xT, x.shape)
        a, b, gain = self._at(t)
        if gain is None:
            # pinned endpoint: x carries no information beyond x_T
            return m_tile.copy()
        residual = x - a * xT_tile - b * m_tile
        return m_tile + residual @ gain.T

    def _endpoint_tiles(self, xT: np.ndarray, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """x_T and m(x_T) tiled to the broadcast of ``shape`` and x_T's shape.

        The last pair built is kept: a sampler calls ``predict`` with one x_T
        and one batch shape at every step.  The tiles are read-only to callers.
        """
        key = (xT.tobytes(), xT.shape, shape)
        if self._tiles is None or self._tiles[0] != key:
            m = self.problem.mean_given_endpoint(xT)
            full = np.broadcast_shapes(shape, xT.shape)
            tiles = (np.broadcast_to(xT, full).copy(), np.broadcast_to(m, full).copy())
            self._tiles = (key, tiles)
        return self._tiles[1]

    def linearize(self, t: float, xT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Affine decomposition predict(x) = P x + q at fixed (t, x_T); an (n, d) x_T gives one q per row."""
        xT = np.asarray(xT, dtype=float)
        _, m = self._endpoint_tiles(xT, xT.shape)
        a, b, P = self._at(t)
        if P is None:
            return np.zeros((self.problem.dim,) * 2), m.copy()
        return P, m - (a * xT + b * m) @ P.T

    def prepare(self, table) -> None:
        """Fill the per-time table with the (a, b, c) of ``table`` and their gains.

        Skips a table of another schedule, times where c = 0 or held already
        and systems that fail to solve, and stops at the cap: ``_at`` serves the rest.
        """
        if table.schedule != self.schedule:
            return
        held = self._by_time
        todo = [n for n, t in enumerate(table.times) if table.c[n] != 0.0 and t not in held]
        todo = todo[:self._cache_cap - len(held)]
        block = max(_STACK_ELEMS // self.problem.dim ** 2, 1)
        for lo in range(0, len(todo), block):
            rows = todo[lo:lo + block]
            for n, (gain, info) in zip(rows, self._solve([(table.b[n], table.c[n]) for n in rows])):
                if info == 0:
                    held[table.times[n]] = (table.a[n], table.b[n], gain)

    def _at(self, t: float) -> tuple[float, float, np.ndarray | None]:
        """(a_t, b_t, gain) from the per-time table; on a miss, by ``coeffs`` and ``_gain``."""
        entry = self._by_time.get(t)
        if entry is None:
            k = coeffs(self.schedule, t)
            entry = (k.a, k.b, self._gain(k.b, k.c) if k.c != 0.0 else None)
            if len(self._by_time) < self._cache_cap:
                self._by_time[t] = entry
        return entry

    def _gain(self, b: float, c: float) -> np.ndarray:
        """b S (b² S + c² I)⁻¹ by one solve; raises where the system does not solve."""
        (gain, info), = self._solve([(b, c)])
        if info > 0:
            raise SingularSystem(f"conditioning system singular at b={b}, c={c}")
        if info < 0:
            raise BridgekitError(f"LAPACK rejected argument {-info} of the gain solve at b={b}, c={c}")
        return gain

    def _solve(self, pairs: list[tuple[float, float]]) -> list[tuple[np.ndarray, int]]:
        """(gain, LAPACK info) for each (b, c) in ``pairs``.

        The systems b² S + c² I and right-hand sides b S are formed as
        stacked arrays, with the same operations per entry as the scalar
        formula; each system is solved by ``dposv``, which is ``dpotrf``
        followed by ``dpotrs`` on the upper triangle.  The problem's entries
        are checked finite on construction, so no finiteness scan is made.
        """
        bc = np.array(pairs).reshape(-1, 2, 1, 1)
        b, c = bc[:, 0], bc[:, 1]
        S = self._jittered_cov
        systems = b * b * S + c * c * self._eye
        rhs = b * S
        out = []
        for A, bS in zip(systems, rhs):
            _, solved, info = dposv(A, bS, lower=0)
            # (A⁻¹ (bS))ᵀ = bS A⁻¹ by symmetry of A and S
            out.append((solved.T, info))
        return out


class PerturbedOracle:
    """Exact oracle plus a fixed bias of norm ``eps_bias`` in a seeded direction.

    Used to study how predictor error propagates through samplers; never in
    exactness checks.
    """

    def __init__(self, base: GaussianOracle, eps_bias: float, seed: int = 0):
        self.base = base
        direction = np.random.default_rng(seed).standard_normal(base.problem.dim)
        norm = np.linalg.norm(direction)
        self.bias = eps_bias * direction / norm if norm > 0 else direction
        self.problem = base.problem
        self.schedule = base.schedule

    def predict(self, x: np.ndarray, t: float, xT: np.ndarray) -> np.ndarray:
        return self.base.predict(x, t, xT) + self.bias

    def linearize(self, t: float, xT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        P, q = self.base.linearize(t, xT)
        return P, q + self.bias

    def prepare(self, table) -> None:
        self.base.prepare(table)
