"""Generation procedures over the bridge coefficient layer.

All samplers share one structure: a stochastic *boot step* leaves the pinned
endpoint t = T (where the kernel residual is singular) by drawing

    x_{t_{N−1}} = a x_T + b x̂_T + c ε,      x̂_T = predictor(x_T, T, x_T),

with ε the *booting noise*, the latent variable of deterministic sampling
(a draw from the bridge kernel, :func:`~bridgekit.bridge.forward_sample`,
with x̂_T in place of x₀), and then walk the remaining grid down to t_0:

* first-order implicit updates at any stochasticity level η (``DBIM1``):
  the inference-kernel mean (``bridge._kernel_mean``) with x̂ in place of
  x₀, plus ρ_n-scaled noise;
* second/third-order exponential-integrator steps in the variable
  λ_t = log(b_t/c_t), with derivatives estimated by finite differences of
  stored predictor outputs (``DBIM2``/``DBIM3``);
* explicit Euler/Heun on the probability-flow ODE and Euler–Maruyama on the
  reverse SDE as baselines; the two drifts share one body and differ only
  in the weight on the score (½ for the ODE, 1 for the SDE).

Each step is written once.  The boot step lives only in the engine (a boot
from a chosen noise is ``decode`` on the one-step grid (t_{N−1}, T)); the
dbim1 update's guarded public form is
:func:`~bridgekit.bridge.inference_kernel_mean_var`; the dbim2/dbim3 update
calls :func:`taylor_integral`.  Every entry rejects a grid not ending at the
schedule's horizon; a short or unordered ``TimeGrid`` cannot be built.

One engine runs every forward chain: it advances the whole (n_traj, d)
batch one grid step at a time on the calling thread, with one predictor
call per step (two for Heun).  The updates take x_T tiled to the
(n_traj, d) batch: the same bits as broadcasting the (d,) vector, without
numpy running one inner loop of length d per row.  The engine takes its
per-step noise as a callable ``normals(tag, step, shape)``, or None when a
run draws none.  ``sample_batch`` passes counter-based Philox noise: every
(seed, step, trajectory-chunk) triple maps to its own counter block, so a
row's noise does not depend on the batch size.  ``decode`` passes None,
and ``simulate_inference_chain`` (dbim1 with the true x₀ as its
prediction) passes draws from a numpy generator.

Work that depends only on the grid is done once per run: every method,
the ODE/SDE baselines included, reads its coefficients as Python floats
from one table, ``_GridCoeffs``, and no step looks up ``coeffs``.  The
engine (and ``encode``) hands the table to a predictor's optional
``prepare(table)`` hook before the step loop, outside the predictor-call
count.  A predictor needs only ``predict(x, t, xT)``, and ``encode`` also
``linearize(t, xT)``.  The dbim3 update reuses the divided difference the
previous step formed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps its ~50 ms out of
# the first run of each process
import numpy.random  # noqa: F401

from .errors import (
    BridgekitError,
    DegenerateCoefficient,
    DimensionMismatch,
    InvalidGridParams,
    NonpositiveStep,
    SingularSystem,
    ZeroVector,
)
from .bridge import _kernel_mean, forward_sample, make_rhos
from .oracle import _score
from .schedule import NoiseSchedule, TimeGrid, coeffs

# rows per noise key; fixed, because every noisy output byte depends on it
_CHUNK = 256
_BOOT_TAG = 1
_STEP_TAG = 2
_SMALL_H = 1e-4

# glibc's malloc serves blocks above its mmap threshold (128 KB at start)
# with mmap, and freeing such a block raises that threshold to the block's
# size and the heap-trim threshold to twice it.  Without one such free, a
# batch whose per-step temporaries pass 128 KB (12 800 × 2 doubles) has the
# heap top trimmed and faulted back in at every step: about 4 900 page
# faults per 40-step run, against about 260 after this 1 MB block, which
# np.empty never touches.  Other allocators just allocate and free it.
np.empty(1 << 17)


class Method(enum.Enum):
    DBIM1 = "dbim1"
    DBIM2 = "dbim2"
    DBIM3 = "dbim3"
    PF_ODE_EULER = "pf_ode_euler"
    PF_ODE_HEUN = "pf_ode_heun"
    SDE_EULER_MARUYAMA = "sde_euler_maruyama"


_ORDER = {Method.DBIM2: 2, Method.DBIM3: 3}


@dataclass(frozen=True)
class SamplerConfig:
    """Method, stochasticity level, grid, and seed for one sampling run.

    η indexes only the ``dbim1`` family; every other method takes η = 0, and
    a nonzero η with one of them raises InvalidGridParams.
    """

    method: Method
    grid: TimeGrid
    seed: int
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidGridParams(f"eta must lie in [0, 1], got {self.eta}")
        if self.method is not Method.DBIM1 and self.eta != 0.0:
            raise InvalidGridParams(f"eta applies to dbim1 only; {self.method.value} got eta={self.eta}")
        order = _ORDER.get(self.method)
        if order is not None and self.grid.n_steps < order:
            raise InvalidGridParams(
                f"{self.method.value} needs at least {order} steps, got {self.grid.n_steps}"
            )


@dataclass
class Trajectory:
    """States (t, x) from t_N down to t_0, the boot noise, and the call count."""

    states: list[tuple[float, np.ndarray]]
    boot_noise: np.ndarray
    predictor_calls: int

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1][1]


# ---------------------------------------------------------------------------
# counter-based noise
# ---------------------------------------------------------------------------


class _Philox:
    """One Philox generator keyed by a seed and re-keyed per counter block.

    The key is copied from a constructed generator's state:
    ``Philox(key=(int, int))`` rounds each key word through float64, and
    every output byte depends on the rounded key.
    """

    def __init__(self, seed: int):
        k = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self.bit_generator = np.random.Philox(key=(int(k[0]), int(k[1])))
        self.generator = np.random.Generator(self.bit_generator)
        self.fresh_state = self.bit_generator.state

    def normals(self, tag: int, step: int, shape: tuple[int, int]) -> np.ndarray:
        """Standard normals; the rows of chunk i come from counter block (0, step, i, tag)."""
        out = np.empty(shape)
        for chunk, lo in enumerate(range(0, shape[0], _CHUNK)):
            _noise(self, tag, step, chunk, out[lo:lo + _CHUNK])
        return out


def _noise(philox: _Philox, tag: int, step: int, chunk: int, out: np.ndarray) -> None:
    """Fill ``out`` with the normals of counter block (0, step, chunk, tag)."""
    philox.fresh_state["state"]["counter"] = [0, step, chunk, tag]
    philox.bit_generator.state = philox.fresh_state
    philox.generator.standard_normal(out=out)


@dataclass(frozen=True)
class _GridCoeffs:
    """Bridge coefficients of ``schedule`` at every grid time, as Python floats; lam[N] = −inf.

    ``build`` rejects, for every engine entry and the config loader, a grid not
    ending at the schedule's horizon (``TimeGrid`` rejects short or unordered ones).
    It keeps the last table it built (``lru_cache(maxsize=1)``) and returns
    it again for an equal (schedule, grid), so the loader, the engine and
    every ``encode``/``decode`` of a run share one table; a build that raises
    keeps nothing.
    The engine and ``encode`` index these tuples, which is cheaper than making
    numpy scalars, and hand the table to a predictor's ``prepare`` hook.
    """

    schedule: NoiseSchedule
    times: tuple[float, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    lam: tuple[float, ...]

    @classmethod
    @functools.lru_cache(maxsize=1)
    def build(cls, schedule: NoiseSchedule, grid: TimeGrid) -> "_GridCoeffs":
        if grid.t_max != schedule.horizon:
            raise InvalidGridParams(
                f"grid t_max={grid.t_max} must equal the schedule horizon {schedule.horizon}"
            )
        ks = [coeffs(schedule, t) for t in grid.times]
        return cls(
            schedule=schedule,
            times=grid.times,
            a=tuple([k.a for k in ks]),
            b=tuple([k.b for k in ks]),
            c=tuple([k.c for k in ks]),
            lam=tuple([k.lam for k in ks]),
        )


# ---------------------------------------------------------------------------
# exponential-integrator pieces
# ---------------------------------------------------------------------------


def _phi1(h: float) -> float:
    return -math.expm1(-h)


def _phi2(h: float) -> float:
    if h < _SMALL_H:
        return h * h / 2.0 - h ** 3 / 6.0 + h ** 4 / 24.0
    return h - 1.0 + math.exp(-h)


def _phi3(h: float) -> float:
    if h < _SMALL_H:
        return h ** 3 / 6.0 - h ** 4 / 24.0 + h ** 5 / 120.0
    return h * h / 2.0 - h + 1.0 - math.exp(-h)


def taylor_integral(
    lam_s: float,
    lam_t: float,
    x_hat: np.ndarray,
    x_hat_d1: np.ndarray,
    x_hat_d2: np.ndarray | None = None,
) -> np.ndarray:
    """Approximate ∫ e^λ x̂(λ) dλ from λ_t up to λ_s by a Taylor step.

    Order 2 uses the value and first λ-derivative of the prediction; the
    step is order 3 exactly when the second derivative ``x_hat_d2`` is
    given.  The weights 1−e⁻ʰ, h−1+e⁻ʰ and h²/2−h+1−e⁻ʰ are evaluated by
    series below h = 1e-4 to avoid cancellation.  The dbim2/dbim3 engine
    steps call this function.
    """
    h = lam_s - lam_t
    if not h > 0.0:
        raise NonpositiveStep(f"need lam_s > lam_t, got h={h}")
    out = _phi1(h) * x_hat + _phi2(h) * x_hat_d1
    if x_hat_d2 is not None:
        out = out + _phi3(h) * x_hat_d2
    return math.exp(lam_s) * out


# ---------------------------------------------------------------------------
# drifts
# ---------------------------------------------------------------------------


def drift_dbim(schedule: NoiseSchedule, predictor, x: np.ndarray, t: float, xT: np.ndarray) -> np.ndarray:
    """Continuous-time limit drift of the deterministic implicit sampler.

    Uses the closed forms c'/c = f + g²/σ² − g²/(2c²),
    a' − a c'/c = (g²/2c²) a and b' − b c'/c = −(g²/2c²) b.
    """
    k = coeffs(schedule, t)
    if k.c == 0.0:
        raise DegenerateCoefficient(f"drift undefined at t={t} where c=0")
    x = np.asarray(x, dtype=float)
    xT = np.asarray(xT, dtype=float)
    f = schedule.f(t)
    g2 = schedule.g2(t)
    half = g2 / (2.0 * k.c * k.c)
    c_ratio = f + g2 / schedule.sigma2(t) - half
    x_hat = predictor.predict(x, t, xT)
    return c_ratio * x + half * k.a * xT - half * k.b * x_hat


def _reverse_drift(schedule: NoiseSchedule, predictor, x, t: float, xT, a: float, b: float, c: float,
                   score_weight: float) -> np.ndarray:
    """f x − g² (w s(x) − ∇ log q_{T|t}), from the bridge coefficients (a, b, c > 0) at t.

    The score s is obtained from the data predictor, and the h-transform
    gradient is ∇ log q_{T|t}(x_T | x_t) = −a ((α_T/α_t) x − x_T)/c².  The
    weight w on the score is ½ for the probability-flow ODE and 1 for the
    reverse SDE; the two drifts differ in nothing else.
    """
    x_hat = predictor.predict(x, t, xT)
    score = _score(a, b, c, x, xT, x_hat)
    alpha_ratio = math.exp(schedule.log_alpha(schedule.horizon) - schedule.log_alpha(t))
    h_grad = -a * (alpha_ratio * x - xT) / (c * c)
    return schedule.f(t) * x - schedule.g2(t) * (score_weight * score - h_grad)


def drift_pfode(schedule: NoiseSchedule, predictor, x: np.ndarray, t: float, xT: np.ndarray) -> np.ndarray:
    """Probability-flow ODE drift assembled from its score and pinning pieces.

    Independently coded from :func:`drift_dbim`:
    f x − g² (½ s(x) − ∇ log q_{T|t}) with the score obtained from the data
    predictor.
    """
    k = coeffs(schedule, t)
    if k.c == 0.0:
        raise DegenerateCoefficient(f"drift undefined at t={t} where c=0")
    x = np.asarray(x, dtype=float)
    xT = np.asarray(xT, dtype=float)
    return _reverse_drift(schedule, predictor, x, t, xT, k.a, k.b, k.c, 0.5)


# ---------------------------------------------------------------------------
# step-major engine
# ---------------------------------------------------------------------------


def _prepare(predictor, table: _GridCoeffs) -> None:
    """Hand ``predictor`` the coefficient table if it has a ``prepare`` hook.

    Called on the predictor itself, not through the counter: it is not a prediction.
    """
    prepare = getattr(predictor, "prepare", None)
    if prepare is not None:
        prepare(table)


class _CountingPredictor:
    """Counts ``predict`` calls; every other attribute is the wrapped predictor's."""

    def __init__(self, predictor):
        self.predictor = predictor
        self.calls = 0

    def predict(self, x, t, xT):
        self.calls += 1
        return self.predictor.predict(x, t, xT)

    def __getattr__(self, name):
        # reached only for names the counter lacks, such as prepare and linearize
        return getattr(self.predictor, name)


def _run_chunk(method, grid, eta, schedule, predictor, xT, eps_boot, normals, record):
    """Carry boot noises ``eps_boot`` (shape (n, d), or (d,) for one state) from T to t_0.

    The whole batch advances one grid step at a time, with one predictor
    call per step (two for Heun).  It builds the coefficient table, from
    which every method reads (a, b, c) at each grid time (Heun's corrector
    those at t_{i−1}), and, for dbim1, ρ as ``make_rhos`` gives it at
    ``eta``.  Per-step noise comes from
    ``normals(tag, step, shape)`` (None for a run that draws none): dbim1
    asks for ``(_STEP_TAG, i − 1)`` on each step leaving t_i whose ρ_{i−1}
    is positive, and Euler–Maruyama for ``(_STEP_TAG, i)`` on every step.
    Returns ``(terminal, predictor calls per trajectory, states)``, where
    ``states`` lists the state at every grid time below T when ``record`` is
    set and is None otherwise.
    """
    gc = _GridCoeffs.build(schedule, grid)
    rhos = make_rhos(schedule, grid, eta).rhos if method is Method.DBIM1 else None
    N = grid.n_steps
    _prepare(predictor, gc)
    pred = _CountingPredictor(predictor)
    a, b, c, lam = gc.a, gc.b, gc.c, gc.lam
    x_hat = pred.predict(xT, gc.times[N], xT)
    x = forward_sample(schedule, x_hat, xT, gc.times[N - 1], eps_boot)
    states = [x] if record else None
    order = _ORDER.get(method)
    # dbim2/3 history: the prediction at t_{i+1}, starting from the boot
    # prediction at λ = −inf, and for dbim3 the divided difference of the
    # predictions at t_{i+1} and t_{i+2}
    newer = x_hat
    d_far = None
    # x_T tiled to the batch for the updates (same values as the broadcast);
    # predict keeps the (d,) x_T, since a tiled one would compute m(x_T) as a
    # batched product, which can round differently
    xT_tile = np.broadcast_to(xT, x.shape).copy()
    for i in range(N - 1, 0, -1):
        t_hi, t_lo = gc.times[i], gc.times[i - 1]
        if method is Method.DBIM1:
            x_hat = pred.predict(x, t_hi, xT)
            x = _kernel_mean(
                a[i - 1], b[i - 1], c[i - 1], a[i], b[i], c[i], rhos[i - 1], x, xT_tile, x_hat,
            )
            if rhos[i - 1] > 0.0:
                x = x + rhos[i - 1] * normals(_STEP_TAG, i - 1, x.shape)
        elif order is not None:
            x_hat = pred.predict(x, t_hi, xT)
            # divided differences in λ.  Toward the pinned endpoint every
            # prediction behaves as x̂(λ) = x̂_T + e^λ ψ(λ) with ψ smooth, so
            # against the boot prediction at λ = −inf the consistent limit of
            # the first difference is x̂_t − x̂_T itself (relative error
            # O(e^{2λ_t})), and dbim3's first two steps take no curvature
            if i == N - 1:
                d_near = x_hat - newer
            else:
                d_near = (x_hat - newer) / (lam[i] - lam[i + 1])
            d1, d2 = d_near, None
            if order == 3 and i < N - 2:
                h1, h2 = lam[i] - lam[i + 1], lam[i + 1] - lam[i + 2]
                d1 = (d_near * (2.0 * h1 + h2) - d_far * h1) / (h1 + h2)
                d2 = 2.0 * (d_near - d_far) / (h1 + h2)
            d_far = d_near
            integral = taylor_integral(lam[i - 1], lam[i], x_hat, d1, d2)
            newer = x_hat
            c_ratio = c[i - 1] / c[i]
            x = c_ratio * x + (a[i - 1] - c_ratio * a[i]) * xT_tile + c[i - 1] * integral
        elif method is Method.SDE_EULER_MARUYAMA:
            dt = t_lo - t_hi
            v = _reverse_drift(schedule, pred, x, t_hi, xT, a[i], b[i], c[i], 1.0)
            g = math.sqrt(schedule.g2(t_hi))
            x = x + dt * v + g * math.sqrt(-dt) * normals(_STEP_TAG, i, x.shape)
        else:
            dt = t_lo - t_hi
            v1 = _reverse_drift(schedule, pred, x, t_hi, xT, a[i], b[i], c[i], 0.5)
            if method is Method.PF_ODE_EULER:
                x = x + dt * v1
            else:
                v2 = _reverse_drift(schedule, pred, x + dt * v1, t_lo, xT, a[i - 1], b[i - 1], c[i - 1], 0.5)
                x = x + 0.5 * dt * (v1 + v2)
        if record:
            states.append(x)
    return x, pred.calls, states


def sample_batch(
    config: SamplerConfig,
    schedule: NoiseSchedule,
    predictor,
    xT: np.ndarray,
    n_traj: int,
    record: bool = False,
):
    """Run ``n_traj`` trajectories of the configured sampler.

    Returns ``(terminal, boot_noise, calls_per_traj)`` with shapes
    (n_traj, d) and, when ``record`` is set, additionally the full state
    stack of shape (N, n_traj, d) over grid times below T.  Noise for rows
    in fixed-size chunks is keyed by (seed, step, chunk), so each row's
    noise does not depend on how many rows are run.  The engine runs on
    the calling thread.
    """
    xT = np.asarray(xT, dtype=float)
    philox = _Philox(config.seed)
    boot = philox.normals(_BOOT_TAG, 0, (n_traj, xT.shape[0]))
    terminal, calls, states = _run_chunk(
        config.method, config.grid, config.eta, schedule, predictor, xT, boot, philox.normals, record
    )
    if record:
        return terminal, boot, calls, np.stack(states, axis=0)
    return terminal, boot, calls


def run_sampler(config: SamplerConfig, schedule: NoiseSchedule, predictor, xT) -> Trajectory:
    """Run one trajectory of the configured method, recording every state.

    Every method, the ODE/SDE baselines included, leaves t = T through the
    boot step, since the raw drifts are singular at the pinned endpoint; the
    boot prediction counts toward ``predictor_calls``.  The dbim2/dbim3
    derivative histories start at the boot prediction (taken at t = T,
    λ = −inf) and never cross the boot step; dbim3 falls back to the
    two-point estimate on the first step after the boot.
    """
    xT = np.asarray(xT, dtype=float)
    _, boot, calls, states = sample_batch(config, schedule, predictor, xT, 1, record=True)
    times = config.grid.times
    path = [(times[-1], xT.copy())] + [(times[-2 - i], s[0]) for i, s in enumerate(states)]
    return Trajectory(states=path, boot_noise=boot[0], predictor_calls=calls)


def simulate_inference_chain(
    schedule: NoiseSchedule,
    grid: TimeGrid,
    eta: float,
    x0: np.ndarray,
    xT: np.ndarray,
    n_traj: int,
    rng: np.random.Generator,
) -> dict[float, np.ndarray]:
    """Simulate the inference chain with the true x₀ down the grid at level η.

    This is the dbim1 engine with a predictor that returns ``x0`` and noise
    drawn from ``rng``: the boot step draws x_{t_{N−1}} from the bridge
    kernel, and each later step applies the inference kernel with the ρ_n
    that ``make_rhos`` gives at η.  Returns {t_n: (n_traj, d) states} for
    every grid time below T.  Used to check that every member of the
    η-family keeps the bridge marginals.
    """
    x0 = np.asarray(x0, dtype=float)
    xT = np.asarray(xT, dtype=float)
    true_x0 = SimpleNamespace(predict=lambda x, t, x_T: x0)
    boot = rng.standard_normal((n_traj, x0.shape[0]))
    _, _, states = _run_chunk(
        Method.DBIM1, grid, eta, schedule, true_x0, xT, boot,
        lambda tag, step, shape: rng.standard_normal(shape), True,
    )
    return dict(zip(reversed(grid.times[:-1]), states))


# ---------------------------------------------------------------------------
# deterministic encoding / decoding / interpolation
# ---------------------------------------------------------------------------


def decode(
    schedule: NoiseSchedule,
    predictor,
    eps: np.ndarray,
    xT: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Deterministic (η = 0) generation from a given booting noise."""
    xT = np.asarray(xT, dtype=float)
    eps = np.asarray(eps, dtype=float)
    x, _, _ = _run_chunk(Method.DBIM1, grid, 0.0, schedule, predictor, xT, eps, None, False)
    return x


def encode(
    schedule: NoiseSchedule,
    predictor,
    x0: np.ndarray,
    xT: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Recover the booting noise whose deterministic decode reproduces ``x0``.

    Each deterministic update is affine in the unknown upper state once the
    predictor's affine map at the upper time is known, so the recursion is
    inverted exactly step by step from t_0 up to t_{N−1}, for any finite
    x0; the booting noise is then read off the boot step.  Requires a
    predictor exposing ``linearize`` (all predictors in
    :mod:`bridgekit.oracle` do).
    """
    if not hasattr(predictor, "linearize"):
        raise BridgekitError("encode requires a predictor with a linearize(t, xT) method")
    x = np.asarray(x0, dtype=float)
    xT = np.asarray(xT, dtype=float)
    gc = _GridCoeffs.build(schedule, grid)
    _prepare(predictor, gc)
    N = grid.n_steps
    eye = np.eye(x.shape[-1])
    for n in range(N - 1):
        kappa = gc.c[n] / gc.c[n + 1]
        gain = gc.b[n] - kappa * gc.b[n + 1]
        P, q = predictor.linearize(grid.times[n + 1], xT)
        A = kappa * eye + gain * P
        rhs = x - gc.a[n] * xT + kappa * gc.a[n + 1] * xT - gain * q
        try:
            x = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"encode step {n} -> {n + 1} is not invertible") from exc

    x_hat_T = predictor.predict(xT, grid.times[N], xT)
    # c_{N−1} > 0: the grid strictly increases to T, and coeffs rejects c < 1e-300 below T
    return (x - gc.a[N - 1] * xT - gc.b[N - 1] * x_hat_T) / gc.c[N - 1]


def slerp_interpolate(eps_a: np.ndarray, eps_b: np.ndarray, w: float) -> np.ndarray:
    """Spherical linear interpolation between two latent noises."""
    eps_a = np.asarray(eps_a, dtype=float)
    eps_b = np.asarray(eps_b, dtype=float)
    if eps_a.shape != eps_b.shape:
        raise DimensionMismatch(f"shapes {eps_a.shape} != {eps_b.shape}")
    na = float(np.linalg.norm(eps_a))
    nb = float(np.linalg.norm(eps_b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("slerp endpoints must be nonzero")
    if w == 0.0:
        return eps_a.copy()
    if w == 1.0:
        return eps_b.copy()
    cos = float(np.clip(np.dot(eps_a, eps_b) / (na * nb), -1.0, 1.0))
    theta = math.acos(cos)
    if theta < 1e-12:
        return (1.0 - w) * eps_a + w * eps_b
    s = math.sin(theta)
    return (math.sin((1.0 - w) * theta) * eps_a + math.sin(w * theta) * eps_b) / s
