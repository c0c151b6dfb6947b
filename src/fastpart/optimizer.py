"""The particle descent loop: multiplicative weight updates, projected
position updates, learning-rate presets, and the a-priori mass bound.

One iteration draws a single mini-batch shared by all particles,
evaluates the (stochastic or exact) marginal cost and its gradient at
every current particle, then updates weights multiplicatively and
positions by a projected Euclidean step.  Both updates read the same
pre-update state.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .measures import CesaroTracker, ParticleMeasure, cesaro_average
from .models.base import FeatureModel
from .stochastic import draw_batch, exact_fields, minibatch_fields

MASS_EXTINCT_TV = 1e-300

# scalar feature evaluations booked per iteration: the four stochastic
# surrogates at every particle for every batch sample, or the exact
# kernel/data products (value and gradient) in deterministic mode
STOCHASTIC_EVALS_PER_POINT = 4

# slack of the increment check in step, as 0-d arrays: an elementwise op
# with an array operand dispatches faster than with a Python float, and
# rounds identically
_INC_RTOL = np.array(1.0 + 1e-9)
_INC_ATOL = np.array(1e-18)


@dataclass
class RunConfig:
    """Everything one descent run needs besides the model.

    ``batch_schedule`` is the mini-batch size of every iteration.
    ``mode`` selects the mini-batch estimators ("stochastic") or their
    exact counterparts ("deterministic", the classical conic particle
    descent baseline).
    """

    alpha: float
    eta: float
    iterations: int
    lam: float
    init: ParticleMeasure
    seed: int = 0
    batch_schedule: int = 1
    mode: str = "stochastic"
    cesaro: bool = False
    trace_every: int = 1
    trace_cesaro: bool = False


@dataclass(frozen=True)
class Radii:
    """A-priori safeguard radii for the descent.

    ``r0`` bounds any single weight, ``R0 = max(initial mass, p * r0)``
    bounds the total mass of every iterate.  Only meaningful when the
    kernel surrogate is bounded away from zero (``hypothesis_ok``);
    otherwise ``r0`` is reported infinite.  Both are infinite, a vacuous
    bound, when the surrogate's excess over lam overflows the exponential.
    """

    r0: float
    R0: float
    hypothesis_ok: bool


def mass_radii(model: FeatureModel, lam: float,
               init: ParticleMeasure) -> Radii:
    """Mass bound radii from the model's surrogate bounds."""
    b = model.bounds()
    if b.g_inf <= 0.0:
        return Radii(math.inf, math.inf, False)
    excess = max(0.0, b.h_sup - lam)
    try:
        r0 = excess / b.g_inf * math.exp(excess)
    except OverflowError:  # past exp's range the bound is vacuous
        r0 = math.inf
    R0 = max(init.tv_norm, init.size * r0)
    return Radii(r0, R0, True)


@dataclass(frozen=True)
class Schedule:
    alpha: float
    eta: float
    batch_schedule: int


def make_schedule(kind: str, dim: int, tv_star: float, R0: float, K: int,
                  model: FeatureModel | None = None,
                  lam: float | None = None) -> Schedule:
    """Learning-rate presets.

    ``global``: rates balancing the entropy and transport terms for
    convergence of the Cesaro-averaged objective, with unit batches.
    ``local``: alpha = eta = 1/sqrt(K) with batches of ceil(sqrt(K)),
    the regime controlling the on-support stationarity measures.  When
    the model and lam are supplied, the local preset checks its
    small-step hypothesis and warns if violated.
    """
    if dim < 1 or tv_star <= 0 or R0 <= 0 or K < 1:
        raise ValueError("schedule inputs must be positive")
    if kind == "global":
        try:
            cube_k = R0**3 * K
        except OverflowError:
            cube_k = math.inf
        if not math.isfinite(cube_k):
            raise ValueError(f"R0 = {R0:.3g} is too large: R0**3 * K overflows at K = {K}")
        alpha = math.sqrt(dim * tv_star / cube_k)
        eta = math.sqrt(dim * R0 / (K**3 * tv_star))
        return Schedule(alpha, eta, 1)
    if kind == "local":
        alpha = eta = 1.0 / math.sqrt(K)
        m = math.ceil(math.sqrt(K))
        if model is not None and lam is not None:
            c1 = diagnostics.bound_c1(model, lam)
            if alpha * c1 * (R0 + 1.0) >= 1.0:
                warnings.warn(
                    f"step size alpha={alpha:.3g} violates "
                    f"alpha * C1 * (R0 + 1) < 1 (C1={c1:.3g}, R0={R0:.3g})",
                    RuntimeWarning,
                )
        return Schedule(alpha, eta, m)
    raise ValueError(f"unknown schedule kind: {kind!r}")


@dataclass
class IterateState:
    """Mutable loop state: the iterate, its RNG stream and counters."""

    k: int
    measure: ParticleMeasure
    rng: np.random.Generator
    evals: int = 0
    status: str = "running"


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration telemetry row."""

    k: int
    objective: float
    tv: float
    local_j2: float
    local_g2: float
    evals: int
    wall_ns: int


@dataclass
class RunResult:
    measure: ParticleMeasure
    cesaro: Optional[ParticleMeasure]
    trace: list[TraceRecord]
    status: str
    radii: Radii
    evals: int


def step(state: IterateState, model: FeatureModel, cfg: RunConfig) -> IterateState:
    """Advance one iteration; returns the updated state.

    The marginal cost and its gradient are evaluated at every particle
    against the current measure; weights and positions then update
    simultaneously from those values.  A signed particle sees the fit
    term through its own sign.
    """
    nu = state.measure
    positions = nu.positions
    p = nu.size

    if cfg.mode == "stochastic":
        if nu.tv_norm < MASS_EXTINCT_TV:
            state.status = "mass extinct"
            return state
        m = cfg.batch_schedule
        batch = draw_batch(model, nu, m, state.rng)
        cost_vals, grad_vals = minibatch_fields(model, nu, positions,
                                                cfg.lam, batch)
        state.evals += m * p * STOCHASTIC_EVALS_PER_POINT
    elif cfg.mode == "deterministic":
        cost_vals, grad_vals = exact_fields(model, nu, positions, cfg.lam)
        state.evals += 2 * (p * p * model.cost_kernel + p * model.cost_inner_y)
    else:
        raise ValueError(f"unknown mode: {cfg.mode!r}")

    if nu.unsigned:
        weight_grad = cost_vals
        move = cfg.eta * grad_vals
    else:
        signs = nu.signs
        weight_grad = signs * (cost_vals - cfg.lam) + cfg.lam
        move = cfg.eta * signs[:, None] * grad_vals

    upd_w = nu.weights * np.exp(-cfg.alpha * weight_grad)
    # nonnegative weights: a nonfinite sum flags any overflowed entry
    upd_tv = float(np.add.reduce(upd_w))
    if not math.isfinite(upd_tv):
        raise RuntimeError("weight update overflowed; reduce alpha")
    raw_pos = positions - move
    new_w, new_pos = model.finalize_positions(upd_w, raw_pos)

    # position increments can never exceed the unprojected step
    inc = model.displacement(new_pos, positions)
    inc_sq = np.add.reduce(inc * inc, axis=-1)
    step_sq = np.add.reduce(move * move, axis=-1)
    if np.logical_or.reduce(inc_sq > step_sq * _INC_RTOL + _INC_ATOL):
        raise RuntimeError("position increment exceeded the gradient step")
    if not model.contains(new_pos):
        raise RuntimeError("projected position left the domain")

    # the checked sum is the new mass unless finalize_positions reweighted
    state.measure = ParticleMeasure._unchecked(
        new_w, new_pos, nu.signs, nu.unsigned,
        tv=upd_tv if new_w is upd_w else None)
    state.k += 1
    return state


def run(cfg: RunConfig, model: FeatureModel) -> RunResult:
    """Execute the full descent; deterministic given the seed.

    Emits one trace row for the initial state and then every
    ``trace_every`` iterations (the final iterate is always traced).
    When the mass-bound hypothesis holds and alpha <= 1, the total mass
    of every iterate is checked against R0.
    """
    # counts must be ints, refused rather than rounded: the loop tests
    # k % trace_every == 0, which a float or a bool passes silently
    for name in ("iterations", "trace_every", "batch_schedule"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    for name in ("alpha", "eta", "lam"):  # a NaN passes the comparisons below
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite, got {getattr(cfg, name)}")
    if cfg.alpha < 0 or cfg.eta < 0 or cfg.lam <= 0:
        raise ValueError("alpha and eta must be >= 0 and lam > 0")
    if cfg.mode not in ("stochastic", "deterministic"):
        raise ValueError(f"mode must be 'stochastic' or 'deterministic', got {cfg.mode!r}")
    if cfg.trace_cesaro and not cfg.cesaro:
        raise ValueError("trace_cesaro requires cesaro tracking")

    radii = mass_radii(model, cfg.lam, cfg.init)
    check_tv = radii.hypothesis_ok and cfg.alpha <= 1.0 and math.isfinite(radii.R0)

    state = IterateState(
        k=0,
        measure=cfg.init,
        rng=np.random.default_rng(cfg.seed),
    )
    tracker = CesaroTracker(cfg.init) if cfg.cesaro else None

    t0 = time.perf_counter_ns()
    trace: list[TraceRecord] = []

    def emit(k: int):
        target = state.measure
        if cfg.trace_cesaro:
            target = cesaro_average(tracker)
        stats = diagnostics.trace_stats(model, target, cfg.lam)
        trace.append(TraceRecord(k, stats[0], target.tv_norm,
                                 stats[1], stats[2], state.evals,
                                 time.perf_counter_ns() - t0))

    emit(0)
    # exp overflow inside step raises its own error; silence the warning
    with np.errstate(over="ignore"):
        for k in range(1, cfg.iterations + 1):
            state = step(state, model, cfg)
            if state.status != "running":
                emit(state.k)
                break
            if tracker is not None:
                tracker.record(state.measure)
            if check_tv and state.measure.tv_norm > radii.R0 + 1e-12:
                raise RuntimeError(
                    f"total mass {state.measure.tv_norm} exceeded its "
                    f"bound {radii.R0}"
                )
            if k % cfg.trace_every == 0 or k == cfg.iterations:
                emit(k)

    if state.status == "running":
        state.status = "ok"
    ces = cesaro_average(tracker) if tracker is not None else None
    return RunResult(state.measure, ces, trace, state.status, radii, state.evals)
