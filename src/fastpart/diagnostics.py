"""Objective evaluation, optimality certificates and an independent
grid-restricted oracle.

Everything here is pure and kernel-exact: no stochastic surrogate is
used, so these routines can certify or refute what the stochastic
solver produces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import ParticleMeasure, grid_points
from .models.base import FeatureModel
from .stochastic import exact_fields, marginal_cost


def objective(model: FeatureModel, measure: ParticleMeasure, lam: float) -> float:
    """Regularized objective: half squared embedding error plus lam * mass."""
    return trace_stats(model, measure, lam)[0]


def trace_stats(model: FeatureModel, measure: ParticleMeasure,
                lam: float) -> tuple[float, float, float]:
    """(objective, weighted cost norm, weighted gradient norm) in one pass.

    The two norms are the measure-weighted squares of the marginal cost
    and of its gradient at the atoms.  Both vanish on the support of a
    minimizer, so their decay along the iterates measures how close the
    support is to stationary.
    """
    base = 0.5 * model.y_norm_sq
    if measure.size == 0:
        return base, 0.0, 0.0
    pos = measure.positions
    w = measure.weights
    signs = measure.signs
    sw = measure.signed_weights
    iy, giy = model.data_fit(pos)
    gram, gram_grad = model.gram_bundle(pos, pos)
    kw = gram @ sw
    obj = float(base + lam * w.sum() - sw @ iy + 0.5 * sw @ kw)
    cost = signs * (kw - iy) + lam
    grad = np.einsum("ijd,j->id", gram_grad, sw) - giy
    j2 = float(np.sum(w * cost**2))
    g2 = float(np.sum(w * (grad**2).sum(axis=1)))
    return obj, j2, g2


# ----- certification ------------------------------------------------------------


@dataclass(frozen=True)
class KktReport:
    """First-order optimality check on a fixed grid.

    ``grid_min`` is the smallest marginal cost over the certification
    lattice (nonnegative at an optimum); ``support_max_abs`` is the
    largest magnitude of the marginal cost over atoms carrying more than
    the mass threshold (zero at an optimum).  The report certifies only
    up to the grid resolution.
    """

    grid_min: float
    support_max_abs: float
    grid_step: float

    def certified(self, tol: float) -> bool:
        return self.grid_min >= -tol and self.support_max_abs <= tol


def kkt_certificate(model: FeatureModel, measure: ParticleMeasure, lam: float,
                    grid_step: float, mass_threshold: float = 1e-6) -> KktReport:
    """Evaluate the first-order conditions on the standard lattice."""
    grid = grid_points(model.radius, model.dim, grid_step)
    grid_vals = marginal_cost(model, measure, grid, lam)
    grid_min = float(np.min(grid_vals))
    support_max = 0.0
    if measure.size:
        mask = measure.weights > mass_threshold * measure.tv_norm
        if np.any(mask):
            atom_vals = marginal_cost(model, measure, measure.positions[mask], lam)
            support_max = float(np.max(np.abs(atom_vals)))
    return KktReport(grid_min, support_max, grid_step)


# ----- grid oracle ----------------------------------------------------------------


@dataclass
class OracleResult:
    objective: float
    measure: ParticleMeasure
    converged: bool
    kkt_residual: float
    iterations: int


def _power_iteration_norm(gram: np.ndarray, iters: int = 50) -> float:
    rng = np.random.default_rng(12345)
    v = rng.normal(size=gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        v = gram @ v
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return 1.0
        v /= nrm
        lam = float(v @ (gram @ v))
    return max(lam, 1e-30)


def _kkt_residual(cost: np.ndarray, w: np.ndarray) -> float:
    """Worst violation of: cost >= 0 on the grid, cost = 0 where w > 0."""
    return max(float(np.max(-cost, initial=0.0)),
               float(np.max(np.abs(cost[w > 0]), initial=0.0)))


def _active_set_polish(gram, shifted, active, tol, max_rounds=300):
    """Exact solve restricted to a candidate support, grown greedily.

    Solves the unconstrained restriction by least squares, drops the
    most negative coordinate until feasible, then adds the grid point
    with the worst cost violation; stops once the residual passes tol
    or no progress is possible.
    """
    active = active.copy()
    n = len(shifted)
    w = np.zeros(n)
    resid = math.inf
    for _ in range(max_rounds):
        idx = np.where(active)[0]
        if len(idx):
            sub, *_ = np.linalg.lstsq(gram[np.ix_(idx, idx)], shifted[idx],
                                      rcond=None)
            while np.any(sub < 0):
                k = int(np.argmin(sub))
                active[idx[k]] = False
                idx = np.delete(idx, k)
                if len(idx) == 0:
                    sub = np.empty(0)
                    break
                sub, *_ = np.linalg.lstsq(gram[np.ix_(idx, idx)], shifted[idx],
                                          rcond=None)
        else:
            sub = np.empty(0)
        w = np.zeros(n)
        w[idx] = sub
        cost = gram @ w - shifted
        resid = _kkt_residual(cost, w)
        if resid <= tol:
            return w, resid
        j = int(np.argmin(cost))
        if cost[j] >= -tol or active[j]:
            return w, resid
        active[j] = True
    return w, resid


def grid_oracle(model: FeatureModel, lam: float, grid_step: float,
                tol: float = 1e-6, max_iter: int = 20_000,
                polish_every: int = 100) -> OracleResult:
    """Solve the grid-restricted nonnegative problem to a KKT certificate.

    The candidate support is the same lattice the certificates use.
    The driver is accelerated proximal gradient with step 1/L (L from
    power iteration on the grid kernel matrix, momentum reset whenever
    the objective increases); every ``polish_every`` sweeps the current
    support seeds an exact active-set solve, which typically certifies
    long before the first-order iteration would.  Stops once the
    first-order residual (most negative marginal cost on the grid,
    largest magnitude on the active set) passes ``tol``; hitting
    ``max_iter`` first returns the best iterate flagged unconverged.
    Runs entirely on exact kernel evaluations and shares nothing with
    the particle solver.
    """
    if tol <= 0 or grid_step <= 0:
        raise ValueError("tol and grid_step must be positive")
    grid = grid_points(model.radius, model.dim, grid_step)
    gram = model.gram(grid, grid)
    shifted = model.inner_y(grid) - lam
    lip = _power_iteration_norm(gram) * 1.01
    n = len(grid)

    w = np.zeros(n)
    inertial = w.copy()
    momentum = 1.0
    f_prev = math.inf
    best_resid, best_w = math.inf, w
    done = 0
    for it in range(1, max_iter + 1):
        grad = gram @ inertial - shifted
        w_next = np.maximum(inertial - grad / lip, 0.0)
        m_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        inertial = w_next + (momentum - 1.0) / m_next * (w_next - w)
        f = 0.5 * w_next @ (gram @ w_next) - shifted @ w_next
        if f > f_prev:
            inertial = w_next.copy()
            m_next = 1.0
        f_prev = f
        w, momentum = w_next, m_next
        done = it
        if it % polish_every == 0 or it == max_iter:
            resid = _kkt_residual(gram @ w - shifted, w)
            if resid < best_resid:
                best_resid, best_w = resid, w.copy()
            if resid <= tol:
                break
            w_pol, resid_pol = _active_set_polish(gram, shifted, w > 1e-10, tol)
            if resid_pol < best_resid:
                best_resid, best_w = resid_pol, w_pol
            if resid_pol <= tol:
                break

    active = best_w > 0
    sol = ParticleMeasure(best_w[active], grid[active])
    return OracleResult(
        objective=objective(model, sol, lam),
        measure=sol,
        converged=best_resid <= tol,
        kkt_residual=best_resid,
        iterations=done,
    )


# ----- derivative validation ---------------------------------------------------------


def finite_diff_check(model: FeatureModel, measure: ParticleMeasure, t,
                      step: float = 1e-5) -> float:
    """Largest relative gap between central differences of the marginal
    cost and its analytic gradient at t.

    Returns NaN when the model reports the point as nonsmooth at this
    step (kink exclusion), since the comparison is meaningless there.
    """
    t = np.asarray(t, dtype=float).ravel()
    if not model.smooth_at(t, step):
        return math.nan
    grad = exact_fields(model, measure, t[None, :], 0.0)[1][0]
    worst = 0.0
    for i in range(len(t)):
        hi = t.copy()
        lo = t.copy()
        hi[i] += step
        lo[i] -= step
        fd = (marginal_cost(model, measure, hi, 0.0)
              - marginal_cost(model, measure, lo, 0.0)) / (2.0 * step)
        worst = max(worst, abs(fd - grad[i]) / (1.0 + abs(grad[i])))
    return worst


# ----- uniform bound constants ----------------------------------------------------------


def bound_c0(model: FeatureModel, lam: float) -> float:
    """Uniform bound constant for the exact marginal cost:
    |cost| <= c0 * (mass + 1)."""
    k0 = float(model.kernel(np.zeros(model.dim), np.zeros(model.dim)))
    phi_sup = math.sqrt(max(k0, 0.0))
    y_norm = math.sqrt(max(model.y_norm_sq, 0.0))
    return max(lam + phi_sup * y_norm, k0)


def bound_c1(model: FeatureModel, lam: float) -> float:
    """Almost-sure bound constant for the stochastic marginal cost."""
    b = model.bounds()
    return max(b.g_sup, b.h_sup + lam)
