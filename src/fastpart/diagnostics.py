"""Objective evaluation, optimality certificates and an independent
grid-restricted oracle.

Everything here is pure and kernel-exact: no stochastic surrogate is
used, so these routines can certify or refute what the stochastic
solver produces.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .measures import ParticleMeasure, grid_points, grid_size_estimate
from .models.base import FeatureModel
from .stochastic import exact_fields, marginal_cost


def objective(model: FeatureModel, measure: ParticleMeasure, lam: float) -> float:
    """Regularized objective: half squared embedding error plus lam * mass."""
    return trace_stats(model, measure, lam)[0]


def trace_stats(model: FeatureModel, measure: ParticleMeasure,
                lam: float) -> tuple[float, float, float]:
    """(objective, weighted cost norm, weighted gradient norm) in one pass:
    ``trace_rows`` on a block of one iterate.

    The two norms are the measure-weighted squares of the marginal cost
    and of its gradient at the atoms.  Both vanish on the support of a
    minimizer, so their decay along the iterates measures how close the
    support is to stationary.
    """
    return trace_rows(model, [measure], lam)[0]


def trace_rows(model: FeatureModel, measures: list[ParticleMeasure],
               lam: float) -> list[tuple[float, float, float]]:
    """``trace_stats`` of each measure of a block, with the bits it has alone.

    The measures share their particle count and dimension, as the
    iterates of one run do.  Their stacked atoms take one ``data_fit``
    call, whose rows are each point's own bits (ReLU evaluates the stack
    a measure at a time); each measure takes its own ``kernel_sums``
    call and takes its two dot products alone; the objective and the two
    norms reduce over the block at once, every reduction along a
    measure's own atoms, so each row rounds as it would alone.
    """
    if not measures:
        return []
    base = 0.5 * model.y_norm_sq
    w = np.stack([m.weights for m in measures])
    signs = np.stack([m.signs for m in measures])
    iy, giy = model.data_fit(np.stack([m.positions for m in measures]))
    kw, kgrad, fit, half = [], [], [], []
    for m, iy_m in zip(measures, iy):
        sw = m.signed_weights
        k, kg = model.kernel_sums(m.positions, m.positions, sw)
        kw.append(k)
        kgrad.append(kg)
        # the dot products an iterate takes alone; (0.5 * sw) @ k, not
        # 0.5 * (sw @ k): the two differ where 0.5 * sw is subnormal
        fit.append(sw @ iy_m)
        half.append(0.5 * sw @ k)
    kw, kgrad = np.stack(kw), np.stack(kgrad)
    obj = base + lam * np.add.reduce(w, axis=1) - np.array(fit) + np.array(half)
    cost = signs * (kw - iy) + lam
    grad = kgrad - giy
    j2 = np.add.reduce(w * cost**2, axis=1)
    g2 = np.add.reduce(w * (grad**2).sum(axis=2), axis=1)
    return list(zip(obj.tolist(), j2.tolist(), g2.tolist()))


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
    """Evaluate the first-order conditions on the model's lattice; a lattice
    whose scans exceed physical memory is refused."""
    grid = model_lattice(model, grid_step)
    grid_vals = marginal_cost(model, measure, grid, lam)
    grid_min = float(np.min(grid_vals))
    mask = measure.weights > mass_threshold * measure.tv_norm
    atom_vals = marginal_cost(model, measure, measure.positions[mask], lam)
    support_max = float(np.max(np.abs(atom_vals), initial=0.0))
    return KktReport(grid_min, support_max, grid_step)


# ----- grid oracle ----------------------------------------------------------------


@dataclass
class OracleResult:
    objective: float
    measure: ParticleMeasure
    converged: bool
    kkt_residual: float
    iterations: int


class LatticeRefused(ValueError):
    """A lattice refused before it is scanned: ``<key> = <step> <reason>``."""


def model_lattice(model: FeatureModel, step: float,
                  key: str = "grid_step") -> np.ndarray:
    """``grid_points`` over the model's domain, and the one place a lattice
    is refused, with a ``LatticeRefused`` naming ``key`` and ``step``: a
    step that is not positive, one that leaves no point in the domain, or,
    before anything is built, one whose working set exceeds physical
    memory (about two d-vectors a point of the cube ``grid_points`` builds,
    its peak, then a few floats a lattice point for the scans and one a
    point per support column, each counted on that cube)."""
    if not step > 0:
        raise LatticeRefused(f"{key} = {step:g} must be > 0")
    try:
        have = float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):  # no sysconf: no refusal
        have = math.inf
    points = grid_size_estimate(model.radius, model.dim, step, model.torus)
    need = 8.0 * (3 * model.dim + 6) * points
    if need > have:
        raise LatticeRefused(
            f"{key} = {step:g} gives a lattice of up to {points:.3g} points "
            f"whose scans need {need / 1e9:.3g} GB, more than the "
            f"{have / 1e9:.3g} GB of physical memory; raise {key}")
    try:
        return grid_points(model.radius, model.dim, step, model.torus)
    except ValueError:  # the one left once step > 0: no point in the ball
        raise LatticeRefused(f"{key} = {step:g} leaves no lattice point in the ball "
                             f"of radius {model.radius:g}; lower {key}") from None


def _kkt_residual(cost: np.ndarray, w: np.ndarray) -> float:
    """Worst violation of: cost >= 0 on the grid, cost = 0 where w > 0."""
    return max(float(np.max(-cost, initial=0.0)),
               float(np.max(np.abs(cost[w > 0]), initial=0.0)))


def _lawson_hanson(model, grid, shifted, max_iter):
    """Minimizer of 0.5 w'Gw - s'w over w >= 0 on the lattice, G its kernel
    gram and s = ``shifted``: the Lawson & Hanson (1974) active set, grown
    from the empty set by the lattice point whose cost Gw - s is most
    negative, until none is negative or ``max_iter`` points have joined.

    G is never built: each round takes the kernel columns of its support,
    whose rows there give the restricted least squares and whose product
    with the weights gives the next scan's cost.  Returns the weights (the
    last restricted solve), the last scan's cost and the points joined.
    """
    n = len(grid)
    on, x = np.zeros(n, dtype=bool), np.zeros(n)
    idx, cols = np.flatnonzero(on), np.zeros((n, 0))
    joined, stuck = 0, False
    while True:
        cost = cols @ x[idx] - shifted
        off = np.where(on, np.inf, cost)
        k = int(np.argmin(off))
        if stuck or joined == max_iter or not off[k] < 0.0:
            return x, cost, joined
        on[k], joined = True, joined + 1
        idx = np.flatnonzero(on)
        cols = model.gram(grid, grid[idx])
        while True:
            z, live = np.zeros(n), on[idx]
            z[idx[live]] = np.linalg.lstsq(cols[idx[live]][:, live], shifted[idx[live]],
                                           rcond=None)[0]
            if x[k] == 0.0 and z[k] <= 0.0:  # > 0 in exact arithmetic: roundoff
                if on[k]:  # k just joined: x is the solve without it
                    on[k], z = False, x
                stuck = True
                break
            neg = np.flatnonzero(on & (z <= 0.0))
            if len(neg) == 0:
                break
            # step from x toward z until the first coordinate reaches zero
            ratio = x[neg] / (x[neg] - z[neg])
            x += ratio.min() * (z - x)
            x[neg[np.argmin(ratio)]] = 0.0
            on &= x > 0.0
            x[~on] = 0.0
        x = np.maximum(z, 0.0)  # a negative weight only the roundoff exit leaves


def grid_oracle(model: FeatureModel, lam: float, grid_step: float,
                tol: float = 1e-6, max_iter: int = 20_000) -> OracleResult:
    """Solve the grid-restricted nonnegative problem to a KKT certificate.

    The candidate support is the lattice the certificates use, over the
    model's domain.  A Lawson-Hanson active set grows the support from
    the empty set, one most violating lattice point at a time, and stops
    once no point violates or ``max_iter`` points have joined; it never
    builds the n x n grid kernel matrix, only the kernel columns of its
    support.  The result is converged when the first-order residual (most
    negative marginal cost on the grid, largest magnitude on the support)
    passes ``tol``; ``iterations`` counts the points joined.  Runs
    entirely on exact kernel evaluations and shares nothing with the
    particle solver.  ``model_lattice`` refuses the lattice with a
    ``LatticeRefused``, before anything is built.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    grid = model_lattice(model, grid_step)
    shifted = model.inner_y(grid) - lam
    w, cost, joined = _lawson_hanson(model, grid, shifted, max_iter)
    resid = _kkt_residual(cost, w)
    sol = ParticleMeasure(w[w > 0], grid[w > 0])
    return OracleResult(
        objective=objective(model, sol, lam),
        measure=sol,
        converged=resid <= tol,
        kkt_residual=resid,
        iterations=joined,
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


def bound_c1(model: FeatureModel, lam: float) -> float:
    """Almost-sure bound constant for the stochastic marginal cost."""
    b = model.bounds()
    return max(b.g_sup, b.h_sup + lam)
