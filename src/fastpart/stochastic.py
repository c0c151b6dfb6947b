"""Exact and mini-batch evaluations of the objective's first variation.

The central object is the marginal cost of mass at a point t: the
first-order change of the regularized objective per unit of mass added
at t,

    marginal_cost(t) = sum_j sw_j K(t, t_j) - <phi_t, y> + lam,

with ``sw`` the signed atom weights.  Its spatial gradient drives the
position updates.  The stochastic estimators replace the sum over atoms
by draws of a random atom index and the exact inner products by the
model's stochastic surrogates; averaging a batch of independent draws
divides the variance by the batch size.

One routine per job: ``sample_fields`` (per-draw estimates),
``minibatch_fields`` (their batch mean, the solver's hot path),
``exact_fields`` (the exact cost and gradient) and ``marginal_cost``
(exact value only, for lattice scans).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import ParticleMeasure, sample_particle_index
from .models.base import FeatureModel

# when enabled, every mini-batch cost evaluation is checked against its
# almost-sure bound max(g_sup, h_sup + lam) * (mass + 1)
DEBUG_BOUND_CHECKS = False


@dataclass(frozen=True)
class Minibatch:
    """A batch of independent joint draws, stored column-wise.

    ``t_indices`` holds atom indices of the measure the batch was drawn
    against; ``u`` and ``v`` are model-specific arrays with the batch on
    the first axis.
    """

    t_indices: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def size(self) -> int:
        return len(self.t_indices)


def draw_batch(model: FeatureModel, measure: ParticleMeasure, size: int,
               rng: np.random.Generator) -> Minibatch:
    """Draw `size` independent samples against the current measure.

    Atom indices follow the weights, the (u, v) pair follows the model's
    joint law.  One batch is shared by every particle within an
    iteration.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    idx = sample_particle_index(measure, rng, size)
    u, v = model.sample_uv(rng, size)
    return Minibatch(idx, np.asarray(u), np.asarray(v))


def marginal_cost(model: FeatureModel, measure: ParticleMeasure, points,
                  lam: float):
    """Exact marginal cost at the given point(s), value only: the lattice
    scans call it on many points and need no gradient."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    fit = -model.inner_y(pts)
    if measure.size:
        fit = fit + model.gram(pts, measure.positions) @ measure.signed_weights
    out = fit + lam
    return float(out[0]) if single else out


def sample_fields(model: FeatureModel, measure: ParticleMeasure, points,
                  lam: float, batch: Minibatch):
    """Per-draw (cost, gradient) estimators, shapes (n, m) and (n, m, d).

    Each draw is unbiased for the exact marginal cost and its gradient;
    ``minibatch_fields`` returns their mean over the batch.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    atoms = measure.positions[batch.t_indices]
    signs = measure.signs[batch.t_indices]
    total = measure.tv_norm
    gval, ggrad, hval, hgrad = model.surrogate_fields(
        pts[:, None, :], atoms[None, :, :], batch.u[None, ...], batch.v[None, ...])
    return (total * signs * gval - hval + lam,
            total * signs[None, :, None] * ggrad - hgrad)


def minibatch_fields(model: FeatureModel, measure: ParticleMeasure, points,
                     lam: float, batch: Minibatch):
    """Batch-mean (cost, gradient) estimators at many points; the solver's
    hot path.  Agrees with the batch mean of ``sample_fields`` up to
    rounding."""
    pts = np.asarray(points, dtype=float)
    t_indices = batch.t_indices
    atoms = measure.positions[t_indices]
    total = measure.tv_norm
    inv_m = 1.0 / len(t_indices)
    gval, ggrad, hval, hgrad = model.surrogate_fields(
        pts[:, None, :], atoms[None, :, :], batch.u[None, ...], batch.v[None, ...])
    if not measure.unsigned:
        signs = measure.signs[t_indices]
        gval = signs * gval
        ggrad = signs[None, :, None] * ggrad
    scale = total * inv_m
    add = np.add.reduce
    cost = scale * add(gval, axis=1) - inv_m * add(hval, axis=1) + lam
    grad = scale * add(ggrad, axis=1) - inv_m * add(hgrad, axis=1)
    if DEBUG_BOUND_CHECKS:
        b = model.bounds()
        cap = max(b.g_sup, b.h_sup + lam) * (total + 1.0)
        if np.max(np.abs(cost)) > cap + 1e-12:
            raise AssertionError(
                f"stochastic cost exceeded its almost-sure bound {cap}")
    return cost, grad


def exact_fields(model: FeatureModel, measure: ParticleMeasure, points,
                 lam: float):
    """Fused exact (cost, gradient) at many points."""
    pts = np.asarray(points, dtype=float)
    iy, giy = model.data_fit(pts)
    if measure.size == 0:
        return lam - iy, -giy
    gram, ggrad = model.gram_bundle(pts, measure.positions)
    sw = measure.signed_weights
    cost = gram @ sw - iy + lam
    grad = np.einsum("ijd,j->id", ggrad, sw) - giy
    return cost, grad
