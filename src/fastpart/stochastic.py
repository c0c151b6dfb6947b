"""Exact and mini-batch evaluations of the objective's first variation.

The central object is the marginal cost of mass at a point t: the
first-order change of the regularized objective per unit of mass added
at t,

    marginal_cost(t) = sum_j sw_j K(t, t_j) - <phi_t, y> + lam,

with ``sw`` the signed atom weights.  Its spatial gradient drives the
position updates.  The mini-batch estimators replace the sum over atoms
by draws of a random atom index and the exact inner products by the
model's stochastic surrogates; averaging a batch of independent draws
divides the variance by the batch size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import ParticleMeasure
from .models.base import FeatureModel

# when enabled, every mini-batch cost evaluation is checked against its
# almost-sure bound max(g_sup, h_sup + lam) * (mass + 1)
DEBUG_BOUND_CHECKS = False


@dataclass(frozen=True)
class NoiseSample:
    """One joint draw: atom index, kernel-side noise, data-side noise."""

    t_index: int
    u: np.ndarray
    v: np.ndarray


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

    def __getitem__(self, i: int) -> NoiseSample:
        return NoiseSample(int(self.t_indices[i]), self.u[i], self.v[i])


def draw_batch(model: FeatureModel, measure: ParticleMeasure, size: int,
               rng: np.random.Generator) -> Minibatch:
    """Draw `size` independent samples against the current measure.

    Atom indices follow the weights, the (u, v) pair follows the model's
    joint law.  One batch is shared by every particle within an
    iteration.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    total = measure.tv_norm
    if total <= 0.0:
        raise ValueError("cannot sample from null measure")
    # inverse-CDF draw of the atom indices
    cdf = np.add.accumulate(measure.weights)
    idx = cdf.searchsorted(rng.random(size) * cdf[-1], side="right")
    np.minimum(idx, len(cdf) - 1, out=idx)
    u, v = model.sample_uv(rng, size)
    return Minibatch(idx, np.asarray(u), np.asarray(v))


def _points_2d(points):
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    return (pts[None, :], True) if single else (pts, single)


def marginal_cost(model: FeatureModel, measure: ParticleMeasure, points,
                  lam: float):
    """Exact marginal cost at the given point(s)."""
    pts, single = _points_2d(points)
    fit = -model.inner_y(pts)
    if measure.size:
        fit = fit + model.gram(pts, measure.positions) @ measure.signed_weights
    out = fit + lam
    return float(out[0]) if single else out


def marginal_cost_grad(model: FeatureModel, measure: ParticleMeasure, points):
    """Exact spatial gradient of the marginal cost, shape (..., d)."""
    pts, single = _points_2d(points)
    grad = -model.grad_inner_y(pts)
    if measure.size:
        grad = grad + np.einsum("ijd,j->id", model.gram_grad(pts, measure.positions),
                                measure.signed_weights)
    return grad[0] if single else grad


def marginal_cost_samples(model: FeatureModel, measure: ParticleMeasure,
                          points, lam: float, batch: Minibatch) -> np.ndarray:
    """Per-sample estimator values, shape (n_points, batch)."""
    pts, _ = _points_2d(points)
    atoms = measure.positions[batch.t_indices]
    signs = measure.signs[batch.t_indices]
    total = measure.tv_norm
    gvals = model.g(pts[:, None, :], atoms[None, :, :], batch.u[None, ...])
    hvals = model.h(pts[:, None, :], batch.v[None, ...])
    return total * signs * gvals - hvals + lam


def marginal_cost_minibatch(model: FeatureModel, measure: ParticleMeasure,
                            points, lam: float, batch: Minibatch):
    """Batch-averaged estimator of the marginal cost."""
    pts, single = _points_2d(points)
    atoms = measure.positions[batch.t_indices]
    signs = measure.signs[batch.t_indices]
    gvals = model.g(pts[:, None, :], atoms[None, :, :], batch.u[None, ...])
    hvals = model.h(pts[:, None, :], batch.v[None, ...])
    out = (measure.tv_norm * np.mean(signs * gvals, axis=1)
           - np.mean(hvals, axis=1) + lam)
    return float(out[0]) if single else out


def marginal_cost_grad_samples(model: FeatureModel, measure: ParticleMeasure,
                               points, batch: Minibatch) -> np.ndarray:
    """Per-sample gradient estimators, shape (n_points, batch, d)."""
    pts, _ = _points_2d(points)
    atoms = measure.positions[batch.t_indices]
    signs = measure.signs[batch.t_indices]
    ggrad = model.grad_g(pts[:, None, :], atoms[None, :, :], batch.u[None, ...])
    hgrad = model.grad_h(pts[:, None, :], batch.v[None, ...])
    return measure.tv_norm * signs[None, :, None] * ggrad - hgrad


def marginal_cost_grad_minibatch(model: FeatureModel, measure: ParticleMeasure,
                                 points, batch: Minibatch):
    """Batch-averaged gradient estimator, shape (..., d)."""
    pts, single = _points_2d(points)
    vals = marginal_cost_grad_samples(model, measure, pts, batch)
    out = np.mean(vals, axis=1)
    return out[0] if single else out


def minibatch_fields(model: FeatureModel, measure: ParticleMeasure, points,
                     lam: float, batch: Minibatch):
    """Fused (cost, gradient) estimators at many points; solver hot path.

    Identical in value to calling the two minibatch estimators, but
    evaluates each surrogate pair in one model call.
    """
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
