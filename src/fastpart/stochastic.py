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
``exact_fields`` (the exact cost and gradient, or with ``grad=False`` the
cost alone, for lattice scans) and ``marginal_cost`` (its value-only
wrapper, a float at a single point).  The exact cost takes its sum over
atoms from the model's ``kernel_sums``, the one weighted kernel sum.

``minibatch_fields`` takes the batch sum of m > 1 draws from the model's
``surrogate_sums`` hook, with the kernel side scaled by |nu| / m and the
data side by 1 / m.  Its default reduces the per-pair fields over the
batch axis.  The Gaussian mixtures take one weighted sum over the 2m
centres t'_j + u_j and v_j, the plain one by moments (one ``exp`` per
pair) and the truncated one by pairs, within 1e-14 (values) and 1e-13
(gradients) of the largest magnitude of the per-pair sums
(``tests/test_moment_sums_properties.py`` states the range).  A batch of
one is its ``sample_fields`` draw by construction: both, and the default
``surrogate_sums``, take the signed per-draw fields from ``_signed_draw_fields``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import ParticleMeasure, sample_particle_index
from .models.base import FeatureModel, _signed_draw_fields


@dataclass(slots=True)
class Minibatch:
    """A batch of independent joint draws, stored column-wise.

    ``t_indices`` holds atom indices of the measure the batch was drawn
    against; ``u`` and ``v`` are model-specific arrays with the batch on
    the first axis.  One is built every step, so it is a slotted dataclass
    rather than a frozen one, whose ``__init__`` costs over twice as much;
    treat it as read-only.  It has no ``len``: its batch size is ``size``.
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
    """Exact marginal cost at the given point(s), value only: a float for
    one point, else ``exact_fields(..., grad=False)[0]``."""
    pts = np.asarray(points, dtype=float)
    out = exact_fields(model, measure, np.atleast_2d(pts), lam, grad=False)[0]
    return float(out[0]) if pts.ndim == 1 else out


def sample_fields(model: FeatureModel, measure: ParticleMeasure, points,
                  lam: float, batch: Minibatch):
    """Per-draw (cost, gradient) estimators, shapes (n, m) and (n, m, d).

    Each draw is unbiased for the exact marginal cost and its gradient;
    ``minibatch_fields`` returns their mean over the batch.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    signs = None if measure.unsigned else measure.signs[batch.t_indices]
    gval, ggrad, hval, hgrad = _signed_draw_fields(
        model, pts, measure.positions[batch.t_indices], signs, batch.u, batch.v)
    total = measure.tv_norm
    return total * gval - hval + lam, total * ggrad - hgrad


def minibatch_fields(model: FeatureModel, measure: ParticleMeasure, points,
                     lam: float, batch: Minibatch):
    """Batch-mean (cost, gradient) estimators at many points; the solver's
    hot path.  Agrees with the batch mean of ``sample_fields`` up to
    rounding."""
    pts = np.asarray(points, dtype=float)
    t_indices = batch.t_indices
    atoms = measure.positions[t_indices]
    signs = None if measure.unsigned else measure.signs[t_indices]
    total = measure.tv_norm
    if len(t_indices) > 1:
        inv_m = 1.0 / len(t_indices)
        cost, grad = model.surrogate_sums(pts, atoms, signs, batch.u, batch.v,
                                          total * inv_m, inv_m)
        return cost + lam, grad
    gval, ggrad, hval, hgrad = _signed_draw_fields(model, pts, atoms, signs,
                                                   batch.u, batch.v)
    return (total * gval[:, 0] - hval[:, 0] + lam,
            total * ggrad[:, 0] - hgrad[:, 0])


def exact_fields(model: FeatureModel, measure: ParticleMeasure, points,
                 lam: float, grad: bool = True):
    """Fused exact (cost, gradient) at many points; without ``grad`` the
    1-tuple (cost,), for the lattice scans that need no gradient."""
    pts = np.asarray(points, dtype=float)
    iy, *giy = model.data_fit(pts, grad)
    kw, *kgrad = model.kernel_sums(pts, measure.positions, measure.signed_weights, grad)
    return kw - iy + lam, *(kg - g for kg, g in zip(kgrad, giy))
