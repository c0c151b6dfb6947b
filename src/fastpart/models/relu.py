"""Two-layer ReLU network as a sparse-measure problem.

A width-p network ``x -> sum_j sign_j w_j relu(<t_j, x>)`` is the
embedding of a signed particle measure through the feature map
``phi_t(x) = relu(<t, x>)``, seen in the empirical inner product
``<a, b> = mean_i a(x_i) b(x_i)`` over a regression sample.  Squared
loss plus a total-mass penalty is then the same objective the other
models use, so the particle solver applies unchanged up to two quirks:

* the kernel-side and data-side draws coincide (one random sample
  index serves both), which its ``sample_uv`` reflects;
* relu is positively one-homogeneous, so instead of clipping positions
  to the ball the model rescales: positions outside are pulled back to
  the sphere and their weights absorb the norm, leaving the network
  function unchanged.

The relu derivative at the kink is taken to be 0.  Gradient identities
therefore hold only almost everywhere; ``smooth_at`` reports whether a
point is safely away from every kink so derivative checks can skip.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .base import (FeatureModel, ModelBounds, _fill_point_blocks, _fill_row_blocks,
                   broadcast_fields, draw_indices, positive_finite)


def sample_regression_data(n: int, dim: int, rng: np.random.Generator,
                           teacher_width: int = 4, noise_scale: float = 0.05):
    """Synthetic regression pair (X, y) from a planted ReLU teacher."""
    if n <= 0 or dim < 1:
        raise ValueError("need n >= 1 and dim >= 1")
    x = rng.normal(size=(n, dim))
    x /= np.sqrt(dim)
    directions = rng.normal(size=(teacher_width, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    coeffs = rng.choice([-1.0, 1.0], size=teacher_width) * (
        0.5 + rng.random(teacher_width))
    y = np.maximum(x @ directions.T, 0.0) @ coeffs
    y = y + noise_scale * rng.normal(size=n)
    return x, y


class ReluFeatureModel(FeatureModel):
    """Empirical ReLU feature model over a regression sample.

    Parameters
    ----------
    x : array, shape (N, d)
        Inputs.
    y : array, shape (N,)
        Regression targets.
    radius : float
        Ball radius for the particle positions (1 by the homogeneous
        rescaling convention).
    """

    def __init__(self, x, y, radius: float = 1.0):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y) or len(y) == 0:
            raise ValueError("x and y must be nonempty with matching length")
        if x.ndim != 2 or not np.all(np.isfinite(x)):
            raise ValueError("x must be a finite (N, d) array")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        self.x = x
        self.y = y
        self.dim = x.shape[1]
        self.radius = positive_finite("radius", radius)
        self.n_data = len(y)
        self.cost_kernel = self.n_data
        self.cost_inner_y = self.n_data

    # ----- exact quantities ----------------------------------------------------

    def kernel_fields(self, t, t_prime, grad=True):
        zt = np.asarray(t, dtype=float) @ self.x.T
        fs = np.maximum(np.asarray(t_prime, dtype=float) @ self.x.T, 0.0)
        val = np.mean(np.maximum(zt, 0.0) * fs, axis=-1)
        return (val, ((zt > 0.0) * fs) @ self.x / self.n_data) if grad else (val,)

    # the data side takes row blocks of the points against all N samples
    def data_fit(self, t, grad=True):
        def fields(pts):
            zt = pts @ self.x.T
            val = np.mean(np.maximum(zt, 0.0) * self.y, axis=-1)
            return (val, ((zt > 0.0) * self.y) @ self.x / self.n_data) if grad else (val,)
        return _fill_point_blocks(fields, t, self.n_data)

    # speed override of the derived pairwise form: one matmul over the
    # sample (a row block of t at a time) instead of an (n, q, N)
    # broadcast.  It differs from the pointwise mean in the last bits; the
    # golden ReLU cases pin it.  The weighted gradient sum is contracted
    # inside the gram's own row blocks (its BLAS bits change with the row
    # count, the einsums' do not), in sub-blocks of q d floats a row, so
    # a small sample's wide gram block never holds a whole (n, q, d) tensor
    def gram_bundle(self, t, t_prime, weights=None):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        fs = np.maximum(np.atleast_2d(np.asarray(t_prime, dtype=float)) @ self.x.T, 0.0)

        def fields(rows):
            zt = t[rows] @ self.x.T
            gram = np.maximum(zt, 0.0) @ fs.T / self.n_data
            if weights is None:
                return (gram,)
            mask = (zt > 0.0).astype(float)

            def grad_sum(sub):
                grad = np.einsum("in,jn,nd->ijd", mask[sub], fs, self.x) / self.n_data
                return (np.einsum("ijd,j->id", grad, weights),)
            return gram, _fill_row_blocks(grad_sum, len(mask), len(fs) * self.dim)[0]
        return _fill_row_blocks(fields, len(t), self.n_data)

    @cached_property
    def y_norm_sq(self) -> float:
        return float(np.mean(self.y**2))

    # ----- stochastic surrogates -------------------------------------------------

    def sample_uv(self, rng, size):
        # a single data index feeds both sides
        idx = draw_indices(rng, self.n_data, size)
        return idx, idx

    def surrogate_fields(self, t, t_prime, u, v):
        t = np.asarray(t, dtype=float)
        xu = self.x[np.asarray(u, dtype=int)]
        zu = np.sum(t * xu, axis=-1)
        fs = np.maximum(np.sum(np.asarray(t_prime, dtype=float) * xu, axis=-1), 0.0)
        v = np.asarray(v, dtype=int)
        xv, yv = self.x[v], self.y[v]
        zv = np.sum(t * xv, axis=-1)
        return broadcast_fields(
            np.maximum(zu, 0.0) * fs, ((zu > 0.0) * fs)[..., None] * xu,
            np.maximum(zv, 0.0) * yv, ((zv > 0.0) * yv)[..., None] * xv,
            np.broadcast_shapes(zu.shape, fs.shape, zv.shape))

    # ----- geometry ------------------------------------------------------------------

    def finalize_positions(self, weights, raw_positions):
        norms = np.sqrt(np.sum(raw_positions**2, axis=-1))
        if not np.any(norms > self.radius):
            return weights, raw_positions
        # the weight absorbs the norm the ball projection takes off
        return weights * np.maximum(norms / self.radius, 1.0), self.project(raw_positions)

    def smooth_at(self, t, step: float = 0.0) -> bool:
        t = np.asarray(t, dtype=float)
        z = np.abs(t @ self.x.T)
        margin = step * np.linalg.norm(self.x, axis=1) + 1e-12
        return bool(np.all(z > margin))

    # ----- bounds ----------------------------------------------------------------------

    @cached_property
    def _bounds(self) -> ModelBounds:
        feat_max = self.radius * np.linalg.norm(self.x, axis=1)
        return ModelBounds(
            g_inf=0.0,
            g_sup=float(np.max(feat_max**2)),
            h_sup=float(np.max(feat_max * np.abs(self.y))),
        )
