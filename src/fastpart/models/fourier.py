"""Sparse deconvolution on the torus with a finite spectral measure.

The convolution kernel is positive definite with a uniform spectral
measure on the integer frequency cube ``[-freq_cutoff, freq_cutoff]^d``
(the super-resolution low-pass setting), so

    k(x) = mean over frequencies of cos(<u, x>),        k(0) = 1.

The observation is the kernel's embedding of a signed particle measure,
the spike train and any noise atoms, each a kernel translate with a
signed coefficient, which keeps every inner product a finite sum:

    y(t) = sum_a beta_a k(t - s_a)       <phi_t, y> = y(t).

The kernel-side surrogate samples one frequency uniformly,
``g(t, t', u) = cos(<u, t - t'>)``; the data side is deterministic
(``h(t, .) = y(t)``, the data draw is a placeholder).  Positions live on
``[-pi, pi)^d`` with wrap-around, so projection is modular reduction.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ..measures import ParticleMeasure
from .base import FeatureModel, ModelBounds, _prod_profile, broadcast_fields

TORUS_RADIUS = np.pi


class FourierDeconvolutionModel(FeatureModel):
    """Spike deconvolution against a low-pass kernel on the d-torus.

    Parameters
    ----------
    freq_cutoff : int
        Highest retained frequency per axis; 0 degenerates to the
        constant kernel (a zero-variance sanity model).
    dim : int
        Torus dimension.
    truth : ParticleMeasure
        The atoms of the observation, spikes and noise alike: coefficient
        ``signed_weights[a]`` at ``positions[a]``.
    """

    torus = True

    def __init__(self, freq_cutoff: int, dim: int, truth: ParticleMeasure):
        # refused, not truncated: int(2.7) would be a cutoff of 2
        for name, value, least in (("freq_cutoff", freq_cutoff, 0), ("dim", dim, 1)):
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if truth.dim != dim:
            raise ValueError("ground-truth positions do not match dim")
        self.freq_cutoff = int(freq_cutoff)
        self.dim = int(dim)
        self.radius = TORUS_RADIUS
        self.truth = truth

        self._freqs_1d = np.arange(-self.freq_cutoff, self.freq_cutoff + 1)
        self._n_freq_1d = len(self._freqs_1d)
        self._pair_width = dim * self._n_freq_1d

        self.cost_kernel = self._n_freq_1d**dim
        self.cost_inner_y = truth.size * self.cost_kernel

    # ----- kernel -------------------------------------------------------------

    def kernel_fields(self, t, t_prime, grad=True):
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        return _prod_profile(self._axis_profile, diff, grad)

    def _axis_profile(self, x, grad=True):
        # per axis, the mean of cos(n x) over n in [-fc, fc] (even in x)
        # and of its derivative
        phase = x[..., None] * self._freqs_1d
        vals = np.mean(np.cos(phase), axis=-1)
        return (vals, np.mean(-self._freqs_1d * np.sin(phase), axis=-1)) if grad else (vals,)

    # y is a finite combination of kernel translates
    def data_fit(self, t, grad=True):
        return self.kernel_sums(t, self.truth.positions, self.truth.signed_weights, grad)

    @cached_property
    def y_norm_sq(self) -> float:
        return float(self.truth.signed_weights @ self.inner_y(self.truth.positions))

    # ----- stochastic surrogates -----------------------------------------------

    def sample_uv(self, rng, size):
        # the data side is deterministic: v is a placeholder and takes no draw
        u = rng.integers(-self.freq_cutoff, self.freq_cutoff + 1,
                         size=(size, self.dim))
        return u.astype(float), np.zeros(size)

    def surrogate_fields(self, t, t_prime, u, v):
        u = np.asarray(u, dtype=float)
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        phase = np.sum(u * diff, axis=-1)
        iy, giy = self.data_fit(t)
        return broadcast_fields(np.cos(phase), -np.sin(phase)[..., None] * u, iy, giy,
                                np.broadcast_shapes(phase.shape, np.shape(v)))

    # ----- geometry ---------------------------------------------------------------

    def project(self, points):
        return wrap_torus(points)

    def displacement(self, a, b):
        return wrap_torus(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))

    def contains(self, points, tol: float = 1e-12) -> bool:
        pts = np.atleast_2d(points)
        return bool(np.all(np.abs(pts) <= np.pi + tol))

    # ----- bounds --------------------------------------------------------------------

    @cached_property
    def _bounds(self) -> ModelBounds:
        return ModelBounds(g_inf=1.0 if self.freq_cutoff == 0 else -1.0, g_sup=1.0,
                           h_sup=self.truth.tv_norm)


def wrap_torus(points: np.ndarray) -> np.ndarray:
    """Reduce coordinates to the fundamental domain [-pi, pi)."""
    wrapped = np.mod(np.asarray(points, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    # a coordinate just below -pi rounds to 2 pi in the mod, so to +pi
    return np.where(wrapped < np.pi, wrapped, -np.pi)
