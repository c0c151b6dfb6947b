"""Gaussian mixture deconvolution model.

Observed samples are spikes blurred by a known even mixing density.
Embedding both the empirical sample and candidate measures through a
Gaussian kernel of bandwidth ``m`` turns recovery of the mixing measure
into least squares in an RKHS:

    phi_t = (gauss_m * sigma)(t - .)          K(t, t') = (ktilde * sigma)(t - t')
    ktilde = gauss_m * sigma                  <phi_t, y> = mean_i ktilde(x_i - t)

where ``sigma`` is the mixing density and ``*`` is convolution.  The
stochastic surrogates evaluate ``ktilde`` at randomly shifted arguments:
``g(t, t', u) = ktilde(t - t' - u)`` with ``u ~ sigma`` and
``h(t, v) = ktilde(t - v)`` with ``v`` a uniformly chosen sample.

With a plain Gaussian ``sigma`` every quantity above is a Gaussian
density and the essential infimum of ``g`` is 0 (the offset ``u`` is
unbounded).  Truncating ``sigma`` at ``trunc_width`` standard deviations
(renormalized, per coordinate) keeps the surrogate bounded away from
zero on the domain, at the price of error-function closed forms for
``ktilde`` and a short quadrature for the kernel.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from .base import (FeatureModel, GroundTruth, ModelBounds, coordinate_product_grad,
                   positive_finite)

_QUAD_NODES = 64


def _const(value) -> np.ndarray:
    """A hoisted constant as a 0-d float64 array.  An elementwise op
    between two arrays dispatches faster than one with a Python float
    operand, and rounds identically."""
    return np.array(value, dtype=float)


_NEG_HALF = _const(-0.5)
_SQRT_2PI = _const(np.sqrt(2.0 * np.pi))


def _gauss_pdf(x, var, norm=None):
    """Gaussian density of variance ``var``; ``norm`` is its hoisted
    normalizer ``sqrt(2 pi var)`` when the caller has one."""
    if norm is None:
        norm = np.sqrt(2.0 * np.pi * var)
    return np.exp(_NEG_HALF * x * x / var) / norm


class _GaussianProfile:
    """1-D Gaussian density of the given variance and its derivative."""

    def __init__(self, var: float):
        self.var = _const(var)
        self._norm = _const(np.sqrt(2.0 * np.pi * var))
        self._neg_inv_var = _const(-1.0 / var)

    def value(self, x):
        return _gauss_pdf(x, self.var, self._norm)

    def value_and_deriv(self, x):
        val = _gauss_pdf(x, self.var, self._norm)
        return val, self._neg_inv_var * x * val


class _TruncatedConvProfile:
    """1-D convolution of a Gaussian (variance ``vg``) with a truncated
    Gaussian of scale ``s`` cut at ``+-a`` and renormalized."""

    def __init__(self, vg: float, s: float, a: float):
        self.vg = vg
        self.s = s
        self.a = a
        vsum = vg + s * s
        self.vsum = _const(vsum)
        self.z = ndtr(a / s) - ndtr(-a / s)
        c = np.sqrt(vg * s * s / vsum)
        # constants of the Gaussian-product identity, hoisted
        mu_slope = s * s / vsum
        inv_c = 1.0 / c
        a_c = a / c
        self._a_c = _const(a_c)
        self._neg_a_c = _const(-a_c)
        self._mu_c_slope = _const(mu_slope * inv_c)
        self._dbox_coef = _const(mu_slope * inv_c / self.z)
        self._neg_inv_vsum = _const(-(1.0 / vsum))
        self._inv_z = _const(1.0 / self.z)
        self._norm = _const(np.sqrt(2.0 * np.pi * vsum))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        mu_c = x * self._mu_c_slope
        box = ndtr(self._a_c - mu_c) - ndtr(self._neg_a_c - mu_c)
        return _gauss_pdf(x, self.vsum, self._norm) * box * self._inv_z

    def value_and_deriv(self, x):
        x = np.asarray(x, dtype=float)
        mu_c = x * self._mu_c_slope
        lo = self._neg_a_c - mu_c
        hi = self._a_c - mu_c
        box = ndtr(hi) - ndtr(lo)
        d_box = self._dbox_coef * (_std_pdf(lo) - _std_pdf(hi))
        base = _gauss_pdf(x, self.vsum, self._norm)
        val = base * box * self._inv_z
        return val, self._neg_inv_vsum * x * val + base * d_box


class _QuadConvProfile:
    """1-D convolution of a profile with the truncated Gaussian, by
    Gauss-Legendre quadrature over the truncation interval."""

    def __init__(self, inner, s: float, a: float):
        nodes, wts = roots_legendre(_QUAD_NODES)
        self.u = a * nodes
        z = ndtr(a / s) - ndtr(-a / s)
        self.w = a * wts * _gauss_pdf(self.u, s * s) / z
        self.inner = inner

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.inner.value(x[..., None] - self.u) @ self.w

    def value_and_deriv(self, x):
        x = np.asarray(x, dtype=float)
        val, der = self.inner.value_and_deriv(x[..., None] - self.u)
        return val @ self.w, der @ self.w


def _std_pdf(z):
    return np.exp(_NEG_HALF * z * z) / _SQRT_2PI


def _prod_profile(profile, x):
    """Coordinate-wise product of a 1-D profile, x of shape (..., d)."""
    return np.prod(profile.value(x), axis=-1)


def _prod_profile_both(profile, x):
    """(product, gradient of product) sharing one profile evaluation."""
    vals, ders = profile.value_and_deriv(x)
    if x.shape[-1] == 1:
        return vals[..., 0], ders
    return np.prod(vals, axis=-1), coordinate_product_grad(vals, ders)


def _truncation_window(trunc_width: float):
    """Standard normal CDF at ``-trunc_width`` and the CDF mass up to
    ``+trunc_width``: the quantile window of the truncated draw."""
    lo = ndtr(-trunc_width)
    return _const(lo), _const(ndtr(trunc_width) - lo)


def _truncated_normal(rng: np.random.Generator, size, scale: float,
                      window) -> np.ndarray:
    """Inverse-CDF draw of a Gaussian restricted to a quantile window."""
    lo, span = window
    return scale * ndtri(lo + rng.random(size=size) * span)


def sample_mixing_noise(rng: np.random.Generator, size, scale: float,
                        trunc_width: float | None = None) -> np.ndarray:
    """Draw from the mixing density: Gaussian of the given scale, optionally
    truncated at ``trunc_width`` scales per coordinate."""
    if trunc_width is None:
        return rng.normal(scale=scale, size=size)
    return _truncated_normal(rng, size, scale, _truncation_window(trunc_width))


def sample_mixture_data(truth: GroundTruth, mixing_scale: float, n: int,
                        rng: np.random.Generator,
                        trunc_width: float | None = None) -> np.ndarray:
    """Synthetic sample of the mixture: pick a spike by weight, add mixing noise."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    w = truth.weights
    idx = rng.choice(len(w), size=n, p=w / np.sum(w))
    pts = truth.positions[idx]
    return pts + sample_mixing_noise(rng, pts.shape, mixing_scale, trunc_width)


class GaussianMixtureModel(FeatureModel):
    """Mixture deconvolution problem over the centered ball.

    Parameters
    ----------
    data : array, shape (N,) or (N, d)
        Observed samples.
    bandwidth : float
        Scale ``m`` of the Gaussian embedding kernel.
    mixing_scale : float
        Scale ``s`` of the known mixing density.
    radius : float
        Radius of the search domain.
    trunc_width : float, optional
        Truncate the mixing density at this many scales (renormalized).
        None keeps the plain Gaussian.
    """

    def __init__(self, data, bandwidth: float, mixing_scale: float,
                 radius: float = 1.0, trunc_width: float | None = None):
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2 or len(data) == 0:
            raise ValueError("data must be a nonempty (N, d) array")
        if not np.all(np.isfinite(data)):
            raise ValueError("data must be finite")
        self.data = data
        self.bandwidth = positive_finite("bandwidth", bandwidth)
        self.mixing_scale = positive_finite("mixing_scale", mixing_scale)
        self.radius = positive_finite("radius", radius)
        if trunc_width is not None:
            trunc_width = positive_finite("trunc_width", trunc_width)
        self.trunc_width = trunc_width
        self.dim = data.shape[1]
        self.n_data = len(data)
        self.cost_inner_y = self.n_data

        m2 = bandwidth**2
        s2 = mixing_scale**2
        if trunc_width is None:
            self._ktilde = _GaussianProfile(m2 + s2)
            self._kern = _GaussianProfile(m2 + 2.0 * s2)
        else:
            a = trunc_width * mixing_scale
            self._ktilde = _TruncatedConvProfile(m2, mixing_scale, a)
            self._kern = _QuadConvProfile(self._ktilde, mixing_scale, a)
            self._u_window = _truncation_window(trunc_width)

    # ----- exact quantities -------------------------------------------------

    def kernel(self, t, t_prime):
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        return _prod_profile(self._kern, diff)

    def kernel_fields(self, t, t_prime):
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        return _prod_profile_both(self._kern, diff)

    def inner_y(self, t):
        t = np.asarray(t, dtype=float)
        diff = t[..., None, :] - self.data
        return np.mean(_prod_profile(self._ktilde, diff), axis=-1)

    def data_fit(self, t):
        t = np.asarray(t, dtype=float)
        diff = t[..., None, :] - self.data
        vals, grads = _prod_profile_both(self._ktilde, diff)
        return np.mean(vals, axis=-1), np.mean(grads, axis=-2)

    @cached_property
    def y_norm_sq(self) -> float:
        # reproducing kernel of the embedding space is the Gaussian of
        # scale ``bandwidth``, so <y, y> is a double mean over the sample
        sq = np.sum(self.data**2, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * self.data @ self.data.T
        np.maximum(d2, 0.0, out=d2)
        var = self.bandwidth**2
        vals = np.exp(-0.5 * d2 / var) / (2.0 * np.pi * var) ** (self.dim / 2.0)
        return float(np.mean(vals))

    # ----- stochastic surrogates --------------------------------------------

    def sample_u(self, rng, size):
        if self.trunc_width is None:
            return rng.normal(scale=self.mixing_scale, size=(size, self.dim))
        return _truncated_normal(rng, (size, self.dim), self.mixing_scale,
                                 self._u_window)

    def sample_v(self, rng, size):
        return self.data[rng.integers(self.n_data, size=size)]

    def kernel_surrogate(self, t, t_prime, u):
        arg = (np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
               - np.asarray(u, dtype=float))
        return _prod_profile_both(self._ktilde, arg)

    def data_surrogate(self, t, v):
        arg = np.asarray(t, dtype=float) - np.asarray(v, dtype=float)
        return _prod_profile_both(self._ktilde, arg)

    def surrogate_fields(self, t, t_prime, u, v):
        # speed override, same bits as the derived method: both argument
        # blocks share one profile evaluation, the g block filling the
        # first half of one preallocated buffer and the h block the rest
        shape = np.broadcast(t, t_prime, u).shape
        n = shape[0]
        stacked = np.empty((2 * n,) + shape[1:])
        arg_g = stacked[:n]
        np.subtract(t, t_prime, out=arg_g)
        np.subtract(arg_g, u, out=arg_g)
        np.subtract(t, v, out=stacked[n:])
        vals, grads = _prod_profile_both(self._ktilde, stacked)
        return vals[:n], grads[:n], vals[n:], grads[n:]

    # ----- bounds -------------------------------------------------------------

    @cached_property
    def _bounds(self) -> ModelBounds:
        peak_1d = float(self._ktilde.value(np.array(0.0)))
        sup = peak_1d**self.dim
        if self.trunc_width is None:
            v1 = self.bandwidth**2 + self.mixing_scale**2
            g_inf = 0.0
            grad_sup = _gauss_pdf(np.sqrt(v1), v1) / np.sqrt(v1)
            if self.dim > 1:
                grad_sup = np.sqrt(self.dim) * grad_sup * peak_1d ** (self.dim - 1)
        else:
            a = self.trunc_width * self.mixing_scale
            reach = 2.0 * self.radius + a
            g_inf = float(self._ktilde.value(np.array(reach))) ** self.dim
            probe = np.linspace(0.0, reach, 20001)
            deriv = self._ktilde.value_and_deriv(probe)[1]
            grad_1d = float(np.max(np.abs(deriv))) * 1.001
            grad_sup = np.sqrt(self.dim) * grad_1d * peak_1d ** max(self.dim - 1, 0)
        return ModelBounds(
            g_inf=g_inf,
            g_sup=sup,
            h_sup=sup,
            grad_g_sup=float(grad_sup),
            grad_h_sup=float(grad_sup),
        )

    def bounds(self) -> ModelBounds:
        return self._bounds
