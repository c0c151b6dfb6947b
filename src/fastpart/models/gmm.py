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

import math
from functools import cache, cached_property

import numpy as np

from ..measures import ParticleMeasure
from .base import (_BLOCK_PAIRS, FeatureModel, ModelBounds, _contract_pairs,
                   _fill_point_blocks, _fill_row_blocks, _prod_profile,
                   draw_indices, positive_finite)

_QUAD_NODES = 64


def _const(value) -> np.ndarray:
    """A hoisted constant as a 0-d float64 array.  An elementwise op
    between two arrays dispatches faster than one with a Python float
    operand, and rounds identically."""
    return np.array(value, dtype=float)


_NEG_HALF = _const(-0.5)
_SQRT_2PI = _const(np.sqrt(2.0 * np.pi))


def _gauss_pdf(x, var, norm):
    """Gaussian density of variance ``var``, ``norm`` its sqrt(2 pi var)."""
    return np.exp(_NEG_HALF * x * x / var) / norm


class _GaussianProfile:
    """1-D Gaussian density of the given variance: like every profile,
    ``profile(x, grad)`` gives (value, derivative) at x, or (value,)."""

    def __init__(self, var: float):
        self.var = _const(var)
        self._norm = _const(np.sqrt(2.0 * np.pi * var))
        self._neg_inv_var = _const(-1.0 / var)

    def __call__(self, x, grad=True):
        val = _gauss_pdf(x, self.var, self._norm)
        return (val, self._neg_inv_var * x * val) if grad else (val,)

    def pair_weights(self, pts, data):
        """exp(-|t - y|^2 / (2 var)) for each row point t and sample y."""
        q = np.subtract.outer(pts[:, 0], data[:, 0])
        q *= q
        for k in range(1, pts.shape[1]):
            diff = np.subtract.outer(pts[:, k], data[:, k])
            q += np.square(diff, out=diff)
        q *= 0.5 * self._neg_inv_var
        return np.exp(q, out=q)

    def centre_sums(self, pts, centres, weights, grad=True):
        """sum_j w_j of the d-fold product at t - c_j, and of its gradient,
        for each row point t, over centres c_j of shape (k, d) with weights
        of shape (k,); (the sum,) without ``grad``.  From the moments
        S0 = sum_j w'_j e_tj and S1 = sum_j w'_j e_tj c_j of the pair
        weights (w' = w over the norm): S0 and -(1 / var) (t S0 - S1), by
        einsum, not BLAS, so each row's bits are its own.  The gradient
        cancels by about eps |t| / width, width = sqrt(var), of its largest
        unsigned sum: within 1e-13 out to about 90 widths, 1.3e-13 at 116."""
        w = weights / float(self._norm) ** pts.shape[1]
        e = self.pair_weights(pts, centres)
        s0 = np.einsum("ij,j->i", e, w)
        if not grad:
            return (s0,)
        grad = np.empty_like(pts)
        for k in range(pts.shape[1]):
            np.subtract(pts[:, k] * s0, np.einsum("ij,j->i", e, w * centres[:, k]),
                        out=grad[:, k])
        grad *= self._neg_inv_var
        return s0, grad


class _PairSums:
    """``centre_sums`` by pairs, for the profiles with no moment form: the
    d-fold product and its gradient at every t - c_j, contracted with the
    weights by ``_contract_pairs``, so they keep ``kernel_sums``' default bits."""

    def centre_sums(self, pts, centres, weights, grad=True):
        return _contract_pairs(_prod_profile(self, pts[:, None, :] - centres, grad),
                               weights)


class _TruncatedConvProfile(_PairSums):
    """1-D convolution of a Gaussian (variance ``vg``) with a truncated
    Gaussian of scale ``s`` cut at ``+-a`` and renormalized by its box mass
    ``z``, the span of the draw's ``_truncation_window``; ``ndtr`` is
    scipy's normal CDF, bound once by the model that builds the profile."""

    def __init__(self, vg: float, s: float, a: float, z, ndtr):
        self._ndtr = ndtr
        vsum = vg + s * s
        self.vsum = _const(vsum)
        self.z = z
        c = np.sqrt(vg * s * s / vsum)
        # constants of the Gaussian-product identity, hoisted
        mu_slope = s * s / vsum
        inv_c = 1.0 / c
        a_c = a / c
        self._edges_c = np.array([-a_c, a_c])
        self._mu_c_slope = _const(mu_slope * inv_c)
        self._dbox_coef = _const(mu_slope * inv_c / self.z)
        self._neg_inv_vsum = _const(-(1.0 / vsum))
        self._inv_z = _const(1.0 / self.z)
        self._norm = _const(np.sqrt(2.0 * np.pi * vsum))

    def __call__(self, x, grad=True):
        # both ends of the box, lo = -a_c - mu_c and hi = a_c - mu_c, as
        # one (2, ...) array: one ndtr and one _std_pdf call, same bits
        x = np.asarray(x, dtype=float)
        lo_hi = np.subtract.outer(self._edges_c, x * self._mu_c_slope)
        base = _gauss_pdf(x, self.vsum, self._norm)
        # where lo > 0, ndtr(hi) - ndtr(lo) cancels (both near 1): flip
        # both ends there, so the box mass is |ndtr(-hi) - ndtr(-lo)|; the
        # abs keeps every other entry's bits, and _std_pdf is even
        np.negative(lo_hi, out=lo_hi, where=lo_hi[0] > 0.0)
        cdf = self._ndtr(lo_hi)
        val = base * np.abs(cdf[1] - cdf[0]) * self._inv_z
        del cdf  # two block-sized arrays, not kept alive through _std_pdf
        if not grad:
            return (val,)
        pdf = _std_pdf(lo_hi)
        d_box = self._dbox_coef * (pdf[0] - pdf[1])
        return val, self._neg_inv_vsum * x * val + base * d_box


class _QuadConvProfile(_PairSums):
    """1-D convolution of the truncated profile ``inner`` with its truncated
    Gaussian by Gauss-Legendre quadrature, renormalized by ``inner.z``."""

    def __init__(self, inner, s: float, a: float, roots_legendre):
        nodes, wts = roots_legendre(_QUAD_NODES)
        self.u = a * nodes
        self.w = a * wts * _GaussianProfile(s * s)(self.u, False)[0] / inner.z
        self.inner = inner

    def __call__(self, x, grad=True):
        x = np.asarray(x, dtype=float)
        return tuple(f @ self.w for f in self.inner(x[..., None] - self.u, grad))


def _std_pdf(z):
    return np.exp(_NEG_HALF * z * z) / _SQRT_2PI


_EPS = float(np.finfo(float).eps)
_SERIES_START = 32  # nodes of the first try: the chop reads at least 17
_SERIES_CAP = 512  # nodes of the last try; a function still unresolved keeps the sum
_SERIES_CHECK = 2e-14  # a chopped series misses its own samples by at most this share


class _ChebyshevSeries:
    """Chebyshev series on [-radius, radius] of a 1-D function and its
    derivative, interpolated at the Chebyshev points of the first kind
    (Trefethen, Approximation Theory and Approximation Practice, 2013).

    ``fit(sample)`` doubles the node count from ``_SERIES_START`` until
    both coefficient rows reach their noise plateau, then chops them to
    one common length (Aurentz & Trefethen, "Chopping a Chebyshev series",
    2017) and keeps the chopped series if it reproduces its own samples at
    the nodes within ``_SERIES_CHECK`` of their largest magnitude; it
    returns None when ``_SERIES_CAP`` nodes do not resolve them.
    ``sample(pts)`` gives (values, (n, 1) derivatives) at (n, 1) points.

    A kept series of ``length`` terms is tabulated once at its own
    ``length`` first-kind points x_j = radius cos(theta_j), from its
    coefficients by the exact-angle cosine sums, and evaluated there by
    the second ("true") barycentric formula with the weights
    (-1)^j sin(theta_j) (Berrut & Trefethen, "Barycentric Lagrange
    interpolation", SIAM Review 46, 2004), which is forward stable at
    these points (Higham, IMA J. Numer. Anal. 24, 2004).
    """

    def __init__(self, coeffs: np.ndarray, radius: float):
        # coeffs (2, length): the value row, the derivative row
        self.length = coeffs.shape[1]
        self.radius = _const(radius)
        theta = (np.arange(self.length) + 0.5) * (np.pi / self.length)
        self.nodes = radius * np.cos(theta)
        self._weights = np.sin(theta)
        self._weights[1::2] *= -1.0
        values, ders = _cosine_sums(coeffs, inverse=True)
        # the node values, ones for the denominator, the node derivatives
        self.node_table = np.stack([values, np.ones(self.length), ders])

    @classmethod
    def fit(cls, sample, radius: float) -> _ChebyshevSeries | None:
        n = _SERIES_START
        while n <= _SERIES_CAP:
            nodes = radius * np.cos((np.arange(n) + 0.5) * (np.pi / n))
            val, der = sample(nodes[:, None])
            samples = np.stack([val, der[:, 0]])
            coeffs = _cosine_sums(samples) * (2.0 / n)
            coeffs[:, 0] *= 0.5
            length = max(_chop_length(row) for row in coeffs)
            if length < n:
                series = cls(coeffs[:, :length], radius)
                if all(np.max(np.abs(got.ravel() - f)) <= _SERIES_CHECK * np.max(np.abs(f))
                       for got, f in zip(series(nodes, True), samples)):
                    return series
            n *= 2
        return None

    def __call__(self, x, grad):
        """(value,) or (value, (n, 1) derivative) at points x of [-radius,
        radius]: with q_j = w_j / (x - x_j), sum_j q_j f_j / sum_j q_j for
        each row, the sums one einsum, not BLAS, so a point's bits are its
        own.  A point exactly at a node, where q_j is infinite, takes that
        node's tabulated values."""
        q = np.subtract.outer(x, self.nodes)
        table = self.node_table[:2 + grad]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self._weights, q, out=q)
            sums = np.einsum("ij,kj->ki", q, table)
            outs = sums[::2] / sums[1]
        hits = np.flatnonzero(np.isinf(sums[1]))
        if hits.size:
            outs[:, hits] = table[::2, np.argmax(np.isinf(q[hits]), axis=1)]
        return (outs[0], outs[1][:, None]) if grad else (outs[0],)


def _cosine_sums(rows: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The sums sum_j f_j cos(k theta_j), k < n, of each row f of ``rows``,
    shape (r, n), over the n first-kind angles theta_j = (2j + 1) pi / (2n)
    (Chebyshev coefficients up to scale); with ``inverse`` the transposed
    sums sum_k f_k cos(k theta_j), j < n (a series' values at its nodes):
    the cosine table a row block at a time, each row reduced, no BLAS.
    k theta_j is reduced exactly, as the integer k (2j + 1) mod 4n, so each
    entry is cos of an angle in [0, 2 pi) and the high terms keep their
    accuracy."""
    n = rows.shape[1]
    cosines = np.cos(np.arange(4 * n) * (np.pi / (2 * n)))
    k, odd = np.arange(n), 2 * np.arange(n) + 1
    outer, inner = (odd, k) if inverse else (k, odd)

    def block(sl):
        table = cosines[np.multiply.outer(outer[sl], inner) % (4 * n)]
        return tuple(np.add.reduce(table * f, axis=1) for f in rows)

    return np.stack(_fill_row_blocks(block, n, n))


def _chop_length(coeffs: np.ndarray) -> int:
    """Terms to keep of a Chebyshev series: Aurentz and Trefethen's
    standard chop at machine precision.  It finds the plateau where the
    normalized, monotone envelope of |coeffs| stops decaying, then cuts
    where that envelope plus a slight linear bias toward fewer terms is
    least.  Returns ``len(coeffs)`` when the envelope has no plateau yet
    (unresolved)."""
    n = len(coeffs)
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(2, n + 1):  # 1-based positions, as in the paper
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1, e2 = env[j - 1], env[j2 - 1]
        # a plateau follows point j - 1, where env > 0: the scan stops at
        # the envelope's first zero at the latest, so the paper's cut at a
        # zero plateau point never applies
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(_EPS)):
            break
    floor = _EPS ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    biased = np.log10(env[:j2]) + np.linspace(0.0, -math.log10(_EPS) / 3.0, j2)
    return max(int(np.argmin(biased)), 1)


@cache
def _truncation_window(trunc_width: float):
    """Standard normal CDF at ``-trunc_width``, the box mass
    ndtr(trunc_width) - ndtr(-trunc_width) and the normal quantile
    ``ndtri``: the truncated draw's quantile window, whose span is also the
    truncated profile's normalizer, cached per width, so scipy loads with
    the first truncated model or draw."""
    from scipy.special import ndtr, ndtri
    lo = ndtr(-trunc_width)
    return _const(lo), _const(ndtr(trunc_width) - lo), ndtri


def sample_mixing_noise(rng: np.random.Generator, size, scale: float,
                        trunc_width: float | None = None) -> np.ndarray:
    """The mixing law, for the data and for ``sample_uv``: a Gaussian of the
    given scale, optionally truncated at ``trunc_width`` scales per coordinate."""
    if trunc_width is None:
        return rng.normal(scale=scale, size=size)
    lo, span, ndtri = _truncation_window(trunc_width)
    return scale * ndtri(lo + rng.random(size=size) * span)


def sample_mixture_data(truth: ParticleMeasure, mixing_scale: float, n: int,
                        rng: np.random.Generator,
                        trunc_width: float | None = None) -> np.ndarray:
    """Synthetic sample of the mixture: pick a spike of the truth by weight,
    add mixing noise.  A truth with a -1 sign has no mixture and is refused."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not truth.unsigned:
        raise ValueError("a mixture truth has no signs: every atom's sign must be +1")
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

        m2 = self.bandwidth**2
        s2 = self.mixing_scale**2
        if trunc_width is None:
            self._ktilde = _GaussianProfile(m2 + s2)
            self._kern = _GaussianProfile(m2 + 2.0 * s2)
        else:
            # the one law that needs scipy: it loads here, not with the package
            from scipy.special import ndtr, roots_legendre
            a = trunc_width * self.mixing_scale
            z = _truncation_window(trunc_width)[1]
            self._ktilde = _TruncatedConvProfile(m2, self.mixing_scale, a, z, ndtr)
            self._kern = _QuadConvProfile(self._ktilde, self.mixing_scale, a,
                                          roots_legendre)
            self._pair_width = _QUAD_NODES

    # ----- exact quantities -------------------------------------------------

    def kernel_fields(self, t, t_prime, grad=True):
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        return _prod_profile(self._kern, diff, grad)

    def kernel_sums(self, t, t_prime, weights, grad=True):
        s = np.atleast_2d(np.asarray(t_prime, dtype=float))
        return _fill_point_blocks(lambda pts: self._kern.centre_sums(pts, s, weights, grad),
                                  t, len(s) * self._pair_width)

    # in 1-D the data side is a fixed smooth function of t, tabulated once
    # as a Chebyshev series; d >= 2, a series the cap left unresolved and
    # points outside [-radius, radius] take the sample sum
    def data_fit(self, t, grad=True):
        series = self._data_series if self.dim == 1 else None
        if series is None:
            return self._sample_fit(t, grad)

        def rows(pts):
            outside = np.abs(pts[:, 0]) > series.radius
            if not outside.any():
                return series(pts[:, 0], grad)
            outs = series(np.where(outside, 0.0, pts[:, 0]), grad)
            for out, exact in zip(outs, self._sample_fit(pts[outside], grad)):
                out[outside] = exact
            return outs

        return _fill_point_blocks(rows, t, series.length)

    def _sample_fit(self, t, grad=True):
        """The data side as the sample sum: row blocks of the points
        against all N samples, the profile's centre sums at weights 1 / N."""
        w = np.full(self.n_data, 1.0 / self.n_data)
        return _fill_point_blocks(
            lambda pts: self._ktilde.centre_sums(pts, self.data, w, grad), t, self.n_data)

    @cached_property
    def _data_series(self) -> _ChebyshevSeries | None:
        # built on the first data_fit call, not with the model: runs that
        # never evaluate the exact data side do not pay for it
        return _ChebyshevSeries.fit(self._sample_fit, self.radius)

    @cached_property
    def y_norm_sq(self) -> float:
        # <y, y> is the double sample mean of the embedding's kernel, the
        # Gaussian of scale ``bandwidth``: N ones on the diagonal and each
        # unordered pair twice, summed a row block at a time, never (N, N)
        data, n = self.data, self.n_data
        gauss = _GaussianProfile(self.bandwidth**2)

        def pairs(a, b):  # i < j with a <= i < b: later samples, then in-block
            later = gauss.pair_weights(data[a:b], data[b:]).sum()
            block = gauss.pair_weights(data[a:b], data[a:b])
            block[np.tri(b - a, dtype=bool)] = 0.0  # np.triu(block, 1) without its copy
            return later + block.sum()

        step = max(1, _BLOCK_PAIRS // n)
        upper = math.fsum(pairs(a, min(a + step, n)) for a in range(0, n, step))
        return (2.0 * upper + n) / (n * n * float(gauss._norm) ** self.dim)

    # ----- stochastic surrogates --------------------------------------------

    def sample_uv(self, rng, size):
        u = sample_mixing_noise(rng, (size, self.dim), self.mixing_scale,
                                self.trunc_width)
        return u, self.data[draw_indices(rng, self.n_data, size)]

    def surrogate_fields(self, t, t_prime, u, v):
        # g = ktilde(t - t' - u) and h = ktilde(t - v) share one profile
        # evaluation: their arguments fill the two halves of one
        # preallocated buffer, stacked on a new leading axis
        stacked = np.empty((2,) + np.broadcast(t, t_prime, u, v).shape)
        arg_g = stacked[0]
        np.subtract(t, t_prime, out=arg_g)
        np.subtract(arg_g, u, out=arg_g)
        np.subtract(t, v, out=stacked[1])
        vals, grads = _prod_profile(self._ktilde, stacked)
        return vals[0], grads[0], vals[1], grads[1]

    def surrogate_sums(self, t, t_prime, signs, u, v, kernel_scale, data_scale):
        # g and h are the profile's d-fold product at t - c_j for the
        # centres c_j = t'_j + u_j and v_j: one weighted sum over both sets
        m = len(t_prime)
        weights = np.empty(m + len(v))
        weights[:m] = kernel_scale if signs is None else kernel_scale * signs
        weights[m:] = -data_scale
        return self._ktilde.centre_sums(t, np.concatenate((t_prime + u, v)), weights)

    # ----- bounds -------------------------------------------------------------

    @cached_property
    def _bounds(self) -> ModelBounds:
        sup = float(self._ktilde(np.array(0.0), False)[0])**self.dim
        g_inf = 0.0
        if self.trunc_width is not None:
            reach = 2.0 * self.radius + self.trunc_width * self.mixing_scale
            g_inf = float(self._ktilde(np.array(reach), False)[0]) ** self.dim
        return ModelBounds(g_inf=g_inf, g_sup=sup, h_sup=sup)
