"""Problem definitions: exact kernel/data inner products and their
unbiased stochastic surrogates.

A feature model bundles everything the solver needs about one inverse
problem: the kernel ``K(t, t') = <phi_t, phi_t'>``, the data inner
product ``<phi_t, y>``, and randomized single-sample estimates of both.
The estimates take two draws: a frequency/offset draw ``u`` for the
kernel side and a data draw ``v`` for the observation side, with

    E_u[g(t, t', u)] = K(t, t')      E_v[h(t, v)] = <phi_t, y>

and the same identities for the gradients in ``t``.  Each quantity is
implemented once, in a fused value-and-gradient primitive (an exact one
takes a ``grad`` flag that drops the gradient); see ``FeatureModel``.
Models are immutable and hold no random state; callers pass RNG streams in.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..measures import ParticleMeasure


@dataclass(frozen=True)
class ModelBounds:
    """Almost-sure bounds on the stochastic features over the domain.

    ``g_inf``/``g_sup`` bound the kernel surrogate from below/above and
    ``h_sup`` bounds the magnitude of the data surrogate: the constants
    the mass radii and the bound constant C1 are built from.  Sup bounds
    are conservative over-approximations; the inf is an
    under-approximation.
    """

    g_inf: float
    g_sup: float
    h_sup: float

    def __post_init__(self):
        if self.g_inf > self.g_sup:
            raise ValueError("g_inf exceeds g_sup")


# The truth behind a synthetic problem is a particle measure, signed when
# the Fourier observation's atoms are.  The name stays because the public
# API and perfbench's setups build GroundTruth(weights=..., positions=...);
# measures imports nothing from the package, so there is no import cycle.
GroundTruth = ParticleMeasure


class FeatureModel(ABC):
    """Capability interface shared by all problem models.

    A model implements three quantity primitives and one draw.  Point
    arguments broadcast: ``t`` and ``t_prime`` may be single ``(d,)``
    vectors or stacked ``(..., d)`` arrays; values follow the broadcast
    shape and gradients (in ``t``) add a trailing ``d`` axis.

    * ``kernel_fields(t, t', grad) -> (K, grad K)`` and
      ``data_fit(t, grad) -> (<phi_t, y>, its gradient)``: the exact
      fields; with ``grad=False`` each returns the 1-tuple ``(value,)``,
      for the lattice scans (grid oracle columns, certificates) that must
      not allocate a gradient array;
    * ``surrogate_fields(t, t', u, v) -> (g, grad g, h, grad h)``: the
      stochastic fields, all four arguments broadcast together (a draw
      ``u`` or ``v`` has the model's per-sample shape);
    * ``sample_uv(rng, size) -> (u, v)``: the draw they are unbiased under.

    ``surrogate_sums(t, t', signs, u, v, kernel_scale, data_scale)`` is
    the mini-batch estimator's reduction: kernel_scale times the sum over
    a batch of draws of the signed kernel-side fields, less data_scale
    times the sum of the data-side fields, at each point.  Its default
    reduces ``surrogate_fields`` over every (point, draw) pair.  The
    Gaussian mixtures take it from their profile's one weighted sum,
    ``centre_sums``: the plain one by the Gaussian's moments (one ``exp``
    per pair, no per-pair gradient), the truncated one by pairs.  Both
    are within 1e-14 of the largest magnitude of the pairwise value sums
    and 1e-13 of the gradient sums' (``tests/test_moment_sums_properties.py``).

    Two pairwise forms are derived here from ``kernel_fields``.
    ``kernel_sums(t, t', w, grad)`` is the weighted kernel sum
    ``sum_j w_j K(t, t'_j)`` and its gradient, the one weighted sum of the
    exact layer: the marginal cost, the trace statistics, the certificate
    scan and the Fourier model's data side all read it.
    ``gram_bundle(t, t') -> (gram,)`` is the matrix the grid oracle's
    support columns need.  A single quantity is the matching primitive's
    ``[0]``, ``[1]``, ``[:2]`` or ``[2:]``, and the values ``kernel``,
    ``inner_y`` and ``gram`` are the ``[0]`` of the value-only calls, so a
    value equals its fused form bit for bit.  The ReLU model overrides
    both pairwise forms for speed, through its features, and the mixtures
    take ``kernel_sums`` from their kernel profile's ``centre_sums``.

    Each model also caches its almost-sure surrogate bounds as a
    ``_bounds`` property; ``bounds()`` returns them.

    Cost attributes count scalar feature evaluations per call and feed
    the solver's work counter: ``cost_kernel``/``cost_inner_y`` for the
    exact quantities, 1 for every stochastic surrogate.
    """

    dim: int
    radius: float
    cost_kernel: int = 1
    cost_inner_y: int = 1
    # floats one kernel value expands a point pair into (a quadrature or
    # frequency axis): the row blocks of gram_bundle/kernel_sums count them
    _pair_width: int = 1
    # the domain is the ball of ``radius``, or with ``torus`` the cube
    # [-radius, radius)^d with opposite faces identified
    torus: bool = False

    # ----- quantity primitives ---------------------------------------------

    @abstractmethod
    def kernel_fields(self, t, t_prime, grad=True):
        """(K(t, t'), its gradient in t); (K(t, t'),) without ``grad``."""

    @abstractmethod
    def data_fit(self, t, grad=True):
        """(<phi_t, y>, its gradient in t); (<phi_t, y>,) without ``grad``."""

    @abstractmethod
    def surrogate_fields(self, t, t_prime, u, v):
        """(g, grad g, h, grad h), unbiased: E_u g = K(t, t'), E_v h = <phi_t, y>."""

    @property
    @abstractmethod
    def y_norm_sq(self) -> float:
        """Squared Hilbert norm of the observation."""

    @abstractmethod
    def sample_uv(self, rng: np.random.Generator, size: int):
        """``size`` independent draws of the joint law of (u, v), u then v:
        the law ``surrogate_fields`` is unbiased under (v may copy u)."""

    def bounds(self) -> ModelBounds:
        """Conservative almost-sure bounds valid on the domain."""
        return self._bounds

    def surrogate_sums(self, t, t_prime, signs, u, v, kernel_scale, data_scale):
        """kernel_scale sum_j s_j g_j - data_scale sum_j h_j over a batch of
        draws, and its gradient, at each point of t, shape (n, d): shapes
        (n,) and (n, d).  Draw j is (t'_j, u_j, v_j) with sign s_j
        (``signs`` None: all +1).  Each sum is numpy's reduction of the
        pairwise fields over the batch axis."""
        gval, ggrad, hval, hgrad = _signed_draw_fields(self, t, t_prime, signs, u, v)
        add = np.add.reduce
        return (kernel_scale * add(gval, axis=1) - data_scale * add(hval, axis=1),
                kernel_scale * add(ggrad, axis=1) - data_scale * add(hgrad, axis=1))

    # ----- derived forms -----------------------------------------------------

    def kernel(self, t, t_prime):
        """K(t, t')."""
        return self.kernel_fields(t, t_prime, False)[0]

    def inner_y(self, t):
        """<phi_t, y>."""
        return self.data_fit(t, False)[0]

    def gram(self, t, t_prime):
        """Kernel matrix between two point sets, shape (n, q)."""
        return self.gram_bundle(t, t_prime)[0]

    def gram_bundle(self, t, t_prime):
        """(gram,) of shape (n, q), a row block at a time: the matrix the
        grid oracle's support columns need, and no weighted sum."""
        t = np.atleast_2d(np.asarray(t, dtype=float))[:, None, :]
        s = np.atleast_2d(np.asarray(t_prime, dtype=float))[None, :, :]
        return _fill_row_blocks(lambda rows: self.kernel_fields(t[rows], s, False),
                                len(t), s.shape[1] * self._pair_width)

    def kernel_sums(self, t, t_prime, weights, grad=True):
        """(sum_j w_j K(t, t'_j), sum_j w_j grad_t K(t, t'_j)) at the points
        of t, shape (..., d), for the q points t' and weights w, shape (q,);
        (the sum,) without ``grad``.  Row blocks of ``kernel_fields`` go
        through ``_contract_pairs``, an einsum, so no (n, q) matrix is held
        and a row's bits do not depend on the rows evaluated with it."""
        s = np.atleast_2d(np.asarray(t_prime, dtype=float))
        return _fill_point_blocks(lambda pts: _contract_pairs(
            self.kernel_fields(pts[:, None, :], s, grad), weights),
            t, len(s) * self._pair_width)

    # ----- geometry ----------------------------------------------------------

    def project(self, points: np.ndarray) -> np.ndarray:
        """Map raw position updates back into the domain (ball clip)."""
        return project_to_ball(points, self.radius)

    def finalize_positions(self, weights, raw_positions):
        """Post-update hook: project positions, optionally adjusting weights.

        The default keeps weights untouched.  Homogeneous models override
        this to trade position norm against weight.
        """
        return weights, self.project(raw_positions)

    def displacement(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Difference a - b in the domain's geometry."""
        return a - b

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> bool:
        """Whether every point lies in the domain up to tol."""
        pts = np.asarray(points)
        sq = np.add.reduce(pts * pts, axis=-1)
        return bool(np.maximum.reduce(sq, axis=None) <= (self.radius + tol) ** 2)

    def smooth_at(self, t, step: float = 0.0) -> bool:
        """Whether the model is differentiable on a `step`-neighborhood of t."""
        return True


# Point pairs per row block of a pairwise or data-side evaluation: about
# 512 KB per float64 temporary, whatever the number of points.
_BLOCK_PAIRS = 1 << 16


def _fill_row_blocks(evaluate, n_rows: int, row_width: int):
    """Evaluate n_rows rows in blocks and return the stacked outputs.

    ``evaluate(rows)`` takes a slice of rows and returns a tuple of
    arrays whose leading axis is that slice; each block holds
    ``_BLOCK_PAIRS // row_width`` rows (at least one).  Rows that fit in
    one block are one call, whose outputs are returned as they are (no
    rows still make that call, which fixes the shapes); more are written a
    block at a time into preallocated outputs, so the peak is the outputs
    plus one block's temporaries.  Only the row axis is split, never a
    reduced one, so every output element sees the same arithmetic as in
    one whole-array call.
    """
    step = max(1, _BLOCK_PAIRS // max(row_width, 1))
    if n_rows <= step:
        return tuple(evaluate(slice(0, n_rows)))
    outs = None
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        parts = evaluate(rows)
        if outs is None:
            outs = tuple(np.empty((n_rows,) + p.shape[1:], dtype=p.dtype)
                         for p in parts)
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs


def _fill_point_blocks(evaluate, t, row_width: int):
    """``_fill_row_blocks`` over the points of t, shape (..., d): the
    leading dims are flattened into rows, then restored on each output."""
    t = np.asarray(t, dtype=float)
    pts = t.reshape(-1, t.shape[-1])
    outs = _fill_row_blocks(lambda rows: evaluate(pts[rows]), len(pts), row_width)
    return tuple(out.reshape(t.shape[:-1] + out.shape[1:])[()] for out in outs)


def _contract_pairs(fields, weights):
    """Pair fields, value (n, q) then gradients (n, q, d), summed over q with
    the weights by einsum, not BLAS, so each row's bits are its own."""
    return tuple(np.einsum("ij...,j->i...", f, weights) for f in fields)


def _signed_draw_fields(model, t, t_prime, signs, u, v):
    """(g, grad g, h, grad h) of ``surrogate_fields`` at each point of t, shape
    (n, d), and draw (t'_j, u_j, v_j), j < m, the kernel side times the draw's
    sign s_j (``signs`` None: all +1): shapes (n, m) and (n, m, d)."""
    gval, ggrad, hval, hgrad = model.surrogate_fields(
        t[:, None, :], t_prime[None, :, :], u[None, ...], v[None, ...])
    if signs is not None:
        gval = signs * gval
        ggrad = signs[None, :, None] * ggrad
    return gval, ggrad, hval, hgrad


def _prod_profile(profile, x, grad=True):
    """(coordinate-wise product of a 1-D profile, its gradient) at x of shape
    (..., d) from one profile evaluation, (product,) without ``grad``; the
    leave-one-out products keep the exact partial where a factor vanishes."""
    if not grad:
        return (np.prod(profile(x, False)[0], axis=-1),)
    vals, ders = profile(x)
    if vals.shape[-1] == 1:
        return vals[..., 0], ders
    grad = np.empty_like(vals)
    for i in range(vals.shape[-1]):
        grad[..., i] = ders[..., i] * np.prod(np.delete(vals, i, axis=-1), axis=-1)
    return np.prod(vals, axis=-1), grad


def draw_indices(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` uniform indices below n as an int array: the same draws,
    bit for bit, as ``rng.integers(n, size=size)``.  One index takes
    numpy's scalar path, which skips the size handling (an ``np.prod``
    call) that costs more than the draw itself."""
    if size == 1:
        return np.array([rng.integers(n)])
    return rng.integers(n, size=size)


def broadcast_fields(g, grad_g, h, grad_h, batch: tuple) -> tuple:
    """The four stochastic fields broadcast over ``batch``, the batch shape
    of all four arguments; gradients keep their trailing d axis."""
    grad = batch + np.shape(grad_g)[-1:]
    return (np.broadcast_to(g, batch), np.broadcast_to(grad_g, grad),
            np.broadcast_to(h, batch), np.broadcast_to(grad_h, grad))


def positive_finite(name: str, value) -> float:
    """``value`` as a float, or ValueError naming ``name`` unless it is
    finite and > 0."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def project_to_ball(points: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered closed ball.

    Points inside pass through unchanged; outside points are rescaled to
    norm ``radius``, and the computed norm of every output is at most
    ``radius``, so projecting again changes nothing.  Works on a single
    vector or a stack of them.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = np.asarray(points, dtype=float)
    norms = _norms(pts)
    # a step rarely moves a point out: then skip the rescale and its check
    if np.maximum.reduce(norms, axis=None, initial=0.0) <= radius:
        return pts.copy()
    # max(norm, radius) leaves interior points untouched and guards norm 0
    out = pts * (radius / np.maximum(norms, radius))
    # the rounded rescale can leave a computed norm an ulp or two above
    # radius: step those points toward 0 an ulp at a time until inside
    while (over := _norms(out) > radius).any():
        out = np.where(over, np.nextafter(out, 0.0), out)
    return out


def _norms(pts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(pts * pts, axis=-1, keepdims=True))
