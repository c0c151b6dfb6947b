"""Problem definitions: exact kernel/data inner products and their
unbiased stochastic surrogates.

A feature model bundles everything the solver needs about one inverse
problem: the kernel ``K(t, t') = <phi_t, phi_t'>``, the data inner
product ``<phi_t, y>``, their gradients in ``t``, and randomized
single-sample estimates of all four.  The estimates take two draws: a
frequency/offset draw ``u`` for the kernel side and a data draw ``v``
for the observation side, with

    E_u[g(t, t', u)] = K(t, t')      E_v[h(t, v)] = <phi_t, y>

and the same identities for the gradients.  Models are immutable once
built and never hold random state; callers pass RNG streams in.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelBounds:
    """Almost-sure bounds on the stochastic features over the domain.

    ``g_inf``/``g_sup`` bound the kernel surrogate from below/above,
    ``h_sup`` bounds the magnitude of the data surrogate, and the two
    gradient fields are bounded in Euclidean norm by ``grad_g_sup`` and
    ``grad_h_sup``.  ``kernel_lip`` is a Lipschitz constant for the
    feature map.  Sup bounds are conservative over-approximations; the
    inf is an under-approximation.
    """

    g_inf: float
    g_sup: float
    h_sup: float
    grad_g_sup: float
    grad_h_sup: float
    kernel_lip: float

    def __post_init__(self):
        if self.g_inf > self.g_sup:
            raise ValueError("g_inf exceeds g_sup")


@dataclass(frozen=True)
class GroundTruth:
    """Sparse truth behind a synthetic problem: spikes and optional noise atoms."""

    weights: np.ndarray
    positions: np.ndarray
    noise_coeffs: np.ndarray | None = None
    noise_positions: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float).ravel())
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        object.__setattr__(self, "positions", pos)
        if self.noise_coeffs is not None:
            object.__setattr__(self, "noise_coeffs",
                               np.asarray(self.noise_coeffs, dtype=float).ravel())
            npos = np.asarray(self.noise_positions, dtype=float)
            if npos.ndim == 1:
                npos = npos[:, None]
            object.__setattr__(self, "noise_positions", npos)


class FeatureModel(ABC):
    """Capability interface shared by all problem models.

    Point-valued methods broadcast: ``t`` and ``t_prime`` may be single
    ``(d,)`` vectors or stacked ``(..., d)`` arrays, and scalar outputs
    follow the broadcast shape.

    Cost attributes count scalar feature evaluations per call and feed
    the solver's work counter: ``cost_kernel``/``cost_inner_y`` for the
    exact quantities, 1 for every stochastic surrogate.
    """

    dim: int
    radius: float
    cost_kernel: int = 1
    cost_inner_y: int = 1

    # ----- exact quantities -------------------------------------------------

    @abstractmethod
    def kernel(self, t, t_prime):
        """K(t, t'), broadcast over leading axes."""

    @abstractmethod
    def grad_kernel(self, t, t_prime):
        """Gradient of K(t, t') in its first argument, shape (..., d)."""

    @abstractmethod
    def inner_y(self, t):
        """<phi_t, y>, broadcast over leading axes."""

    @abstractmethod
    def grad_inner_y(self, t):
        """Gradient of <phi_t, y> in t, shape (..., d)."""

    @property
    @abstractmethod
    def y_norm_sq(self) -> float:
        """Squared Hilbert norm of the observation."""

    def gram(self, t, t_prime):
        """Kernel matrix between two point sets, shape (n, q)."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        s = np.atleast_2d(np.asarray(t_prime, dtype=float))
        return self.kernel(t[:, None, :], s[None, :, :])

    def gram_grad(self, t, t_prime):
        """Gradients grad_t K(t_i, s_j), shape (n, q, d)."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        s = np.atleast_2d(np.asarray(t_prime, dtype=float))
        return self.grad_kernel(t[:, None, :], s[None, :, :])

    # ----- stochastic surrogates --------------------------------------------

    @abstractmethod
    def sample_u(self, rng: np.random.Generator, size: int):
        """Draw `size` kernel-side noise variables."""

    @abstractmethod
    def sample_v(self, rng: np.random.Generator, size: int):
        """Draw `size` data-side noise variables."""

    def sample_uv(self, rng: np.random.Generator, size: int):
        """Joint draw of (u, v); independent unless a model couples them."""
        return self.sample_u(rng, size), self.sample_v(rng, size)

    @abstractmethod
    def g(self, t, t_prime, u):
        """Unbiased kernel surrogate, E_u g = K(t, t')."""

    @abstractmethod
    def grad_g(self, t, t_prime, u):
        """Gradient of g in t, shape (..., d)."""

    @abstractmethod
    def h(self, t, v):
        """Unbiased data surrogate, E_v h = <phi_t, y>."""

    @abstractmethod
    def grad_h(self, t, v):
        """Gradient of h in t, shape (..., d)."""

    @abstractmethod
    def bounds(self) -> ModelBounds:
        """Conservative almost-sure bounds valid on the domain."""

    # ----- fused evaluation paths (override for speed, not semantics) ---------

    def kernel_surrogate(self, t, t_prime, u):
        """(g, grad_g) in one call; hot path of the solver loop."""
        return self.g(t, t_prime, u), self.grad_g(t, t_prime, u)

    def data_surrogate(self, t, v):
        """(h, grad_h) in one call."""
        return self.h(t, v), self.grad_h(t, v)

    def surrogate_fields(self, t, t_prime, u, v):
        """(g, grad_g, h, grad_h) in one call."""
        gval, ggrad = self.kernel_surrogate(t, t_prime, u)
        hval, hgrad = self.data_surrogate(t, v)
        return gval, ggrad, hval, hgrad

    def data_fit(self, t):
        """(inner_y, grad_inner_y) in one call."""
        return self.inner_y(t), self.grad_inner_y(t)

    def gram_bundle(self, t, t_prime):
        """(gram, gram_grad) in one call."""
        return self.gram(t, t_prime), self.gram_grad(t, t_prime)

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


def coordinate_product_grad(vals: np.ndarray, ders: np.ndarray) -> np.ndarray:
    """Gradient of ``prod_i f(x_i)`` from per-coordinate values and derivatives.

    Uses leave-one-out products so coordinates where the factor vanishes
    still get the exact partial derivative.  Shapes (..., d) -> (..., d).
    """
    d = vals.shape[-1]
    if d == 1:
        return ders.copy()
    grad = np.empty_like(vals)
    for i in range(d):
        rest = np.prod(np.delete(vals, i, axis=-1), axis=-1)
        grad[..., i] = ders[..., i] * rest
    return grad


def project_to_ball(points: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered closed ball.

    Points inside pass through unchanged; outside points are rescaled to
    norm ``radius``.  Works on a single vector or a stack of them.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = np.asarray(points, dtype=float)
    norms = np.sqrt(np.add.reduce(pts * pts, axis=-1, keepdims=True))
    # max(norm, radius) leaves interior points untouched and guards norm 0
    return pts * (radius / np.maximum(norms, radius))
