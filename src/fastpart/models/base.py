"""Problem definitions: exact kernel/data inner products and their
unbiased stochastic surrogates.

A feature model bundles everything the solver needs about one inverse
problem: the kernel ``K(t, t') = <phi_t, phi_t'>``, the data inner
product ``<phi_t, y>``, and randomized single-sample estimates of both.
The estimates take two draws: a frequency/offset draw ``u`` for the
kernel side and a data draw ``v`` for the observation side, with

    E_u[g(t, t', u)] = K(t, t')      E_v[h(t, v)] = <phi_t, y>

and the same identities for the gradients in ``t``.  Each quantity is
implemented once, as a fused value-and-gradient primitive; see
``FeatureModel``.  Models are immutable once built and never hold random
state; callers pass RNG streams in.
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
    ``grad_h_sup``.  Sup bounds are conservative over-approximations; the
    inf is an under-approximation.
    """

    g_inf: float
    g_sup: float
    h_sup: float
    grad_g_sup: float
    grad_h_sup: float

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

    A model implements six quantity primitives.  Point arguments
    broadcast: ``t`` and ``t_prime`` may be single ``(d,)`` vectors or
    stacked ``(..., d)`` arrays; values follow the broadcast shape and
    gradients (in ``t``) add a trailing ``d`` axis.

    * ``kernel(t, t')`` and ``inner_y(t)``: values only, for the lattice
      scans (grid oracle gram, certificates) that must not allocate a
      gradient array;
    * ``kernel_fields(t, t') -> (K, grad K)`` and
      ``data_fit(t) -> (<phi_t, y>, its gradient)``: the exact fields;
    * ``kernel_surrogate(t, t', u) -> (g, grad g)`` and
      ``data_surrogate(t, v) -> (h, grad h)``: the stochastic fields.

    A value primitive must equal the first output of its fused twin bit
    for bit.  Everything else is derived here from the primitives: the
    single-quantity views ``grad_kernel``, ``grad_inner_y``, ``g``,
    ``grad_g``, ``h``, ``grad_h``, the joint ``surrogate_fields`` and the
    pairwise ``gram``/``gram_bundle``.  Models override a derived method
    only for speed, each with its reason: the mixture model's
    ``surrogate_fields`` (same bits) and the ReLU model's matmul
    ``gram``/``gram_bundle``.

    Cost attributes count scalar feature evaluations per call and feed
    the solver's work counter: ``cost_kernel``/``cost_inner_y`` for the
    exact quantities, 1 for every stochastic surrogate.
    """

    dim: int
    radius: float
    cost_kernel: int = 1
    cost_inner_y: int = 1

    # ----- quantity primitives ---------------------------------------------

    @abstractmethod
    def kernel(self, t, t_prime):
        """K(t, t')."""

    @abstractmethod
    def inner_y(self, t):
        """<phi_t, y>."""

    @abstractmethod
    def kernel_fields(self, t, t_prime):
        """(K(t, t'), its gradient in t)."""

    @abstractmethod
    def data_fit(self, t):
        """(<phi_t, y>, its gradient in t)."""

    @abstractmethod
    def kernel_surrogate(self, t, t_prime, u):
        """(g, grad g): unbiased kernel surrogate, E_u g = K(t, t')."""

    @abstractmethod
    def data_surrogate(self, t, v):
        """(h, grad h): unbiased data surrogate, E_v h = <phi_t, y>."""

    @property
    @abstractmethod
    def y_norm_sq(self) -> float:
        """Squared Hilbert norm of the observation."""

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
    def bounds(self) -> ModelBounds:
        """Conservative almost-sure bounds valid on the domain."""

    # ----- derived views -----------------------------------------------------

    def grad_kernel(self, t, t_prime):
        return self.kernel_fields(t, t_prime)[1]

    def grad_inner_y(self, t):
        return self.data_fit(t)[1]

    def g(self, t, t_prime, u):
        return self.kernel_surrogate(t, t_prime, u)[0]

    def grad_g(self, t, t_prime, u):
        return self.kernel_surrogate(t, t_prime, u)[1]

    def h(self, t, v):
        return self.data_surrogate(t, v)[0]

    def grad_h(self, t, v):
        return self.data_surrogate(t, v)[1]

    def surrogate_fields(self, t, t_prime, u, v):
        """(g, grad g, h, grad h) in one call; the solver's hot path."""
        return (*self.kernel_surrogate(t, t_prime, u), *self.data_surrogate(t, v))

    def gram(self, t, t_prime):
        """Kernel matrix between two point sets, shape (n, q)."""
        return self.kernel(*_pairwise(t, t_prime))

    def gram_bundle(self, t, t_prime):
        """(gram, grad_t K(t_i, s_j) of shape (n, q, d)) in one call."""
        return self.kernel_fields(*_pairwise(t, t_prime))

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


def _pairwise(t, t_prime):
    """Two point sets as (n, 1, d) and (1, q, d) stacks."""
    t = np.atleast_2d(np.asarray(t, dtype=float))
    s = np.atleast_2d(np.asarray(t_prime, dtype=float))
    return t[:, None, :], s[None, :, :]


def positive_finite(name: str, value) -> float:
    """``value`` as a float, or ValueError naming ``name`` unless it is
    finite and > 0."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


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
