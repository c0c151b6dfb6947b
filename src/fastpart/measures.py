"""Discrete nonnegative measures represented as weighted particle clouds.

A measure is a finite sum of weighted Dirac masses.  Weights are
nonnegative; an optional sign vector lets a cloud represent a signed
combination while the optimization itself only ever touches the
nonnegative weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ParticleMeasure:
    """Nonnegative measure ``sum_j weights[j] * delta(positions[j])``.

    Parameters
    ----------
    weights : array, shape (p,)
        Nonnegative atom masses.  A zero weight is legal: the particle is
        kept but carries no mass.
    positions : array, shape (p, d)
        Atom locations.
    signs : array of +-1, shape (p,), optional
        Fixed atom signs of a signed problem (a two-layer network, a Fourier
        truth).  They scale each atom's embedding but not its mass; default +1.

    Instances are immutable snapshots; every update builds a new one.
    """

    weights: np.ndarray
    positions: np.ndarray
    signs: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float).ravel())
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        pos = np.ascontiguousarray(pos)
        if pos.ndim != 2:
            raise ValueError("positions must be a (p, d) array")
        if len(w) != pos.shape[0]:
            raise ValueError(
                f"got {len(w)} weights for {pos.shape[0]} positions"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if self.signs is None:
            s = np.ones(len(w))
        else:
            s = np.ascontiguousarray(np.asarray(self.signs, dtype=float).ravel())
            if len(s) != len(w):
                raise ValueError("signs length does not match weights")
            if not np.all(np.abs(s) == 1.0):
                raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "positions", _freeze(pos))
        object.__setattr__(self, "signs", _freeze(s))
        object.__setattr__(self, "unsigned", bool(np.all(s == 1.0)))

    @classmethod
    def _unchecked(cls, weights, positions, signs, unsigned, tv=None):
        """Fast path for the solver loop: arrays are trusted as valid.

        ``tv``, when given, must be ``float(weights.sum())``; it is cached
        as the total mass instead of being summed again.
        """
        self = object.__new__(cls)
        state = self.__dict__
        state["weights"] = weights
        state["positions"] = positions
        state["signs"] = signs
        state["unsigned"] = unsigned
        if tv is not None:
            state["_tv"] = tv
        return self

    @property
    def size(self) -> int:
        """Number of particles p."""
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def tv_norm(self) -> float:
        """Total variation norm: the exact sum of the weights."""
        cached = self.__dict__.get("_tv")
        if cached is None:
            cached = float(np.add.reduce(self.weights))
            object.__setattr__(self, "_tv", cached)
        return cached

    @property
    def signed_weights(self) -> np.ndarray:
        return self.weights * self.signs


def signed_measure(coeffs, positions) -> ParticleMeasure:
    """The measure of signed atoms ``sum_j coeffs[j] * delta(positions[j])``:
    weights ``|coeffs|``, a -1 sign on each negative coefficient."""
    coeffs = np.asarray(coeffs, dtype=float)
    return ParticleMeasure(np.abs(coeffs), positions, np.where(coeffs < 0, -1.0, 1.0))


def sample_particle_index(measure: ParticleMeasure, rng: np.random.Generator,
                          size: int | None = None):
    """Draw particle indices with probability proportional to their weights.

    One uniform per index, mapped through the weights' cumulative sum
    (inverse CDF).  Returns a scalar index when ``size`` is None, else an
    int array of the requested length.  Raises ``ValueError`` on a
    measure with zero mass.
    """
    if measure.tv_norm <= 0.0:
        raise ValueError("cannot sample from null measure")
    cdf = np.add.accumulate(measure.weights)
    # searching the first p - 1 sums counts min(count, p - 1): a uniform
    # that rounds up to the total mass takes the last index, not one past it
    return cdf[:-1].searchsorted(rng.random(size) * cdf[-1], side="right")


def _axis_steps(radius: float, step: float, torus: bool = False) -> int:
    # small slack so 2R/step that is integral up to roundoff keeps +R on
    # the ball, and leaves it out on the torus, where it is -R
    if torus:
        return int(np.ceil(2.0 * radius / step - 1e-9)) - 1
    return int(np.floor(2.0 * radius / step + 1e-9))


def grid_size_estimate(radius: float, dim: int, step: float,
                       torus: bool = False) -> float:
    """The point count of the cube ``grid_points`` builds, without building it:
    (axis steps + 1)^d, inf past the float range.  An upper bound on the ball's
    lattice, the lattice itself on the torus and in 1-D."""
    # a product, not **, so a count past the float range is inf, not an error
    return math.prod([float(_axis_steps(radius, step, torus) + 1)] * dim)


def grid_points(radius: float, dim: int, step: float, torus: bool = False) -> np.ndarray:
    """Uniform lattice of the given step covering the centered ball, or
    the torus [-radius, radius)^d.

    The lattice is anchored at ``-radius`` on every axis.  On the ball it
    includes the ``+radius`` endpoint whenever ``2*radius/step`` is
    integral and is filtered to points with Euclidean norm <= radius; on
    the torus it is the whole cube but for that endpoint, which is
    ``-radius`` there.  Returns an (n, d) array.
    """
    if step <= 0:
        raise ValueError("grid step must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    # _axis_steps keeps a last point up to 1e-9 steps past +radius: clip it to +radius
    axis = np.minimum(-radius + step * np.arange(_axis_steps(radius, step, torus) + 1),
                      radius)
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij", copy=False),
                   axis=-1).reshape(-1, dim)
    if not torus:
        pts = pts[np.sqrt(np.sum(pts**2, axis=1)) <= radius * (1.0 + 1e-12)]
    if len(pts) == 0:
        raise ValueError(
            f"step {step} yields no lattice point inside the ball of radius {radius}"
        )
    return pts


def uniform_grid_measure(radius: float, dim: int, step: float,
                         total_mass: float) -> ParticleMeasure:
    """Equal-weight measure supported on ``grid_points``, summing to total_mass."""
    if total_mass < 0:
        raise ValueError("total_mass must be nonnegative")
    pts = grid_points(radius, dim, step)
    w = np.full(len(pts), total_mass / len(pts))
    return ParticleMeasure(w, pts)


class CesaroTracker:
    """Running per-particle averages of the weights and positions.

    Averaging a sequence of particle measures exactly would multiply the
    support; instead the tracker averages each particle's weight and
    position across the start and every recorded state, which is the
    cheap approximation used for reporting.
    """

    def __init__(self, start: ParticleMeasure):
        self.count = 1
        self.weight_sums = start.weights.copy()
        self.position_sums = start.positions.copy()
        self.signs = start.signs

    def record(self, measure: ParticleMeasure) -> None:
        if measure.size != len(self.weight_sums):
            raise ValueError(
                f"particle count changed across records: "
                f"{len(self.weight_sums)} then {measure.size}"
            )
        self.weight_sums += measure.weights
        self.position_sums += measure.positions
        self.count += 1


def cesaro_average(tracker: CesaroTracker) -> ParticleMeasure:
    """Measure whose particle j carries the mean recorded weight and position."""
    return ParticleMeasure(
        tracker.weight_sums / tracker.count,
        tracker.position_sums / tracker.count,
        tracker.signs,
    )
