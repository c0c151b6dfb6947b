"""Discrete nonnegative measures represented as weighted particle clouds.

A measure is a finite sum of weighted Dirac masses.  Weights are
nonnegative; an optional sign vector lets a cloud represent a signed
combination while the optimization itself only ever touches the
nonnegative weights.
"""
from __future__ import annotations

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
        Fixed atom signs for signed problems (two-layer networks).  They
        scale the embedding of each atom but not its mass.  Default all +1.

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
    idx = cdf.searchsorted(rng.random(size) * cdf[-1], side="right")
    # a uniform that rounds up to the total mass would index past the end
    return np.minimum(idx, len(cdf) - 1)


def grid_points(radius: float, dim: int, step: float) -> np.ndarray:
    """Uniform lattice of the given step covering the centered ball.

    The lattice is anchored at ``-radius`` on every axis, includes the
    ``+radius`` endpoint whenever ``2*radius/step`` is integral, and is
    filtered to points with Euclidean norm <= radius.  Returns an (n, d)
    array.
    """
    if step <= 0:
        raise ValueError("grid step must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    # small slack so 2R/step that is integral up to roundoff keeps +R
    n_steps = int(np.floor(2.0 * radius / step + 1e-9))
    axis = -radius + step * np.arange(n_steps + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    inside = np.sqrt(np.sum(pts**2, axis=1)) <= radius * (1.0 + 1e-12)
    pts = pts[inside]
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


@dataclass
class CesaroTracker:
    """Running per-particle averages of the weights and positions.

    Averaging a sequence of particle measures exactly would multiply the
    support; instead the tracker averages each particle's weight and
    position across the recorded states, which is the cheap approximation
    used for reporting.
    """

    count: int = 0
    weight_sums: np.ndarray = None  # type: ignore[assignment]
    position_sums: np.ndarray = None  # type: ignore[assignment]
    signs: np.ndarray = None  # type: ignore[assignment]

    def record(self, measure: ParticleMeasure) -> None:
        if self.count == 0:
            self.weight_sums = measure.weights.copy()
            self.position_sums = measure.positions.copy()
            self.signs = measure.signs
        else:
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
    if tracker.count == 0:
        raise ValueError("no recorded state to average")
    return ParticleMeasure(
        tracker.weight_sums / tracker.count,
        tracker.position_sums / tracker.count,
        tracker.signs,
    )
