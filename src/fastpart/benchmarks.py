"""Canonical synthetic benchmark problems.

The three mixture benchmarks fix every parameter a run needs: the spike
table, mixing scale, sample size, embedding bandwidth, regularization
weight and the default initialization.  Their exact values are defined
here (not taken from any external source) so that results are
reproducible from the name and a seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models.base import GroundTruth
from .models.gmm import GaussianMixtureModel, sample_mixture_data


@dataclass(frozen=True)
class BenchmarkProblem:
    """A named problem: ground truth, data law, model and solver defaults."""

    name: str
    truth: GroundTruth
    mixing_scale: float
    bandwidth: float
    n_samples: int
    lam: float
    radius: float
    data_seed: int
    init_step: float
    init_mass: float


_REGISTRY = {
    "gmm3a": BenchmarkProblem(
        name="gmm3a",
        truth=GroundTruth(weights=[0.3, 0.4, 0.3], positions=[-0.5, 0.0, 0.6]),
        mixing_scale=0.08,
        bandwidth=0.1,
        n_samples=2000,
        lam=0.05,
        radius=1.0,
        data_seed=20240801,
        init_step=0.02,
        init_mass=0.5,
    ),
    "gmm3b": BenchmarkProblem(
        name="gmm3b",
        truth=GroundTruth(weights=[0.25, 0.45, 0.30], positions=[-0.4, -0.1, 0.45]),
        mixing_scale=0.1,
        bandwidth=0.12,
        n_samples=2000,
        lam=0.05,
        radius=1.0,
        data_seed=20240802,
        init_step=0.02,
        init_mass=0.5,
    ),
    "gmm5": BenchmarkProblem(
        name="gmm5",
        truth=GroundTruth(weights=[0.15, 0.2, 0.3, 0.2, 0.15],
                          positions=[-0.7, -0.35, 0.0, 0.35, 0.7]),
        mixing_scale=0.06,
        bandwidth=0.08,
        n_samples=3000,
        lam=0.04,
        radius=1.0,
        data_seed=20240803,
        init_step=0.02,
        init_mass=0.5,
    ),
}


def benchmark_names() -> list[str]:
    return sorted(_REGISTRY)


def get_benchmark(name: str) -> BenchmarkProblem:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(benchmark_names())}"
        ) from None


def gen_data(problem: BenchmarkProblem, seed: int) -> np.ndarray:
    """Regenerate the benchmark sample; bit-identical for a given seed."""
    rng = np.random.default_rng(seed)
    return sample_mixture_data(problem.truth, problem.mixing_scale,
                               problem.n_samples, rng)


def build_model(problem: BenchmarkProblem) -> GaussianMixtureModel:
    """Model for a benchmark on its canonical data."""
    return GaussianMixtureModel(
        gen_data(problem, problem.data_seed),
        bandwidth=problem.bandwidth,
        mixing_scale=problem.mixing_scale,
        radius=problem.radius,
    )
