import numpy as np
import pytest

from fastpart import (
    FourierDeconvolutionModel,
    GaussianMixtureModel,
    GroundTruth,
    ReluFeatureModel,
    sample_mixture_data,
    sample_regression_data,
)
from fastpart.measures import signed_measure
from fastpart.models.base import FeatureModel, ModelBounds


@pytest.fixture(scope="session")
def gmm_unit():
    """Wide-kernel mixture model with tiny data; closed forms match the
    hand constants used across the tests (bandwidth = mixing scale = 1)."""
    return GaussianMixtureModel(data=[-1.0, 1.0], bandwidth=1.0,
                                mixing_scale=1.0, radius=1.0)


@pytest.fixture(scope="session")
def gmm_small():
    """Benchmark-shaped mixture model at reduced sample size."""
    truth = GroundTruth(weights=[0.3, 0.4, 0.3], positions=[-0.5, 0.0, 0.6])
    data = sample_mixture_data(truth, 0.08, 400, np.random.default_rng(42))
    return GaussianMixtureModel(data, bandwidth=0.1, mixing_scale=0.08,
                                radius=1.0)


@pytest.fixture(scope="session")
def gmm_trunc():
    """Truncated-mixing model: surrogate bounded away from zero."""
    truth = GroundTruth(weights=[0.5, 0.5], positions=[-0.4, 0.4])
    data = sample_mixture_data(truth, 0.5, 300, np.random.default_rng(7),
                               trunc_width=3.0)
    return GaussianMixtureModel(data, bandwidth=1.0, mixing_scale=0.5,
                                radius=1.0, trunc_width=3.0)


@pytest.fixture(scope="session")
def fourier_flat():
    """Constant-kernel torus model (cutoff 0): zero-variance surrogates."""
    truth = GroundTruth(weights=[1.0], positions=[[0.0]])
    return FourierDeconvolutionModel(freq_cutoff=0, dim=1, truth=truth)


@pytest.fixture(scope="session")
def fourier_fc1():
    truth = GroundTruth(weights=[1.0], positions=[[0.0]])
    return FourierDeconvolutionModel(freq_cutoff=1, dim=1, truth=truth)


@pytest.fixture(scope="session")
def fourier_noisy():
    """Cutoff-3 torus model with two spikes and two small signed noise atoms."""
    truth = signed_measure([0.8, 0.6, 0.05, -0.03], [[-1.2], [0.9], [2.0], [-2.5]])
    return FourierDeconvolutionModel(freq_cutoff=3, dim=1, truth=truth)


@pytest.fixture(scope="session")
def relu_model():
    x, y = sample_regression_data(128, 2, np.random.default_rng(3),
                                  teacher_width=3, noise_scale=0.05)
    return ReluFeatureModel(x, y, radius=1.0)


class StubModel(FeatureModel):
    """Fixed-bounds, fixed-field model for exercising formulas in isolation.

    The kernel is constant ``k0``, the data inner product constant
    ``iy`` with constant gradient ``giy``; surrogates are deterministic
    and equal to their exact counterparts.
    """

    def __init__(self, dim=1, radius=1.0, k0=1.0, iy=0.0, giy=0.0,
                 stub_bounds=None, y_sq=0.0):
        self.dim = dim
        self.radius = radius
        self.k0 = k0
        self.iy = iy
        self.giy = giy
        self._y_sq = y_sq
        self._stub_bounds = stub_bounds or ModelBounds(
            g_inf=k0, g_sup=k0, h_sup=abs(iy))

    def kernel_fields(self, t, t_prime, grad=True):
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        fields = np.full(diff.shape[:-1], self.k0), np.zeros(diff.shape)
        return fields if grad else fields[:1]

    def data_fit(self, t, grad=True):
        t = np.asarray(t, dtype=float)
        fields = np.full(t.shape[:-1], self.iy), np.full(t.shape, self.giy)
        return fields if grad else fields[:1]

    @property
    def y_norm_sq(self):
        return self._y_sq

    def sample_uv(self, rng, size):
        return np.zeros((size, self.dim)), np.zeros(size)

    def surrogate_fields(self, t, t_prime, u, v):
        t = np.asarray(t, dtype=float)
        batch = np.broadcast_shapes(t.shape[:-1], np.shape(t_prime)[:-1],
                                    np.shape(u)[:-1], np.shape(v))
        grad = batch + t.shape[-1:]
        return (np.full(batch, self.k0), np.zeros(grad),
                np.full(batch, self.iy), np.full(grad, self.giy))

    def bounds(self):
        return self._stub_bounds


@pytest.fixture
def stub_model():
    return StubModel
