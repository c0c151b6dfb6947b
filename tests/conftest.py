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
    """Cutoff-3 torus model with two spikes and a small in-space noise term."""
    truth = GroundTruth(weights=[0.8, 0.6], positions=[[-1.2], [0.9]],
                        noise_coeffs=[0.05, -0.03],
                        noise_positions=[[2.0], [-2.5]])
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
            g_inf=k0, g_sup=k0, h_sup=abs(iy), grad_g_sup=0.0,
            grad_h_sup=abs(giy) * np.sqrt(dim))

    def kernel(self, t, t_prime):
        return self.kernel_fields(t, t_prime)[0]

    def kernel_fields(self, t, t_prime):
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        return np.full(diff.shape[:-1], self.k0), np.zeros(diff.shape)

    def inner_y(self, t):
        return self.data_fit(t)[0]

    def data_fit(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape[:-1], self.iy), np.full(t.shape, self.giy)

    @property
    def y_norm_sq(self):
        return self._y_sq

    def sample_u(self, rng, size):
        return np.zeros((size, self.dim))

    def sample_v(self, rng, size):
        return np.zeros(size)

    def kernel_surrogate(self, t, t_prime, u):
        diff = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
        return (np.full(np.broadcast_shapes(diff.shape[:-1], np.shape(u)[:-1]),
                        self.k0),
                np.zeros(np.broadcast_shapes(diff.shape, np.shape(u))))

    def data_surrogate(self, t, v):
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(t.shape, np.shape(v) + (1,))
        return (np.full(np.broadcast_shapes(t.shape[:-1], np.shape(v)), self.iy),
                np.full(shape, self.giy))

    def bounds(self):
        return self._stub_bounds


@pytest.fixture
def stub_model():
    return StubModel
