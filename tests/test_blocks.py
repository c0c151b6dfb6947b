"""Row-blocked exact evaluation: the same bits as one row at a time, and a
peak memory bounded by the output plus one block.

``gram``, ``gram_bundle`` and the mixture and ReLU models'
``inner_y``/``data_fit`` evaluate fixed-size blocks of points and write each block into a
preallocated output.  Only the point axis is split, so every output
element must equal its one-row evaluation exactly, except for the ReLU
model: its ``data_fit`` and ``gram_bundle`` are BLAS products, whose
last bits change with the row count, so its rows need only agree to
1e-14 of the largest entry.  ``y_norm_sq`` sums
its sample pairs a row block at a time and keeps no (N, N) matrix.
Peak memory is read with ``tracemalloc``, which sees numpy's buffers.
"""
import functools
import math
import tracemalloc

import numpy as np
import pytest

from fastpart import (FourierDeconvolutionModel, GaussianMixtureModel, GroundTruth,
                      ReluFeatureModel, benchmarks, sample_mixture_data,
                      sample_regression_data)
from fastpart.measures import grid_points


def _gmm3a():
    return benchmarks.build_model(benchmarks.get_benchmark("gmm3a"))


def _trunc():
    truth = GroundTruth(weights=[0.5, 0.5], positions=[-0.4, 0.4])
    data = sample_mixture_data(truth, 0.5, 300, np.random.default_rng(7),
                               trunc_width=3.0)
    return GaussianMixtureModel(data, bandwidth=1.0, mixing_scale=0.5,
                                radius=1.0, trunc_width=3.0)


def _plain_2d():
    truth = GroundTruth(weights=[0.5, 0.5], positions=[[-0.4, 0.2], [0.3, -0.5]])
    data = sample_mixture_data(truth, 0.1, 700, np.random.default_rng(11))
    return GaussianMixtureModel(data, bandwidth=0.15, mixing_scale=0.1, radius=1.0)


def _fourier():
    truth = GroundTruth(weights=[0.8, 0.6], positions=[[-1.2], [0.9]],
                        noise_coeffs=[0.05, -0.03], noise_positions=[[2.0], [-2.5]])
    return FourierDeconvolutionModel(freq_cutoff=3, dim=1, truth=truth)


def _relu():
    x, y = sample_regression_data(500, 2, np.random.default_rng(3), teacher_width=3)
    return ReluFeatureModel(x, y, radius=1.0)


# name -> (model factory, lattice step): every lattice spans several blocks
# of gram(lattice, lattice), and of inner_y for the 2-D mixture and ReLU
# models; the 1-D mixtures' data side is a Chebyshev series, whose rows
# test_data_series.py checks across blocks
MODELS = {
    "gmm3a": (_gmm3a, 0.004),
    "trunc_gmm": (_trunc, 0.0045),
    "plain_gmm_2d": (_plain_2d, 0.065),
    "fourier": (_fourier, 0.01),
    "relu": (_relu, 0.1),
}
MIXTURES = ["gmm3a", "plain_gmm_2d", "trunc_gmm"]


@functools.lru_cache(maxsize=None)
def _case(name):
    factory, step = MODELS[name]
    model = factory()
    return model, grid_points(model.radius, model.dim, step)


def _assert_rows_match(name, blocked, one_row):
    if name == "relu":
        assert np.max(np.abs(blocked - one_row)) <= 1e-14 * np.max(np.abs(one_row))
    else:
        assert np.array_equal(blocked, one_row)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_pairwise_rows_match_single_row_evaluation(name):
    model, lattice = _case(name)
    gram = model.gram(lattice, lattice)
    bundle = model.gram_bundle(lattice, lattice)
    assert np.array_equal(gram, bundle[0])
    rows = [model.kernel_fields(t, lattice) for t in lattice]
    _assert_rows_match(name, bundle[0], np.array([k for k, _ in rows]))
    _assert_rows_match(name, bundle[1], np.array([grad for _, grad in rows]))
    _assert_rows_match(name, gram, np.array([model.kernel(t, lattice) for t in lattice]))


@pytest.mark.parametrize("name", MIXTURES + ["relu"])
def test_data_side_rows_match_single_row_evaluation(name):
    model, lattice = _case(name)
    iy = model.inner_y(lattice)
    val, grad = model.data_fit(lattice)
    rows = [model.data_fit(t) for t in lattice]
    _assert_rows_match(name, iy, np.array([model.inner_y(t) for t in lattice]))
    _assert_rows_match(name, val, np.array([v for v, _ in rows]))
    _assert_rows_match(name, grad, np.array([g for _, g in rows]))


def _reference_data_fit(model, pts):
    """The per-pair formula the fused Gaussian data side replaced: the
    coordinate product of the 1-D density at every (point, sample)
    difference and its leave-one-out gradient, averaged over the sample."""
    var = model.bandwidth**2 + model.mixing_scale**2
    diff = pts[:, None, :] - model.data
    vals = np.exp(-0.5 * diff * diff / var) / np.sqrt(2.0 * np.pi * var)
    ders = -diff / var * vals
    grads = np.empty_like(vals)
    for k in range(model.dim):
        grads[..., k] = ders[..., k] * np.prod(np.delete(vals, k, axis=-1), axis=-1)
    return np.mean(np.prod(vals, axis=-1), axis=-1), np.mean(grads, axis=-2)


@pytest.mark.parametrize("name", ["gmm3a", "plain_gmm_2d"])
def test_plain_data_side_matches_per_pair_reference(name):
    model, lattice = _case(name)
    assert len(lattice) > 3 * (1 << 16) // model.n_data  # several row blocks
    ref_val, ref_grad = _reference_data_fit(model, lattice)
    val, grad = model.data_fit(lattice)
    assert np.max(np.abs(val - ref_val)) <= 1e-13 * np.max(np.abs(ref_val))
    assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))
    assert np.max(np.abs(model.inner_y(lattice) - ref_val)) <= (
        1e-13 * np.max(np.abs(ref_val)))


@pytest.mark.parametrize("name", MIXTURES)
def test_y_norm_sq_matches_whole_matrix_mean(name):
    # the exactly rounded sum of the whole direct-difference matrix
    model, _ = _case(name)
    x, var = model.data, model.bandwidth**2
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    total = math.fsum(np.exp(-0.5 * d2 / var).ravel())
    want = total / (model.n_data**2 * (2.0 * np.pi * var) ** (model.dim / 2.0))
    assert model.y_norm_sq == pytest.approx(want, rel=1e-14)


def test_shapes_across_leading_dims_and_empty_input():
    model = _plain_2d()
    pts = grid_points(1.0, 2, 0.2)[:12]
    stacked = pts.reshape(3, 4, 2)
    assert np.array_equal(model.inner_y(stacked), model.inner_y(pts).reshape(3, 4))
    val, grad = model.data_fit(stacked)
    flat_val, flat_grad = model.data_fit(pts)
    assert np.array_equal(val, flat_val.reshape(3, 4))
    assert np.array_equal(grad, flat_grad.reshape(3, 4, 2))
    assert np.ndim(model.inner_y(pts[0])) == 0
    empty = np.empty((0, 2))
    assert model.inner_y(empty).shape == (0,)
    assert [a.shape for a in model.data_fit(empty)] == [(0,), (0, 2)]
    assert model.gram(empty, pts).shape == (0, 12)
    assert [a.shape for a in model.gram_bundle(pts, empty)] == [(12, 0), (12, 0, 2)]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def oracle_lattice():
    """The 2001-point lattice of gmm3a_compare.cfg's [oracle] grid_step."""
    return grid_points(1.0, 1, 0.001)


def test_inner_y_on_oracle_lattice_peaks_below_8_mb(oracle_lattice):
    model = _gmm3a()
    assert _peak_bytes(lambda: model.inner_y(oracle_lattice)) < 8e6


def test_relu_data_fit_on_2d_lattice_peaks_below_8_mb():
    # 3483 lattice points against N = 500 samples: one (n, N) temporary
    # alone is 14 MB, and a whole-array evaluation peaks near 42 MB
    x, y = sample_regression_data(500, 2, np.random.default_rng(3), teacher_width=3)
    model = ReluFeatureModel(x, y, radius=1.0)
    lattice = grid_points(1.0, 2, 0.03)
    assert _peak_bytes(lambda: model.data_fit(lattice)) < 8e6


def test_lattice_gram_peaks_near_its_output(oracle_lattice):
    model = _gmm3a()
    n = len(oracle_lattice)
    peak = _peak_bytes(lambda: model.gram(oracle_lattice, oracle_lattice))
    assert peak < 1.25 * n * n * 8


def test_quadrature_gram_counts_its_nodes_in_the_block():
    # each truncated-mixture kernel value sums 64 quadrature nodes; a block
    # of 2^16 pairs without them counted held 64x more (170 MB here)
    model, lattice = _case("trunc_gmm")
    n = len(lattice)
    peak = _peak_bytes(lambda: model.gram(lattice, lattice))
    assert peak < n * n * 8 + 4e6


def test_y_norm_sq_peaks_near_its_matrix():
    model = _gmm3a()
    peak = _peak_bytes(lambda: model.y_norm_sq)
    assert peak < 1.25 * model.n_data**2 * 8


def test_y_norm_sq_builds_no_sample_matrix():
    # gmm3a's 2000 x 2000 sample matrix alone is 32 MB
    model = _gmm3a()
    assert _peak_bytes(lambda: model.y_norm_sq) < 2e6
