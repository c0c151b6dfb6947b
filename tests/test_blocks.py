"""Row-blocked exact evaluation: the same bits as one row at a time, and a
peak memory bounded by the output plus one block.

``gram``, ``kernel_sums`` and the mixture and ReLU models'
``inner_y``/``data_fit`` evaluate fixed-size blocks of points and write each block into a
preallocated output.  Only the point axis is split, so every output
element must equal its one-row evaluation exactly, except for the ReLU
model: its ``data_fit``, ``gram_bundle`` and ``kernel_sums`` are BLAS
products, whose last bits change with the row count, so its rows need
only agree to 1e-14 of the largest entry.  ``kernel_sums`` contracts each
block's kernel values and gradients with the weights by einsum, so
``exact_fields`` and ``trace_stats`` must equal, bit for bit, the dense
form that builds the whole gram and (n, q, d) gradient tensor and
contracts them once by einsum.  The models whose sums skip that per-pair
arithmetic are held to 1e-14 (values) and 1e-13 (gradients) of the
unsigned sums instead: ReLU, which sums through its features, and the
plain mixtures, which sum by their Gaussian kernel's moments.
``y_norm_sq`` sums its sample pairs a row block at a time and keeps no
(N, N) matrix, nor a second copy of a block.
Peak memory is read with ``tracemalloc``, which sees numpy's buffers.
"""
import functools
import math
import tracemalloc

import numpy as np
import pytest

from fastpart import (FourierDeconvolutionModel, GaussianMixtureModel, GroundTruth,
                      ParticleMeasure, ReluFeatureModel, benchmarks, sample_mixture_data,
                      sample_regression_data, uniform_grid_measure)
from fastpart.diagnostics import trace_stats
from fastpart.measures import grid_points
from fastpart.stochastic import exact_fields
from test_golden import EXACT_CASES


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
# the plain mixtures take their kernel sums from the Gaussian's moments
BY_MOMENTS = ["gmm3a", "plain_gmm_2d"]


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


def _assert_within_sum_bounds(got, want, kern, grads, weights):
    """(value, gradient) sums within 1e-14 and 1e-13 of the unsigned sums
    of the kernel values and gradients, with the weights' magnitudes."""
    aw = np.abs(weights)
    assert np.max(np.abs(got[0] - want[0])) <= 1e-14 * np.max(np.abs(kern) @ aw)
    assert np.max(np.abs(got[1] - want[1])) <= 1e-13 * np.max(
        np.einsum("ijd,j->id", np.abs(grads), aw))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_pairwise_rows_match_single_row_evaluation(name):
    model, lattice = _case(name)
    gram = model.gram(lattice, lattice)
    weights = np.random.default_rng(5).uniform(-1.0, 1.0, len(lattice))
    sums = model.kernel_sums(lattice, lattice, weights)
    rows = [model.kernel_fields(t, lattice) for t in lattice]
    row_gram, row_grads = np.array([k for k, _ in rows]), np.array([g for _, g in rows])
    _assert_rows_match(name, gram, row_gram)
    want = (np.einsum("ij,j->i", row_gram, weights),
            np.einsum("ijd,j->id", row_grads, weights))
    if name in BY_MOMENTS:
        _assert_within_sum_bounds(sums, want, row_gram, row_grads, weights)
    else:
        _assert_rows_match(name, sums[0], want[0])
        _assert_rows_match(name, sums[1], want[1])
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
    assert [a.shape for a in model.gram_bundle(pts, empty)] == [(12, 0)]
    weights = np.linspace(-1.0, 1.0, 12)
    val, grad = model.kernel_sums(stacked, pts, weights)
    flat_val, flat_grad = model.kernel_sums(pts, pts, weights)
    assert np.array_equal(val, flat_val.reshape(3, 4))
    assert np.array_equal(grad, flat_grad.reshape(3, 4, 2))
    assert np.ndim(model.kernel_sums(pts[0], pts, weights, grad=False)[0]) == 0
    assert [a.shape for a in model.kernel_sums(empty, pts, weights)] == [(0,), (0, 2)]
    val, grad = model.kernel_sums(pts, empty, np.empty(0))
    assert np.array_equal(val, np.zeros(12)) and np.array_equal(grad, np.zeros((12, 2)))


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


def test_y_norm_sq_triangle_holds_one_block():
    # N = 300 makes one square row block of 218 rows: its strict upper
    # triangle is zeroed in place, not copied, so the block and its boolean
    # mask are held (0.51 MB), not the block twice (0.81 MB)
    model = _trunc()
    rows = 2**16 // model.n_data
    assert _peak_bytes(lambda: model.y_norm_sq) < 1.5 * rows * rows * 8


def _dense_kernel_fields(model, t, atoms):
    """The gram and the whole (n, q, d) gradient tensor: one kernel row per
    point, or for the ReLU model its blocked gram beside the one einsum
    over the sample that used to build the tensor."""
    if isinstance(model, ReluFeatureModel):
        fs = np.maximum(atoms @ model.x.T, 0.0)
        mask = (t @ model.x.T > 0.0).astype(float)
        return (model.gram(t, atoms),
                np.einsum("in,jn,nd->ijd", mask, fs, model.x) / model.n_data)
    rows = [model.kernel_fields(point, atoms) for point in t]
    return np.array([k for k, _ in rows]), np.array([grad for _, grad in rows])


def _dense_exact_fields(model, nu, pts, lam):
    gram, tensor = _dense_kernel_fields(model, pts, nu.positions)
    iy, giy = model.data_fit(pts)
    sw = nu.signed_weights
    return (np.einsum("ij,j->i", gram, sw) - iy + lam,
            np.einsum("ijd,j->id", tensor, sw) - giy)


def _dense_trace_stats(model, nu, lam):
    w, sw, pos = nu.weights, nu.signed_weights, nu.positions
    gram, tensor = _dense_kernel_fields(model, pos, pos)
    iy, giy = model.data_fit(pos)
    kw = np.einsum("ij,j->i", gram, sw)
    obj = float(0.5 * model.y_norm_sq + lam * w.sum() - sw @ iy + 0.5 * sw @ kw)
    cost = nu.signs * (kw - iy) + lam
    grad = np.einsum("ijd,j->id", tensor, sw) - giy
    return obj, float(np.sum(w * cost**2)), float(np.sum(w * (grad**2).sum(axis=1)))


@pytest.mark.parametrize("p", [300, 701])
@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_layer_matches_dense_gradient_tensor(case, p):
    # at 300 and 701 atoms every mixture and Fourier evaluation spans
    # several row blocks (the truncated mixture one row a block at 701)
    model, measure, lam, *_ = EXACT_CASES[case]()
    rng = np.random.default_rng(p)
    reach = 0.9 * model.radius
    atoms = model.project(rng.uniform(-reach, reach, size=(p, model.dim)))
    signs = None if measure.unsigned else rng.choice([-1.0, 1.0], size=p)
    nu = ParticleMeasure(0.1 + rng.random(p), atoms, signs)
    pts = model.project(rng.uniform(-model.radius, model.radius, size=(333, model.dim)))
    cost, grad = _dense_exact_fields(model, nu, pts, lam)
    got = exact_fields(model, nu, pts, lam)
    value_only = exact_fields(model, nu, pts, lam, grad=False)[0]
    stats, dense_stats = trace_stats(model, nu, lam), _dense_trace_stats(model, nu, lam)
    if isinstance(model, ReluFeatureModel) or case in BY_MOMENTS:
        # the feature or moment sums: within the property bounds of the
        # unsigned sums
        kern, tensor = _dense_kernel_fields(model, pts, atoms)
        _assert_within_sum_bounds(got, (cost, grad), kern, tensor, nu.weights)
        assert np.array_equal(value_only, got[0])
        assert stats == pytest.approx(dense_stats, rel=1e-12)
        return
    assert got[0].tobytes() == cost.tobytes()
    assert got[1].tobytes() == grad.tobytes()
    assert value_only.tobytes() == cost.tobytes()
    assert [x.hex() for x in stats] == [x.hex() for x in dense_stats]


def test_exact_layer_peaks_near_its_gram():
    # 1001 gmm3a atoms: the (p, p, d) gradient tensor beside the 8 MB gram
    # took both routines to 18.7 MB, and the gram alone to 10.1 MB; the
    # kernel sums hold (p,) and (p, d) sums and one row block, 1.6 MB
    model = _gmm3a()
    nu = uniform_grid_measure(1, 1, 0.002, 0.5)
    bound = 3e6
    assert _peak_bytes(lambda: trace_stats(model, nu, 0.01)) < bound
    assert _peak_bytes(lambda: exact_fields(model, nu, nu.positions, 0.01)) < bound


def test_relu_gram_peaks_near_its_output():
    # N = 40 samples: a row block counted by N alone was 1638 rows, all
    # 1001 atoms, and its temporaries took the 8 MB gram to 16.4 MB; a
    # block counted by the wider of N and q = 1001 columns peaks at 9.4 MB
    x, y = sample_regression_data(40, 2, np.random.default_rng(3))
    model = ReluFeatureModel(x, y)
    atoms = model.project(np.random.default_rng(1).uniform(-1.0, 1.0, size=(1001, 2)))
    assert _peak_bytes(lambda: model.gram(atoms, atoms)) < 1.25 * 1001**2 * 8


def test_relu_exact_layer_peaks_near_its_gram():
    # N = 40 samples and 1001 atoms: contracted per gram block, the
    # (p, p, d) tensor beside them took trace_stats to 25.0 MB, and the
    # 8 MB gram with its sub-blocks to 10.0 MB; the feature sums hold a
    # (q, N) feature table and one row block, 1.4 MB
    x, y = sample_regression_data(40, 2, np.random.default_rng(3))
    model = ReluFeatureModel(x, y)
    rng = np.random.default_rng(1)
    atoms = model.project(rng.uniform(-1.0, 1.0, size=(1001, 2)))
    nu = ParticleMeasure(np.full(1001, 1e-3), atoms, rng.choice([-1.0, 1.0], size=1001))
    assert _peak_bytes(lambda: trace_stats(model, nu, 0.01)) < 3e6
