"""The 1-D mixture data side as a Chebyshev series.

In 1-D the observation is fixed, so ``data_fit`` tabulates the sample sum
<phi_t, y> = mean_i ktilde(x_i - t) and its derivative once, as two
Chebyshev series on [-R, R], and evaluates those.  The series stay within
1e-13 of the largest value of the sum they tabulate, for value and
gradient (``test_data_series_properties.py`` draws random mixtures
too); a point's bits do not depend on the other points of its call; a
point exactly at one of the series' interpolation nodes takes the values
tabulated there; points outside [-R, R], mixtures with d >= 2 and
functions the node cap leaves unresolved take the sum's own bits; and
nothing but ``data_fit`` builds the series.
"""
import numpy as np
import pytest

from fastpart import GaussianMixtureModel, GroundTruth, benchmarks, sample_mixture_data
from fastpart.measures import grid_points
from fastpart.models.gmm import _chop_length

BOUND = 1e-13


def _benchmark(name):
    return benchmarks.build_model(benchmarks.get_benchmark(name))


def assert_within_bound(model, lattice):
    val, grad = model.data_fit(lattice)
    ref_val, ref_grad = model._sample_fit(lattice)
    assert np.max(np.abs(val - ref_val)) <= BOUND * np.max(np.abs(ref_val))
    assert np.max(np.abs(grad - ref_grad)) <= BOUND * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("name", ["gmm3a", "gmm3b", "gmm5", "criterion_1"])
def test_series_stays_within_bound_of_the_sum(name, gmm_trunc):
    model = gmm_trunc if name == "criterion_1" else _benchmark(name)
    assert_within_bound(model, np.linspace(-model.radius, model.radius, 20001)[:, None])
    assert model._data_series is not None


# a truncated mixture whose bandwidth is far below its mixing scale: the
# data side has near-corners at the truncation edges, unresolved at the cap
CAPPED = dict(radius=2.4, bandwidth=0.033, scale=0.18, n=60, trunc_width=3.6, seed=0)


def random_mixture(radius, bandwidth, scale, n, trunc_width, seed):
    """n samples uniform on [-1.5 radius, 1.5 radius] in a 1-D mixture model."""
    data = np.random.default_rng(seed).uniform(-1.5 * radius, 1.5 * radius, n)
    return GaussianMixtureModel(data, bandwidth, scale, radius=radius,
                                trunc_width=trunc_width)


def test_unresolved_at_the_cap_keeps_the_sum():
    model = random_mixture(**CAPPED)
    pts = np.linspace(-model.radius, model.radius, 101)[:, None]
    assert model._data_series is None
    for got, want in zip(model.data_fit(pts), model._sample_fit(pts)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name,step", [("gmm3a", 0.001), ("criterion_1", 0.0002)])
def test_point_alone_and_in_a_multi_block_lattice_agree_bitwise(name, step, gmm_trunc):
    model = gmm_trunc if name == "criterion_1" else _benchmark(name)
    lattice = grid_points(model.radius, 1, step)
    val, grad = model.data_fit(lattice)
    assert len(lattice) > 2 * (1 << 16) // model._data_series.length  # 3+ blocks
    alone = [model.data_fit(t) for t in lattice]
    assert np.array_equal(val, [v for v, _ in alone])
    assert np.array_equal(grad, [g for _, g in alone])
    assert np.array_equal(model.inner_y(lattice), val)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["gmm3a", "criterion_1"])
def test_points_at_the_nodes_take_the_tabulated_values(name, gmm_trunc):
    # the barycentric formula divides by t - x_j: at a node that is zero,
    # so the node's tabulated value and derivative stand in, bit for bit
    # and with no floating-point warning, alone and inside a lattice
    model = gmm_trunc if name == "criterion_1" else _benchmark(name)
    series = model._data_series
    values, ders = series.node_table[0], series.node_table[2]
    base = np.linspace(-model.radius, model.radius, 3001)
    lattice = np.concatenate([base[:1500], series.nodes, base[1500:]])[:, None]
    val, grad = model.data_fit(lattice)
    at = slice(1500, 1500 + series.length)
    assert np.array_equal(val[at], values) and np.array_equal(grad[at, 0], ders)
    assert np.array_equal(model.inner_y(lattice), val)
    for j, node in enumerate(series.nodes):
        alone_val, alone_grad = model.data_fit(np.array([node]))
        assert alone_val == values[j] and alone_grad[0] == ders[j]
        assert model.inner_y(np.array([node])) == values[j]
    # a node's one-ulp neighbours take the formula, within the bound
    neighbours = np.concatenate([np.nextafter(series.nodes, np.inf),
                                 np.nextafter(series.nodes, -np.inf)])
    assert_within_bound(model, np.concatenate([base, neighbours])[:, None])


def test_points_outside_the_interval_take_the_sum(gmm_trunc):
    model = gmm_trunc
    outside = np.array([[np.nextafter(1.0, 2.0)], [-1.5], [3.0]])
    inside = np.array([[-1.0], [0.25], [1.0]])
    mixed = np.concatenate([inside[:1], outside, inside[1:]])
    val, grad = model.data_fit(mixed)
    ref_val, ref_grad = model._sample_fit(outside)
    series_val, series_grad = model.data_fit(inside)
    assert np.array_equal(val[1:4], ref_val) and np.array_equal(grad[1:4], ref_grad)
    assert np.array_equal(np.delete(val, [1, 2, 3]), series_val)
    assert np.array_equal(np.delete(grad, [1, 2, 3], axis=0), series_grad)


def test_two_dimensional_mixture_keeps_the_sum():
    truth = GroundTruth(weights=[0.5, 0.5], positions=[[-0.4, 0.2], [0.3, -0.5]])
    data = sample_mixture_data(truth, 0.1, 200, np.random.default_rng(11))
    model = GaussianMixtureModel(data, bandwidth=0.15, mixing_scale=0.1, radius=1.0)
    lattice = grid_points(1.0, 2, 0.1)
    for got, want in zip(model.data_fit(lattice), model._sample_fit(lattice)):
        assert np.array_equal(got, want)
    assert "_data_series" not in vars(model)


def test_only_data_fit_builds_the_series():
    model = _benchmark("gmm3a")
    model.y_norm_sq
    model.bounds()
    assert "_data_series" not in vars(model)
    model.inner_y(np.array([0.1]))
    assert vars(model)["_data_series"] is not None


@pytest.mark.parametrize("row,length", [
    (np.zeros(40), 1),  # a zero function: one term
    # a decay to exact zeros: the envelope is cut at its last nonzero point
    (np.r_[1.0, -0.5, 0.25, np.zeros(37)], 3),
    (np.r_[1.0, 0.5, np.zeros(38)], 2),
    # a decay through the eps^(7/6) floor: the cut stays above it, at 1e-17
    (10.0 ** -np.arange(40.0), 18),
], ids=["zeros", "exact-zeros-3", "exact-zeros-2", "below-floor"])
def test_chop_of_synthetic_coefficient_rows(row, length):
    assert _chop_length(row) == length
