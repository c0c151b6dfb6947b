"""Property tests of the measure and domain invariants: ``ParticleMeasure``
accepts exactly the finite clouds with nonnegative weights, the ball and
torus projections are idempotent and land in their domain, so does the
ReLU model's rescale, which keeps each weight times norm, one ``step``
on a small random mixture problem keeps the weights nonnegative and
finite and the positions in the domain, and ``grid_size_estimate``
bounds the lattice ``grid_points`` builds, exactly on the torus and in
1-D.  Needs hypothesis (the ``test`` extra); skipped without it."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fastpart import (FourierDeconvolutionModel, GaussianMixtureModel,  # noqa: E402
                      GroundTruth, ParticleMeasure, ReluFeatureModel, RunConfig,
                      grid_points, project_to_ball, sample_mixture_data, step)
from fastpart.measures import grid_size_estimate  # noqa: E402
from fastpart.models.fourier import wrap_torus  # noqa: E402
from fastpart.optimizer import IterateState  # noqa: E402

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)
COORD = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def clouds(draw, elements):
    """(weights, positions) of a common particle count, d in 1..3."""
    p, d = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    return (draw(arrays(float, p, elements=elements)),
            draw(arrays(float, (p, d), elements=elements)))


@settings(max_examples=300, deadline=None)
@given(cloud=clouds(ANY_FLOAT))
def test_particle_measure_accepts_exactly_finite_nonnegative_clouds(cloud):
    weights, positions = cloud
    valid = (np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
             and np.all(np.isfinite(positions)))
    if not valid:
        with pytest.raises(ValueError, match="weights|positions"):
            ParticleMeasure(weights, positions)
        return
    nu = ParticleMeasure(weights, positions)
    assert np.array_equal(nu.weights, weights)
    assert np.array_equal(nu.positions, positions)


def _within_2_ulp(a, b):
    return np.all(np.abs(a - b) <= 2.0 * np.spacing(np.abs(b)))


@settings(max_examples=300, deadline=None)
@given(points=arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 3)),
                     elements=COORD),
       radius=st.floats(1e-3, 1e3))
# rescaled to a computed norm 2 ulp above radius: projecting again moved it
@example(points=np.array([[294142.54282731854, 0.35, 0.35]]), radius=1.515625)
def test_ball_projection_is_idempotent_and_inside(points, radius):
    once = project_to_ball(points, radius)
    assert _within_2_ulp(project_to_ball(once, radius), once)
    model = GaussianMixtureModel(np.zeros((1, points.shape[1])), bandwidth=1.0,
                                 mixing_scale=1.0, radius=radius)
    assert model.contains(once)


def _norm(points):
    return np.sqrt(np.sum(points**2, axis=-1))


@settings(max_examples=300, deadline=None)
@given(points=arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 3)),
                     elements=COORD),
       weights=arrays(float, 5, elements=st.floats(1e-6, 1e6)),
       radius=st.floats(1e-3, 1e3))
# rescaled by 1 / norm to a computed norm 1 ulp above the radius
@example(points=np.array([[-0.8352933979040376, 1.8697183611869608]]),
         weights=np.ones(5), radius=1.0)
def test_relu_rescale_is_idempotent_inside_and_keeps_weight_times_norm(
        points, weights, radius):
    model = ReluFeatureModel(np.ones((1, points.shape[1])), [1.0], radius=radius)
    weights = weights[:len(points)]
    new_w, new_pos = model.finalize_positions(weights, points)
    assert np.all(_norm(new_pos) <= radius)
    again_w, again_pos = model.finalize_positions(new_w, new_pos)
    assert np.array_equal(again_w, new_w) and np.array_equal(again_pos, new_pos)
    # one-homogeneous: weight times norm, so the network, does not change
    outside = _norm(points) > radius
    assert np.allclose((new_w * _norm(new_pos))[outside],
                       (weights * _norm(points))[outside], rtol=1e-14, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(points=arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 3)),
                     elements=COORD))
# just below -pi, the mod rounds to 2 pi: this used to wrap to +pi
@example(points=np.array([[np.nextafter(-np.pi, -4.0)]]))
def test_torus_wrap_is_idempotent_and_inside(points):
    once = wrap_torus(points)
    assert np.all((-np.pi <= once) & (once < np.pi))
    # wrapping again may move a coordinate by the rounding of (x + pi) - pi,
    # so compare by torus offset
    offset = wrap_torus(wrap_torus(once) - once)
    assert np.all(np.abs(offset) <= 2.0 * np.spacing(np.abs(once)))
    model = FourierDeconvolutionModel(0, points.shape[1], GroundTruth(
        [1.0], np.zeros((1, points.shape[1]))))
    assert model.contains(once)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 2),
       trunc=st.sampled_from([None, 3.0]), n=st.integers(1, 30),
       p=st.integers(1, 8), alpha=st.floats(0.01, 1.0), eta=st.floats(1e-4, 1.0),
       lam=st.floats(0.0, 0.5), mode=st.sampled_from(["stochastic", "deterministic"]))
def test_one_step_keeps_weights_nonnegative_and_positions_inside(
        seed, dim, trunc, n, p, alpha, eta, lam, mode):
    rng = np.random.default_rng(seed)
    truth = GroundTruth(rng.random(2) + 0.1, rng.uniform(-0.8, 0.8, (2, dim)))
    data = sample_mixture_data(truth, 0.2, n, rng, trunc_width=trunc)
    model = GaussianMixtureModel(data, bandwidth=0.3, mixing_scale=0.2,
                                 trunc_width=trunc)
    init = ParticleMeasure(rng.random(p), project_to_ball(
        rng.uniform(-1.0, 1.0, (p, dim)), 1.0))
    cfg = RunConfig(alpha=alpha, eta=eta, iterations=1, lam=lam, init=init,
                    batch_schedule=3, mode=mode)
    state = step(IterateState(k=0, measure=init, rng=rng), model, cfg)
    nu = state.measure
    assert np.all(np.isfinite(nu.weights)) and np.all(nu.weights >= 0.0)
    assert model.contains(nu.positions)


@st.composite
def lattices(draw):
    """(radius, dim, step) of a cube of at most 201, 51, 29 and 14 points an
    axis in 1 to 4 dimensions."""
    dim = draw(st.integers(1, 4))
    radius = draw(st.floats(1e-3, 1e3))
    return radius, dim, radius * draw(st.floats((0.01, 0.04, 0.07, 0.15)[dim - 1], 3.0))


@settings(max_examples=300, deadline=None)
@given(lattice=lattices(), torus=st.booleans())
@example(lattice=(1.0, 2, 0.02), torus=False)  # 2R/step integral: +R on each axis
@example(lattice=(np.pi, 2, np.pi / 5), torus=True)  # 10 points an axis, -pi kept
def test_grid_size_estimate_bounds_the_lattice(lattice, torus):
    radius, dim, spacing = lattice
    est = grid_size_estimate(radius, dim, spacing, torus)
    try:
        n = len(grid_points(radius, dim, spacing, torus))
    except ValueError:  # no lattice point in the ball
        n = 0
    if torus or dim == 1:
        assert est == n
    else:
        assert est >= n
