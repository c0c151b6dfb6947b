"""Property test of the plain Gaussian mixture's sums by moments against
the same sums taken pair by pair, on random mixtures in one and two
dimensions with radius, bandwidth, mixing scale, batch size and signs
drawn over the data series property test's ranges.

Both the mini-batch sums (``GaussianMixtureModel.surrogate_sums``) and the
data side's sample mean (``_GaussianProfile.sample_mean``) take the
gradient of a Gaussian sum as -(1 / var) (t S0 - S1), from the moments
S0 = sum_j w_j e_tj and S1 = sum_j w_j e_tj c_j.  That difference cancels
by about eps |t| / width, width = sqrt(var) the profile's, and the
samples reach 1.5 R.  The bound: each value within 1e-14 of the largest
pairwise value magnitude, and each gradient within 1e-13 of the largest
pairwise gradient magnitude; for the batch, the kernel and data sides'
largest magnitudes with every sign +1, added, since the sides and signed
draws cancel far below their terms, which set the rounding.
- The batch sums hold it over the whole drawn range, R / width up to
  116: a scan of 150 draws at each of seven R / width from 20 to 116
  read at most 3.9e-15 for the value and 5.7e-14 for the gradient.
- The data side holds it for R / width <= 50, so its radius is clamped
  to 50 widths.  Beyond that its gradient reaches 1.0e-13 to 1.3e-13 at
  R / width = 116, the far corner of the drawn bandwidths and scales.
Needs hypothesis (the ``test`` extra); skipped without it."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fastpart import GaussianMixtureModel  # noqa: E402
from fastpart.models.base import FeatureModel  # noqa: E402
from fastpart.models.gmm import _prod_profile  # noqa: E402

VALUE_BOUND = 1e-14
GRAD_BOUND = 1e-13

# the ranges of the data series property test, in one and two dimensions
MIXTURES = dict(radius=st.floats(0.5, 3.0), bandwidth=st.floats(-4.0, 0.4).map(np.exp),
                scale=st.floats(-4.0, 0.0).map(np.exp), dim=st.integers(1, 2),
                seed=st.integers(0, 2**32 - 1))

# the largest radius, in kernel widths, the data side's bound holds on
DATA_REACH = 50.0


def _mixture(radius, bandwidth, scale, dim, n, rng, reach=np.inf):
    """n samples uniform on [-1.5 R, 1.5 R]^dim, plain mixing, with the
    radius R clamped to ``reach`` kernel widths."""
    radius = min(radius, reach * np.hypot(bandwidth, scale))
    data = rng.uniform(-1.5 * radius, 1.5 * radius, size=(n, dim))
    return GaussianMixtureModel(data, bandwidth, scale, radius=radius)


def _points_near(model, centres, rng, p=40):
    """p points uniform in the ball and one about a kernel width from each
    centre, in the ball or not: rows where the sums are largest and rows
    far out in their tails."""
    width = np.sqrt(float(model._ktilde.var))
    near = centres + width * rng.standard_normal(centres.shape)
    spread = model.project(rng.uniform(-model.radius, model.radius, size=(p, model.dim)))
    return np.concatenate([spread, near])


def _assert_within(got, want, scale):
    """(value, gradient) pairs, each error measured against the matching
    magnitude in scale."""
    for g, w, s, bound in zip(got, want, scale, (VALUE_BOUND, GRAD_BOUND)):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= bound * s


def _largest(*pairs):
    """Largest magnitude of the values and of the gradients, summed over
    the (value, gradient) pairs."""
    return tuple(sum(np.max(np.abs(pair[k])) for pair in pairs) for k in (0, 1))


# the narrowest kernel at the largest radius, the widest batch, both signs
CORNER = dict(radius=3.0, bandwidth=np.exp(-4.0), scale=np.exp(-4.0), seed=0)


@settings(max_examples=60, deadline=None)
@given(**MIXTURES, m=st.integers(2, 256), signed=st.booleans())
@example(**CORNER, dim=1, m=256, signed=False)
@example(**CORNER, dim=2, m=256, signed=True)
# two signed draws whose wide kernels cancel to 1e-3 of either term
@example(radius=0.5, bandwidth=1.0, scale=np.exp(-1.0), dim=1, seed=59370, m=2,
         signed=True)
def test_batch_sums_by_moments_match_the_pairwise_sums(radius, bandwidth, scale, dim,
                                                       seed, m, signed):
    rng = np.random.default_rng(seed)
    model = _mixture(radius, bandwidth, scale, dim, 200, rng)
    atoms = model.project(rng.uniform(-radius, radius, size=(m, dim)))
    signs = rng.choice([-1.0, 1.0], size=m) if signed else None
    u, v = model.sample_uv(rng, m)
    pts = _points_near(model, np.concatenate([atoms + u, v]), rng)
    # the estimator's scales for a measure of mass between 0.1 and 2
    kernel_scale, data_scale = rng.uniform(0.1, 2.0) / m, 1.0 / m
    got = model.surrogate_sums(pts, atoms, signs, u, v, kernel_scale, data_scale)
    want = FeatureModel.surrogate_sums(model, pts, atoms, signs, u, v, kernel_scale,
                                       data_scale)
    # each side's pairwise sum with every sign +1 sets the rounding
    sides = [FeatureModel.surrogate_sums(model, pts, atoms, None, u, v, *scales)
             for scales in ((kernel_scale, 0.0), (0.0, data_scale))]
    _assert_within(got, want, _largest(*sides))


@settings(max_examples=60, deadline=None)
@given(**MIXTURES, n=st.integers(1, 300))
@example(**CORNER, dim=1, n=300)
@example(**CORNER, dim=2, n=1)
def test_sample_mean_by_moments_matches_the_pairwise_mean(radius, bandwidth, scale, dim,
                                                          seed, n):
    rng = np.random.default_rng(seed)
    model = _mixture(radius, bandwidth, scale, dim, n, rng, DATA_REACH)
    pts = _points_near(model, model.data, rng)
    got = model._ktilde.sample_mean(pts, model.data, True)
    vals, grads = _prod_profile(model._ktilde, pts[:, None, :] - model.data)
    want = np.mean(vals, axis=1), np.mean(grads, axis=1)
    _assert_within(got, want, _largest(want))
