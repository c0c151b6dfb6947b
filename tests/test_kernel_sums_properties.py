"""Property test of ``kernel_sums``, the exact layer's one weighted kernel
sum, against the dense forms it replaced: the gram times the weights, and
the whole (n, q, d) gradient tensor contracted with them.  Models drawn:
the plain and truncated mixtures in one and two dimensions, Fourier in
one and two, and ReLU in two and three, each with signed weights.

The bound: each value within 1e-14 and each gradient within 1e-13 of the
largest unsigned sum, max_i sum_j |w_j| |K(t_i, t'_j)| (and the same of
|grad K| for the gradient), since signed weights cancel far below their
terms, which set the rounding.  The value-only call returns the fused
value bit for bit.  The derived form contracts row blocks by einsum, so a
row's bits do not depend on the rows evaluated with it; ReLU sums through
its features with BLAS products (as its data side does), whose last bits
change with the row count, so its rows are held to the bound instead.
Needs hypothesis (the ``test`` extra); skipped without it."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fastpart import (FourierDeconvolutionModel, GaussianMixtureModel,  # noqa: E402
                      ReluFeatureModel, sample_regression_data)
from fastpart.measures import signed_measure  # noqa: E402

VALUE_BOUND = 1e-14
GRAD_BOUND = 1e-13

# kind -> the dimensions drawn for it
KINDS = {"gmm_plain": (1, 2), "gmm_trunc": (1, 2), "fourier": (1, 2), "relu": (2, 3)}
MODELS = st.sampled_from([(k, d) for k, dims in KINDS.items() for d in dims])


def _model(kind, dim, width, rng):
    """A model of the kind on the unit ball (Fourier: the torus), with
    kernel or mixing widths set by ``width``."""
    if kind == "fourier":
        weights = rng.uniform(0.1, 1.0, 3)
        spikes = rng.uniform(-np.pi, np.pi, (3, dim))
        truth = signed_measure([*weights, 0.05], [*spikes, *rng.uniform(-3, 3, (1, dim))])
        return FourierDeconvolutionModel(int(rng.integers(0, 6)), dim, truth)
    if kind == "relu":
        x, y = sample_regression_data(64, dim, rng, teacher_width=3)
        return ReluFeatureModel(x, y)
    return GaussianMixtureModel(rng.uniform(-1.0, 1.0, size=(100, dim)), width, width,
                                trunc_width=3.0 if kind == "gmm_trunc" else None)


def _points(model, rng, n):
    return model.project(rng.uniform(-model.radius, model.radius, size=(n, model.dim)))


def _dense(model, t, s):
    """The gram and the (n, q, d) gradient tensor, one kernel row a point."""
    rows = [model.kernel_fields(point, s) for point in t]
    return np.array([k for k, _ in rows]), np.array([g for _, g in rows])


def _case(kind, dim, width, seed, n, q):
    rng = np.random.default_rng(seed)
    model = _model(kind, dim, width, rng)
    return model, _points(model, rng, n), _points(model, rng, q), rng.uniform(-1, 1, q)


DRAWS = dict(model=MODELS, width=st.floats(-3.0, 0.0).map(np.exp),
             seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), q=st.integers(1, 200))


@settings(max_examples=40, deadline=None)
@given(**DRAWS)
# the truncated kernel at the widest q: three rows a block, so 400 rows
# take 134 blocks
@example(model=("gmm_trunc", 2), width=np.exp(-3.0), seed=0, n=400, q=200)
@example(model=("relu", 3), width=1.0, seed=1, n=400, q=200)
def test_kernel_sums_match_the_dense_forms(model, width, seed, n, q):
    model, t, s, w = _case(*model, width, seed, n, q)
    val, grad = model.kernel_sums(t, s, w)
    gram, tensor = _dense(model, t, s)
    assert val.shape == (n,) and grad.shape == (n, model.dim)
    scale = np.max(np.abs(gram) @ np.abs(w))
    grad_scale = np.max(np.einsum("ijd,j->id", np.abs(tensor), np.abs(w)))
    assert np.max(np.abs(val - model.gram(t, s) @ w)) <= VALUE_BOUND * scale
    want = np.einsum("ijd,j->id", tensor, w)
    assert np.max(np.abs(grad - want)) <= GRAD_BOUND * grad_scale


@settings(max_examples=40, deadline=None)
@given(**DRAWS)
def test_value_only_sums_equal_the_fused_value(model, width, seed, n, q):
    model, t, s, w = _case(*model, width, seed, n, q)
    (val,) = model.kernel_sums(t, s, w, grad=False)
    assert np.array_equal(val, model.kernel_sums(t, s, w)[0])


@settings(max_examples=40, deadline=None)
@given(**DRAWS, cut=st.integers(0, 400))
@example(model=("gmm_trunc", 1), width=np.exp(-3.0), seed=2, n=400, q=200, cut=200)
@example(model=("fourier", 2), width=1.0, seed=3, n=400, q=200, cut=1)
def test_rows_keep_their_bits(model, width, seed, n, q, cut):
    kind = model[0]
    model, t, s, w = _case(*model, width, seed, n, q)
    whole = model.kernel_sums(t, s, w)
    cut = min(cut, n - 1)
    parts = [model.kernel_sums(t[:cut], s, w), model.kernel_sums(t[cut:], s, w),
             [a[None] for a in model.kernel_sums(t[cut], s, w)]]
    rows = [slice(0, cut), slice(cut, n), slice(cut, cut + 1)]
    if kind == "relu":
        gram, tensor = _dense(model, t, s)
        scales = (np.max(np.abs(gram) @ np.abs(w)) * VALUE_BOUND,
                  np.max(np.einsum("ijd,j->id", np.abs(tensor), np.abs(w))) * GRAD_BOUND)
    for part, row in zip(parts, rows):
        for got, want, k in zip(part, whole, (0, 1)):
            assert got.shape == want[row].shape
            if kind == "relu":
                assert np.max(np.abs(got - want[row]), initial=0.0) <= scales[k]
            else:
                assert np.array_equal(got, want[row])
