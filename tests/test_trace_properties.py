"""Property test of ``trace_rows``, the block evaluation of a run's trace:
each row of a block equals ``trace_stats`` on its own iterate bit for bit
(compared as ``float.hex``), and ``trace_stats`` equals the one-pass
formula it evaluates, written out below as the reference.  Models drawn:
the plain and truncated mixtures in one and two dimensions, Fourier in
one and two, and ReLU in two, whose BLAS products are the case where a
point's bits could depend on the points evaluated with it.  A block holds
1 to 30 iterates of 0 to 60 atoms, signed or unsigned, some weights zero.
Needs hypothesis (the ``test`` extra); skipped without it."""
from functools import cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fastpart import (FourierDeconvolutionModel, GaussianMixtureModel,  # noqa: E402
                      ParticleMeasure, ReluFeatureModel, sample_regression_data)
from fastpart.diagnostics import trace_rows, trace_stats  # noqa: E402
from fastpart.measures import signed_measure  # noqa: E402

MODELS = [("gmm_plain", 1), ("gmm_plain", 2), ("gmm_trunc", 1), ("gmm_trunc", 2),
          ("fourier", 1), ("fourier", 2), ("relu", 2)]


@cache
def _model(kind, dim):
    """One fixed model of each kind: the 1-D mixtures build their data
    series once, on their first data side."""
    rng = np.random.default_rng(11 * dim)
    if kind == "fourier":
        spikes = rng.uniform(-np.pi, np.pi, (3, dim))
        noise = rng.uniform(-np.pi, np.pi, (1, dim))
        truth = signed_measure([0.8, 0.5, 0.3, -0.05], [*spikes, *noise])
        return FourierDeconvolutionModel(3, dim, truth)
    if kind == "relu":
        x, y = sample_regression_data(64, dim, rng, teacher_width=3)
        return ReluFeatureModel(x, y)
    return GaussianMixtureModel(rng.uniform(-1.0, 1.0, size=(100, dim)), 0.1, 0.08,
                                trunc_width=3.0 if kind == "gmm_trunc" else None)


def _iterate(model, rng, p, signed):
    pts = model.project(rng.uniform(-model.radius, model.radius, size=(p, model.dim)))
    w = np.where(rng.random(p) < 0.1, 0.0, rng.uniform(0.0, 1.0, p))
    signs = rng.choice([-1.0, 1.0], p) if signed else None
    return ParticleMeasure(w, pts, signs)


def _reference(model, measure, lam):
    """(objective, weighted cost norm, weighted gradient norm) of one
    iterate, written out term by term."""
    pos, w, signs, sw = (measure.positions, measure.weights, measure.signs,
                         measure.signed_weights)
    iy, giy = model.data_fit(pos)
    kw, kgrad = model.kernel_sums(pos, pos, sw)
    obj = float(0.5 * model.y_norm_sq + lam * w.sum() - sw @ iy + 0.5 * sw @ kw)
    cost = signs * (kw - iy) + lam
    grad = kgrad - giy
    return (obj, float(np.sum(w * cost**2)),
            float(np.sum(w * (grad**2).sum(axis=1))))


def _hex(row):
    return [float.hex(v) for v in row]


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(MODELS), p=st.integers(0, 60), size=st.integers(1, 30),
       signed=st.booleans(), lam=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
@example(model=("relu", 2), p=1, size=30, signed=True, lam=0.01, seed=0)
@example(model=("relu", 2), p=50, size=21, signed=True, lam=0.01, seed=1)
@example(model=("gmm_trunc", 1), p=0, size=3, signed=False, lam=0.1, seed=2)
@example(model=("fourier", 2), p=60, size=30, signed=True, lam=0.1, seed=3)
# past 128 atoms numpy's pairwise sums split a row's reductions in two
@example(model=("gmm_plain", 1), p=300, size=3, signed=False, lam=0.05, seed=4)
def test_block_rows_equal_their_iterates_alone(model, p, size, signed, lam, seed):
    model = _model(*model)
    rng = np.random.default_rng(seed)
    block = [_iterate(model, rng, p, signed) for _ in range(size)]
    rows = trace_rows(model, block, lam)
    assert len(rows) == size
    for row, nu in zip(rows, block):
        alone = trace_stats(model, nu, lam)
        assert _hex(row) == _hex(alone)
        assert _hex(alone) == _hex(_reference(model, nu, lam))
