"""Property test of the 1-D mixture data side's Chebyshev series on
random mixtures, plain or truncated, with bandwidth, mixing scale, sample
size and radius drawn: within 1e-13 of the largest value of the sample
sum, for value and gradient, or, when the node cap leaves the function
unresolved, the sum's own bits; at a drawn interpolation node the values
tabulated there, bit for bit, and at its one-ulp neighbours the bound.
Needs hypothesis (the ``test`` extra); skipped without it."""
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_data_series import CAPPED, assert_within_bound, random_mixture  # noqa: E402


MIXTURES = dict(radius=st.floats(0.5, 3.0), bandwidth=st.floats(-4.0, 0.4).map(np.exp),
                scale=st.floats(-4.0, 0.0).map(np.exp), n=st.integers(1, 300),
                trunc_width=st.none() | st.floats(1.0, 4.0),
                seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(**MIXTURES)
@example(**CAPPED)
@example(radius=3.0, bandwidth=0.045, scale=0.045, n=300, trunc_width=None, seed=1)
# one sample outside [-R, R]: the truncated profile's tail once cancelled
# there, and 3091's series, chopped too soon, missed its own samples
@example(radius=1.0, bandwidth=np.exp(-3.5), scale=np.exp(-3.0), n=1, trunc_width=1.0,
         seed=1869)
@example(radius=2.75, bandwidth=np.exp(-3.5), scale=np.exp(-2.0), n=1, trunc_width=1.0,
         seed=3091)
@example(radius=3.0, bandwidth=np.exp(-2.0), scale=np.exp(-1.0), n=1, trunc_width=1.0,
         seed=3093)
def test_series_of_a_random_mixture_is_within_bound_or_the_sum(**drawn):
    model = random_mixture(**drawn)
    lattice = np.linspace(-model.radius, model.radius, 2001)[:, None]
    if model._data_series is None:  # the cap was hit: the sum itself
        for got, want in zip(model.data_fit(lattice), model._sample_fit(lattice)):
            assert np.array_equal(got, want)
    else:
        assert_within_bound(model, lattice)


@settings(max_examples=40, deadline=None)
@given(**MIXTURES, node=st.integers(0, 2**16), ulps=st.sampled_from([-1, 0, 1]))
def test_series_at_a_drawn_node_or_its_neighbour(node, ulps, **drawn):
    model = random_mixture(**drawn)
    series = model._data_series
    if series is None:  # the cap was hit: no nodes, the sum itself
        return
    j = node % series.length
    t = series.nodes[j] if ulps == 0 else np.nextafter(series.nodes[j], ulps * np.inf)
    lattice = np.append(np.linspace(-model.radius, model.radius, 201), t)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a node hit warns of nothing
        val, grad = model.data_fit(lattice)
        assert_within_bound(model, lattice)
    if ulps == 0:
        assert val[-1] == series.node_table[0, j] and grad[-1, 0] == series.node_table[2, j]
