"""Property test of the grid oracle's active set on small random
Gaussian-kernel lattices, against the greedy drop on the dense gram: the
weights are nonnegative, the residual is the one they give, and the
active set certifies wherever the greedy drop does, with the same
weights up to the certificate's tolerance.  Needs hypothesis (the
``test`` extra); skipped without it."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fastpart.diagnostics import _kkt_residual, _lawson_hanson  # noqa: E402
from test_diagnostics import _greedy_polish  # noqa: E402

TOL = 1e-6


class _GaussianLattice:
    """The Gaussian kernel of the given width on 1-D points."""

    def __init__(self, width):
        self.width = width

    def gram(self, t, s):
        return np.exp(-0.5 * ((t[:, None, 0] - s[None, :, 0]) / self.width) ** 2)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), width=st.floats(0.03, 1.0), lam=st.floats(0.0, 0.5),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
# both solutions certify, w = [1.5e-323] and w' = [0.0]: 2 TOL times their
# sum underflows to 0.0, while the bound is 5.4e-165
@example(n=1, width=0.03, lam=0.0, share=0.0, seed=978)
def test_active_set_is_feasible_and_certifies_where_greedy_does(n, width, lam, share,
                                                                seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(-1.0, 1.0, n)
    model = _GaussianLattice(width)
    gram = model.gram(t[:, None], t[:, None])
    centres = rng.uniform(-1.0, 1.0, 3)
    shifted = np.exp(-0.5 * ((t[:, None] - centres) / width) ** 2) @ rng.random(3) - lam
    w, cost, joined = _lawson_hanson(model, t[:, None], shifted, 20_000)
    resid = _kkt_residual(cost, w)
    assert np.all(w >= 0.0)
    assert joined >= np.count_nonzero(w)
    # the last scan's cost is the gram's product with the weights
    scale = np.abs(gram) @ np.abs(w) + np.abs(shifted)
    assert np.all(np.abs(cost - (gram @ w - shifted)) <= 1e-12 * scale)
    # the greedy drop, from a random candidate support over the lattice
    w_ref, resid_ref = _greedy_polish(gram, shifted, rng.random(n) < share, TOL)
    if resid_ref <= TOL:
        assert resid <= TOL
        # Two solutions certified at TOL differ by at most delta per point
        # (lam_min |w - w'|^2 <= 2 TOL (|w|_1 + |w'|_1)), so both supports
        # hold every point weighing more than delta in either.  The supports
        # need not be equal: a weight near roundoff or a near-singular gram
        # leaves several certified ones.  The bound is taken as a product
        # of square roots, so a subnormal weight sum does not underflow it.
        lam_min = np.linalg.eigvalsh(gram)[0]
        if lam_min > 0.0:
            delta = np.sqrt(2.0 * TOL / lam_min) * np.sqrt(w.sum() + w_ref.sum())
            assert np.max(np.abs(w - w_ref)) <= delta
