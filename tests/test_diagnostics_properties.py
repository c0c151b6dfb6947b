"""Property test of the grid oracle's polish on small random
Gaussian-kernel lattices, against the greedy drop it replaced: the
weights are nonnegative, the residual is the one they give, and the
polish certifies wherever the greedy drop does, with the same weights
up to the certificate's tolerance.  Needs hypothesis (the ``test``
extra); skipped without it."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fastpart.diagnostics import _DenseGram, _active_set_polish, _kkt_residual  # noqa: E402
from test_diagnostics import _greedy_polish  # noqa: E402

TOL = 1e-6


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), width=st.floats(0.03, 1.0), lam=st.floats(0.0, 0.5),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_polish_is_feasible_and_certifies_where_greedy_does(n, width, lam, share,
                                                            seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(-1.0, 1.0, n)
    gram = np.exp(-0.5 * ((t[:, None] - t[None, :]) / width) ** 2)
    centres = rng.uniform(-1.0, 1.0, 3)
    shifted = np.exp(-0.5 * ((t[:, None] - centres) / width) ** 2) @ rng.random(3) - lam
    active = rng.random(n) < share
    w, resid = _active_set_polish(_DenseGram(gram), shifted, active, TOL)
    assert np.all(w >= 0.0)
    assert resid == _kkt_residual(gram @ w - shifted, w)
    w_ref, resid_ref = _greedy_polish(gram, shifted, active, TOL)
    if resid_ref <= TOL:
        assert resid <= TOL
        # Two solutions certified at TOL differ by at most delta per point
        # (lam_min |w - w'|^2 <= 2 TOL (|w|_1 + |w'|_1)), so both supports
        # hold every point weighing more than delta in either.  The supports
        # need not be equal: a weight near roundoff or a near-singular gram
        # leaves several certified ones.
        lam_min = np.linalg.eigvalsh(gram)[0]
        if lam_min > 0.0:
            delta = np.sqrt(2.0 * TOL * (w.sum() + w_ref.sum()) / lam_min)
            assert np.max(np.abs(w - w_ref)) <= delta
