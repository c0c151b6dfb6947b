import numpy as np
import pytest

from fastpart import (
    Minibatch,
    ParticleMeasure,
    draw_batch,
    marginal_cost,
)
from fastpart.diagnostics import bound_c1
from fastpart.stochastic import exact_fields, minibatch_fields, sample_fields


def measure_1d(weights, positions, signs=None):
    return ParticleMeasure(weights, np.asarray(positions, dtype=float)[:, None],
                           signs)


EMPTY = ParticleMeasure([], np.empty((0, 1)))


class TestDrawBatch:
    def test_shape_and_indices(self, gmm_small):
        nu = measure_1d([0.2, 0.5, 0.3], [-0.5, 0.0, 0.5])
        batch = draw_batch(gmm_small, nu, 3, np.random.default_rng(0))
        assert batch.size == 3
        assert np.all(batch.t_indices < nu.size)
        assert batch.u.shape == (3, 1)

    def test_single_particle(self, gmm_small):
        nu = measure_1d([1.0], [0.1])
        batch = draw_batch(gmm_small, nu, 8, np.random.default_rng(1))
        assert np.all(batch.t_indices == 0)

    def test_deterministic_given_seed(self, gmm_small):
        nu = measure_1d([0.2, 0.8], [-0.3, 0.3])
        b1 = draw_batch(gmm_small, nu, 5, np.random.default_rng(33))
        b2 = draw_batch(gmm_small, nu, 5, np.random.default_rng(33))
        assert np.array_equal(b1.t_indices, b2.t_indices)
        assert np.array_equal(b1.u, b2.u)
        assert np.array_equal(b1.v, b2.v)

    def test_null_measure_rejected(self, gmm_small):
        with pytest.raises(ValueError, match="null measure"):
            draw_batch(gmm_small, measure_1d([0.0], [0.0]), 1,
                       np.random.default_rng(0))

    def test_bad_size_rejected(self, gmm_small):
        nu = measure_1d([1.0], [0.0])
        with pytest.raises(ValueError):
            draw_batch(gmm_small, nu, 0, np.random.default_rng(0))


class TestExactCost:
    def test_empty_measure(self, gmm_unit):
        t = np.array([0.25])
        val = marginal_cost(gmm_unit, EMPTY, t, 0.7)
        assert val == pytest.approx(0.7 - float(gmm_unit.inner_y(t)), rel=1e-12)

    def test_constant_kernel_flat_cost(self, fourier_flat):
        # unit spike truth, nu = delta at 0.3, lam = 0.5: 1*1 - 1 + 0.5
        nu = measure_1d([1.0], [0.3])
        for t in (-1.0, 0.0, 2.0):
            assert marginal_cost(fourier_flat, nu, np.array([t]), 0.5) == \
                pytest.approx(0.5, rel=1e-12)

    def test_gmm_closed_form(self):
        from fastpart import GaussianMixtureModel
        model = GaussianMixtureModel([0.0], bandwidth=1.0, mixing_scale=1.0)
        nu = measure_1d([2.0], [0.0])
        val = marginal_cost(model, nu, np.zeros(1), 0.1)
        expected = 2.0 / np.sqrt(6 * np.pi) - 1.0 / np.sqrt(4 * np.pi) + 0.1
        assert val == pytest.approx(expected, rel=1e-10)
        assert val == pytest.approx(0.2785641, abs=1e-7)

    def test_gradient_empty_measure(self, gmm_unit):
        t = np.array([0.4])
        grad = exact_fields(gmm_unit, EMPTY, t[None], 0.0)[1][0]
        assert grad == pytest.approx(-gmm_unit.grad_inner_y(t))

    def test_gradient_flat_kernel(self, fourier_flat):
        nu = measure_1d([1.0], [0.3])
        grad = exact_fields(fourier_flat, nu, np.array([[0.9]]), 0.0)[1][0]
        assert grad[0] == pytest.approx(0.0, abs=1e-14)

    def test_gradient_symmetric_configuration(self):
        from fastpart import GaussianMixtureModel
        model = GaussianMixtureModel([0.0], bandwidth=1.0, mixing_scale=1.0)
        nu = measure_1d([1.0, 1.0], [-0.6, 0.6])
        grad = exact_fields(model, nu, np.zeros((1, 1)), 0.0)[1][0]
        assert grad[0] == pytest.approx(0.0, abs=1e-14)


class TestMinibatchEstimators:
    def test_zero_variance_model_exact(self, fourier_flat):
        nu = measure_1d([1.0], [0.3])
        rng = np.random.default_rng(0)
        batch = draw_batch(fourier_flat, nu, 1, rng)
        est = minibatch_fields(fourier_flat, nu, np.array([[0.9]]), 0.5, batch)[0][0]
        exact = marginal_cost(fourier_flat, nu, np.array([0.9]), 0.5)
        assert est == exact
        batch5 = draw_batch(fourier_flat, nu, 5, rng)
        est5 = minibatch_fields(fourier_flat, nu, np.array([[0.9]]), 0.5, batch5)[0][0]
        assert est5 == pytest.approx(exact, rel=1e-15)

    def test_single_particle_reduction(self, gmm_small):
        # one atom: the estimator is the plain batch average of g and h terms
        w, s = 0.8, 0.25
        nu = measure_1d([w], [s])
        batch = draw_batch(gmm_small, nu, 6, np.random.default_rng(3))
        t = np.array([0.1])
        lam = 0.4
        manual = (w * np.mean(gmm_small.g(t, np.array([s]), batch.u))
                  - np.mean(gmm_small.h(t, batch.v)) + lam)
        est = minibatch_fields(gmm_small, nu, t[None], lam, batch)[0][0]
        assert est == pytest.approx(float(manual), rel=1e-12)

    def test_mean_matches_exact_within_se(self, gmm_small):
        nu = measure_1d([0.3, 0.7], [-0.4, 0.5])
        t = np.array([0.2])
        lam = 0.1
        batch = draw_batch(gmm_small, nu, 20_000, np.random.default_rng(4))
        samples = sample_fields(gmm_small, nu, t, lam, batch)[0][0]
        exact = marginal_cost(gmm_small, nu, t, lam)
        se = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean() - exact) <= 4 * se

    def test_gradient_zero_variance(self, fourier_flat):
        nu = measure_1d([1.0], [0.3])
        batch = draw_batch(fourier_flat, nu, 4, np.random.default_rng(5))
        grad = minibatch_fields(fourier_flat, nu, np.array([[0.9]]), 0.0, batch)[1][0]
        assert np.all(grad == 0.0)

    def test_gradient_even_peak_leaves_data_term(self, gmm_small):
        # single atom, zero offset draw: the kernel-side gradient sits at
        # the even profile's peak, so only the data term remains
        t = np.array([0.2])
        nu = measure_1d([0.7], [0.2])
        batch = Minibatch(np.array([0]), np.zeros((1, 1)), np.array([[0.45]]))
        grad = minibatch_fields(gmm_small, nu, t[None], 0.0, batch)[1][0]
        expected = -gmm_small.grad_h(t, np.array([0.45]))
        assert grad == pytest.approx(expected)
        assert grad[0] != 0.0

    def test_gradient_mean_matches_exact(self, gmm_small):
        nu = measure_1d([0.5, 0.5], [-0.2, 0.3])
        t = np.array([0.05])
        batch = draw_batch(gmm_small, nu, 20_000, np.random.default_rng(6))
        samples = sample_fields(gmm_small, nu, t, 0.0, batch)[1][0]
        exact = exact_fields(gmm_small, nu, t[None], 0.0)[1][0]
        for i in range(1):
            se = samples[:, i].std() / np.sqrt(len(samples))
            assert abs(samples[:, i].mean() - exact[i]) <= 4 * se

    def test_fused_path_matches_reference(self, gmm_trunc):
        nu = measure_1d([0.4, 0.6, 0.2], [-0.5, 0.1, 0.7])
        pts = nu.positions
        batch = draw_batch(gmm_trunc, nu, 9, np.random.default_rng(7))
        cost, grad = minibatch_fields(gmm_trunc, nu, pts, 0.3, batch)
        scost, sgrad = sample_fields(gmm_trunc, nu, pts, 0.3, batch)
        assert np.allclose(cost, scost.mean(axis=1), rtol=1e-12)
        assert np.allclose(grad, sgrad.mean(axis=1), rtol=1e-12)
        ecost, egrad = exact_fields(gmm_trunc, nu, pts, 0.3)
        assert np.allclose(ecost, marginal_cost(gmm_trunc, nu, pts, 0.3), rtol=1e-12)
        reference = (np.einsum("ijd,j->id", gmm_trunc.gram_bundle(pts, pts)[1],
                               nu.signed_weights) - gmm_trunc.grad_inner_y(pts))
        assert np.allclose(egrad, reference, rtol=1e-12)

    def test_signed_measure_estimator_unbiased(self, gmm_small):
        nu = measure_1d([0.5, 0.5], [-0.3, 0.4], signs=[1, -1])
        t = np.array([0.1])
        batch = draw_batch(gmm_small, nu, 40_000, np.random.default_rng(8))
        samples = sample_fields(gmm_small, nu, t, 0.2, batch)[0][0]
        sw = nu.signed_weights
        exact = (sw @ gmm_small.kernel(np.broadcast_to(t, (2, 1)), nu.positions)
                 - float(gmm_small.inner_y(t)) + 0.2)
        se = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean() - exact) <= 4 * se


class TestAlmostSureBounds:
    def test_cost_bound(self, gmm_trunc):
        # |estimate| <= C1 (mass + 1) for every draw
        lam = 0.3
        c1 = bound_c1(gmm_trunc, lam)
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = int(rng.integers(1, 6))
            nu = measure_1d(rng.random(p) * 2, rng.uniform(-1, 1, p))
            batch = draw_batch(gmm_trunc, nu, 3, rng)
            t = rng.uniform(-1, 1, size=(4, 1))
            vals = sample_fields(gmm_trunc, nu, t, lam, batch)[0]
            assert np.all(np.abs(vals) <= c1 * (nu.tv_norm + 1) + 1e-12)

    def test_gradient_bound(self, gmm_trunc, fourier_noisy):
        rng = np.random.default_rng(10)
        for model in (gmm_trunc, fourier_noisy):
            b = model.bounds()
            for _ in range(15):
                p = int(rng.integers(1, 5))
                nu = measure_1d(rng.random(p), rng.uniform(-1, 1, p))
                batch = draw_batch(model, nu, 2, rng)
                t = rng.uniform(-1, 1, size=(3, 1))
                grads = sample_fields(model, nu, t, 0.0, batch)[1]
                norms = np.linalg.norm(grads, axis=-1)
                cap = nu.tv_norm * b.grad_g_sup + b.grad_h_sup
                assert np.all(norms <= cap + 1e-12)

    def test_debug_mode_checks_bound(self, gmm_trunc, monkeypatch):
        from fastpart import stochastic as st
        monkeypatch.setattr(st, "DEBUG_BOUND_CHECKS", True)
        nu = measure_1d([0.5, 0.5], [-0.4, 0.4])
        batch = draw_batch(gmm_trunc, nu, 4, np.random.default_rng(20))
        minibatch_fields(gmm_trunc, nu, nu.positions, 0.3, batch)  # within bound

        class Lying(type(gmm_trunc)):
            def bounds(self):
                b = gmm_trunc.bounds()
                from fastpart.models.base import ModelBounds
                return ModelBounds(g_inf=0.0, g_sup=1e-9, h_sup=1e-9,
                                   grad_g_sup=b.grad_g_sup,
                                   grad_h_sup=b.grad_h_sup)

        lying = Lying(gmm_trunc.data, bandwidth=1.0, mixing_scale=0.5,
                      radius=1.0, trunc_width=3.0)
        with pytest.raises(AssertionError, match="almost-sure bound"):
            minibatch_fields(lying, nu, nu.positions, 1e-6, batch)

    def test_variance_scaling_with_batch_size(self, gmm_small):
        # var of the m-average should scale like 1/m (within a 1.3 factor)
        nu = measure_1d([0.5, 0.5], [-0.4, 0.4])
        t = np.array([0.1])
        rng = np.random.default_rng(11)
        n_rep = 3000
        base_batch = draw_batch(gmm_small, nu, n_rep * 64, rng)
        samples = sample_fields(gmm_small, nu, t, 0.1, base_batch)[0][0]
        var1 = samples.var()
        for m in (4, 16, 64):
            means = samples[:n_rep * m].reshape(n_rep, m).mean(axis=1)
            ratio = means.var() / (var1 / m)
            assert 1 / 1.3 <= ratio <= 1.3
