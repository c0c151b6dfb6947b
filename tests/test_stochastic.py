import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from fastpart import (
    FourierDeconvolutionModel,
    Minibatch,
    ParticleMeasure,
    ReluFeatureModel,
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
        assert grad == pytest.approx(-gmm_unit.data_fit(t)[1])

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
        g, _, h, _ = gmm_small.surrogate_fields(t, np.array([s]), batch.u, batch.v)
        manual = w * np.mean(g) - np.mean(h) + lam
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
        expected = -gmm_small.surrogate_fields(t, t, np.zeros(1), np.array([0.45]))[3]
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
        tensor = gmm_trunc.kernel_fields(pts[:, None], pts[None])[1]
        reference = (np.einsum("ijd,j->id", tensor, nu.signed_weights)
                     - gmm_trunc.data_fit(pts)[1])
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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def law_draw(model, rng):
    """One (u, v) draw of the model's law, u then v, with sized draws."""
    d = (1, model.dim)
    if isinstance(model, FourierDeconvolutionModel):  # v takes no draw
        fc = model.freq_cutoff
        return rng.integers(-fc, fc + 1, size=d).astype(float), np.zeros(1)
    if isinstance(model, ReluFeatureModel):  # one index feeds both sides
        idx = rng.integers(model.n_data, size=1)
        return idx, idx
    s, width = model.mixing_scale, model.trunc_width
    if width is None:
        u = rng.normal(scale=s, size=d)
    else:  # inverse CDF over the truncation's quantile window
        lo = ndtr(-width)
        u = s * ndtri(lo + rng.random(size=d) * (ndtr(width) - lo))
    return u, model.data[rng.integers(model.n_data, size=1)]


class TestBatchOfOne:
    """The batch-of-one paths of the stochastic step: a one-index draw
    against the sized draw, and a batch of one against its
    ``sample_fields`` draw, bit for bit, and against the general batch
    sum by value."""

    @pytest.mark.parametrize("name,draw,sides", [
        ("gmm_small", "sample_uv", lambda uv: uv),
        ("gmm_small", "sample_v", lambda uv: uv[1:]),
        ("gmm_trunc", "sample_uv", lambda uv: uv),
        ("fourier_noisy", "sample_uv", lambda uv: uv),
        ("relu_model", "sample_u", lambda uv: uv[:1]),
        ("relu_model", "sample_v", lambda uv: uv[1:]),
        ("relu_model", "sample_uv", lambda uv: uv),
    ])
    def test_single_index_draw_matches_sized_draw(self, request, name, draw, sides):
        # 10^4 one-draw sample_uv calls interleaved with uniforms, against
        # the model's law written out with sized draws on a twin stream, u
        # then v: the scalar index path takes the same PCG64 stream as
        # rng.integers(n, size=1).  `draw` names the part of the (u, v)
        # draw compared: its u side, its v side, or both
        model = request.getfixturevalue(name)
        fast, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        for _ in range(10_000):
            got = sides(model.sample_uv(fast, 1))
            want = sides(law_draw(model, ref))
            assert len(got) == len(want) == {"sample_uv": 2}.get(draw, 1)
            assert all(same_bits(g, w) for g, w in zip(got, want))
            assert fast.random() == ref.random()

    @pytest.mark.parametrize("lam", [0.25, 0.0])
    @pytest.mark.parametrize("name,m", [
        pytest.param(name, m, id=name if m == 1 else f"{name}-m{m}")
        for name, m in [("gmm_trunc", 1), ("gmm_small", 1), ("relu_model", 1),
                        ("relu_model", 4), ("fourier_noisy", 1), ("fourier_noisy", 4)]])
    def test_minibatch_fields_match_the_batch_sum(self, request, name, m, lam):
        # the general estimator written out: a reduction over the batch
        # axis and a division by m.  The cost keeps these bits at any m, and
        # so does the gradient at m > 1; at m = 1 the gradient is the
        # draw's, bit for bit, and the reduction's value: ReLU's gradients
        # hold many -0.0 terms, which the reduction's 0.0 + term turns into
        # 0.0.  The mixtures (gmm_small, gmm_trunc) take m > 1 batch sums
        # from their profile's centre sums, which
        # tests/test_moment_sums_properties.py holds to this reduction
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        p = 5
        pts = model.project(rng.uniform(-1, 1, size=(p, model.dim)))
        signs = [1, -1, 1, -1, 1] if name == "relu_model" else None
        nu = ParticleMeasure(rng.random(p) + 0.1, pts, signs)
        assert nu.unsigned == (signs is None)
        for _ in range(200):
            batch = draw_batch(model, nu, m, rng)
            cost, grad = minibatch_fields(model, nu, pts, lam, batch)
            atoms = nu.positions[batch.t_indices]
            gval, ggrad, hval, hgrad = model.surrogate_fields(
                pts[:, None, :], atoms[None], batch.u[None], batch.v[None])
            if not nu.unsigned:
                s = nu.signs[batch.t_indices]
                gval, ggrad = s * gval, s[None, :, None] * ggrad
            inv_m = 1.0 / batch.size
            scale = nu.tv_norm * inv_m
            add = np.add.reduce
            assert same_bits(cost, scale * add(gval, axis=1)
                             - inv_m * add(hval, axis=1) + lam)
            reduced = scale * add(ggrad, axis=1) - inv_m * add(hgrad, axis=1)
            if m == 1:
                draw = sample_fields(model, nu, pts, lam, batch)[1][:, 0]
                assert same_bits(grad, draw)
                assert np.array_equal(grad, reduced)
            else:
                assert same_bits(grad, reduced)

    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    @pytest.mark.parametrize("name", ["gmm_unit", "gmm_small", "gmm_trunc", "fourier_flat",
                                      "fourier_fc1", "fourier_noisy", "relu_model"])
    def test_batch_of_one_is_its_draw(self, request, name, signed):
        # cost and gradient of a batch of one are sample_fields' single
        # draw bit for bit, the sign of every zero included
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(26)
        p = 5
        pts = model.project(rng.uniform(-1, 1, size=(p, model.dim)))
        nu = ParticleMeasure(rng.random(p) + 0.1, pts, [1, -1, 1, -1, 1] if signed else None)
        for _ in range(100):
            batch = draw_batch(model, nu, 1, rng)
            got = minibatch_fields(model, nu, pts, 0.25, batch)
            draw = sample_fields(model, nu, pts, 0.25, batch)
            assert all(same_bits(g, d[:, 0]) for g, d in zip(got, draw))

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("m", [4, 64])
    def test_plain_mixture_batch_rows_keep_their_bits(self, gmm_small, m, signed):
        # the moment sums reduce each row alone, with no BLAS: a point's
        # batch estimate has the same bits among 41 points as on its own
        rng = np.random.default_rng(m)
        pts = np.linspace(-1.0, 1.0, 41)[:, None]
        nu = ParticleMeasure(rng.random(41) + 0.1, pts,
                             rng.choice([-1.0, 1.0], size=41) if signed else None)
        batch = draw_batch(gmm_small, nu, m, rng)
        cost, grad = minibatch_fields(gmm_small, nu, pts, 0.1, batch)
        for i, t in enumerate(pts):
            alone = minibatch_fields(gmm_small, nu, t[None], 0.1, batch)
            assert same_bits(alone[0], cost[i:i + 1])
            assert same_bits(alone[1], grad[i:i + 1])

    def test_minibatch_is_not_a_sequence(self, gmm_small):
        # a batch's size is .size; len() and indexing must fail loudly
        # rather than read as a tuple of its three fields
        batch = draw_batch(gmm_small, measure_1d([0.5, 0.5], [-0.2, 0.3]), 1,
                           np.random.default_rng(3))
        assert batch.size == 1
        with pytest.raises(TypeError):
            len(batch)
        with pytest.raises(TypeError):
            batch[0]
