import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from fastpart import (
    FourierDeconvolutionModel,
    GaussianMixtureModel,
    GroundTruth,
    ParticleMeasure,
    ReluFeatureModel,
    project_to_ball,
    sample_regression_data,
)
from fastpart.measures import signed_measure
from fastpart.models.base import ModelBounds
from fastpart.models.gmm import sample_mixing_noise
from fastpart.stochastic import exact_fields, marginal_cost


def pt(*coords):
    return np.array(coords, dtype=float)


def gauss_pdf(x, var):
    return np.exp(-0.5 * x * x / var) / np.sqrt(2 * np.pi * var)


class TestGmmClosedForms:
    def test_kernel_peak_matches_quadrature(self, gmm_unit):
        # oracle: K(0) as the convolution integral of ktilde with the mixing law
        oracle, _ = quad(lambda u: gauss_pdf(-u, 2.0) * gauss_pdf(u, 1.0),
                         -np.inf, np.inf)
        val = gmm_unit.kernel(pt(0.0), pt(0.0))
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(0.2303294, abs=1e-7)

    def test_inner_y_two_points(self, gmm_unit):
        # data {-1, 1}, t = 0: both terms equal the N(0,2) density at 1
        assert gmm_unit.inner_y(pt(0.0)) == pytest.approx(0.2196956, abs=1e-7)

    def test_inner_y_single_point(self):
        m = GaussianMixtureModel([0.0], bandwidth=1.0, mixing_scale=1.0)
        assert m.inner_y(pt(0.0)) == pytest.approx(0.2820948, abs=1e-7)
        oracle, _ = quad(lambda u: gauss_pdf(-u, 1.0) * gauss_pdf(u, 1.0),
                         -np.inf, np.inf)
        assert m.inner_y(pt(0.0)) == pytest.approx(oracle, rel=1e-10)

    def test_g_at_zero_offset(self, gmm_unit):
        val = gmm_unit.surrogate_fields(pt(0.3), pt(0.3), np.zeros(1),
                                        gmm_unit.data[0])[0]
        assert val == pytest.approx(0.2820948, abs=1e-7)

    def test_y_norm_matches_direct_sum(self, gmm_unit):
        data = gmm_unit.data.ravel()
        acc = np.mean([[gauss_pdf(a - b, 1.0) for a in data] for b in data])
        assert gmm_unit.y_norm_sq == pytest.approx(acc, rel=1e-12)

    def test_truncated_kernel_matches_quadrature(self, gmm_trunc):
        import math
        s, a = 0.5, 1.5
        z = math.erf(a / s / np.sqrt(2))

        def sigma_tr(u):
            return np.where(np.abs(u) <= a, gauss_pdf(u, s * s) / z, 0.0)

        def ktilde(x):
            val, _ = quad(lambda u: gauss_pdf(x - u, 1.0) * sigma_tr(u), -a, a)
            return val

        for x in (0.0, 0.4, 1.3):
            oracle, _ = quad(lambda u: ktilde(x - u) * sigma_tr(u), -a, a)
            assert gmm_trunc.kernel(pt(x), pt(0.0)) == pytest.approx(oracle, rel=1e-9)

    def test_truncated_surrogate_mean_is_kernel(self, gmm_trunc):
        rng = np.random.default_rng(11)
        u = sample_mixing_noise(rng, (400_000, gmm_trunc.dim), gmm_trunc.mixing_scale,
                                gmm_trunc.trunc_width)
        vals = gmm_trunc.surrogate_fields(pt(0.2), pt(-0.17), u, gmm_trunc.data[0])[0]
        exact = gmm_trunc.kernel(pt(0.2), pt(-0.17))
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 4 * se


class TestFusedSurrogates:
    """``surrogate_fields`` broadcasts its four arguments together: the
    fused, stacked call the estimators make equals, bit for bit, separate
    calls on one unbatched ``(d,)`` point with one draw."""

    @staticmethod
    def _assert_entries_match(model, t, atoms, u, v):
        stacked = model.surrogate_fields(t, atoms, u, v)
        for i in range(t.shape[0]):
            for j in range(atoms.shape[1]):
                single = model.surrogate_fields(t[i, 0], atoms[0, j], u[0, j], v[0, j])
                for one, many in zip(single, stacked):
                    one, entry = np.asarray(one), many[i, j]
                    assert one.shape == entry.shape
                    assert one.tobytes() == entry.tobytes()

    @pytest.mark.parametrize("trunc_width", [None, 3.0])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1, 5, 33])
    @pytest.mark.parametrize("m", [1, 4])
    def test_fused_matches_separate(self, trunc_width, dim, p, m):
        model = _any_model("gmm_plain" if trunc_width is None else "gmm_trunc", dim)
        rng = np.random.default_rng(100 * p + m)
        t = project_to_ball(rng.uniform(-1, 1, size=(p, 1, dim)), 1.0)
        atoms = project_to_ball(rng.uniform(-1, 1, size=(1, m, dim)), 1.0)
        u, v = model.sample_uv(rng, m)
        self._assert_entries_match(model, t, atoms, u[None], v[None])

    @pytest.mark.parametrize("kind", ["fourier", "relu"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p,m", [(1, 1), (5, 4), (33, 4)])
    def test_fused_matches_separate_other_models(self, kind, dim, p, m):
        model = _any_model(kind, dim)
        rng = np.random.default_rng(100 * p + m)
        t = model.project(rng.uniform(-1, 1, size=(p, dim)))[:, None, :]
        atoms = model.project(rng.uniform(-1, 1, size=(m, dim)))[None]
        u, v = model.sample_uv(rng, m)
        if kind == "relu":  # its law sets v = u: a second draw keeps them apart
            v = model.sample_uv(rng, m)[1]
        self._assert_entries_match(model, t, atoms, u[None], v[None])

    @pytest.mark.parametrize("batched", ["u", "v"])
    @pytest.mark.parametrize("kind", ["gmm_plain", "gmm_trunc", "fourier", "relu", "stub"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_batched_draw_spans_every_field(self, stub_model, kind, dim, batched):
        # one point, one atom, 50 draws on one side and one on the other:
        # every field follows the 50 draws (Fourier and ReLU returned h of
        # shape () for 50 draws of u)
        model = stub_model(dim=dim) if kind == "stub" else _any_model(kind, dim)
        rng = np.random.default_rng(dim)
        t, atom = model.project(rng.uniform(-1, 1, size=(2, dim)))
        u, v = model.sample_uv(rng, 50)
        if kind == "relu":  # its law sets v = u: a second draw keeps them apart
            v = model.sample_uv(rng, 50)[1]
        draws = [(u, v[0])] + [(u[i], v[0]) for i in range(50)]
        if batched == "v":
            draws = [(u[0], v)] + [(u[0], v[i]) for i in range(50)]
        fields = model.surrogate_fields(t, atom, *draws[0])
        assert [np.shape(f) for f in fields] == [(50,), (50, dim), (50,), (50, dim)]
        for i, draw in enumerate(draws[1:]):
            for one, many in zip(model.surrogate_fields(t, atom, *draw), fields):
                assert np.asarray(one).tobytes() == many[i].tobytes()


def _any_model(kind, dim):
    """A small model of each kind in dimension ``dim``."""
    rng = np.random.default_rng(dim)
    if kind in ("gmm_plain", "gmm_trunc"):
        return GaussianMixtureModel(
            rng.uniform(-0.8, 0.8, size=(50, dim)), bandwidth=0.3, mixing_scale=0.2,
            radius=1.0, trunc_width=3.0 if kind == "gmm_trunc" else None)
    if kind == "fourier":
        spikes = rng.uniform(-2, 2, (2, dim))
        truth = signed_measure([0.8, 0.6, 0.05], [*spikes, *rng.uniform(-2, 2, (1, dim))])
        return FourierDeconvolutionModel(freq_cutoff=3, dim=dim, truth=truth)
    x, y = sample_regression_data(64, dim, rng, teacher_width=3)
    return ReluFeatureModel(x, y, radius=1.0)


class TestValueContract:
    """The value-only forms (``kernel``, ``inner_y``, ``gram``,
    ``kernel_sums`` without ``grad``, ``marginal_cost``) equal the first
    output of their fused primitives bit for bit; the grid routines rely
    on it."""

    @pytest.mark.parametrize("kind", ["gmm_plain", "gmm_trunc", "fourier", "relu"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_values_match_fused(self, kind, dim):
        model = _any_model(kind, dim)
        rng = np.random.default_rng(7 + dim)
        t = model.project(rng.uniform(-1, 1, size=(9, dim)))
        s = model.project(rng.uniform(-1, 1, size=(4, dim)))
        assert np.array_equal(model.kernel(t[:, None], s[None]),
                              model.kernel_fields(t[:, None], s[None])[0])
        assert np.array_equal(model.kernel(t[0], s[0]),
                              model.kernel_fields(t[0], s[0])[0])
        assert np.array_equal(model.inner_y(t), model.data_fit(t)[0])
        assert np.array_equal(model.inner_y(t[0]), model.data_fit(t[0])[0])
        nu = ParticleMeasure(np.linspace(0.2, 1.0, len(s)), s)
        assert np.array_equal(model.gram(t, s), model.gram_bundle(t, s)[0])
        assert np.array_equal(model.kernel_sums(t, s, nu.signed_weights, grad=False)[0],
                              model.kernel_sums(t, s, nu.signed_weights)[0])
        assert np.array_equal(marginal_cost(model, nu, t, 0.1),
                              exact_fields(model, nu, t, 0.1)[0])


class TestConstructorValidation:
    DATA = np.linspace(-0.5, 0.5, 10)

    @pytest.mark.parametrize("name,value", [
        ("trunc_width", -1.0), ("trunc_width", 0.0), ("trunc_width", np.nan),
        ("bandwidth", np.nan), ("mixing_scale", np.nan), ("radius", np.nan),
    ])
    def test_gmm_rejects_bad_scalar(self, name, value):
        kwargs = dict(bandwidth=0.3, mixing_scale=0.2, radius=1.0, trunc_width=3.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            GaussianMixtureModel(self.DATA, **kwargs)

    @pytest.mark.parametrize("trunc_width", [None, 3.0])
    def test_gmm_profiles_use_the_validated_floats(self, trunc_width):
        # float32 scales: the profiles were built from the raw arguments,
        # so _ktilde.var read 0.01640000008 where the floats the model
        # reports give 0.0164000000119, and inner_y was off by 2.3e-9
        raw = GaussianMixtureModel(self.DATA, np.float32(0.1), np.float32(0.08),
                                   trunc_width=trunc_width)
        ref = GaussianMixtureModel(self.DATA, raw.bandwidth, raw.mixing_scale,
                                   trunc_width=trunc_width)
        assert type(raw.bandwidth) is float and type(raw.mixing_scale) is float
        t = np.linspace(-1.0, 1.0, 7)[:, None]
        assert np.array_equal(raw.inner_y(t), ref.inner_y(t))
        assert np.array_equal(raw.gram(t, t), ref.gram(t, t))
        draws = ref.sample_uv(np.random.default_rng(0), len(t))
        for got, want in zip(raw.surrogate_fields(t, t, *draws),
                             ref.surrogate_fields(t, t, *draws)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name,value", [
        ("freq_cutoff", 2.7), ("freq_cutoff", 2.0), ("freq_cutoff", True),
        ("freq_cutoff", -1), ("dim", 1.0), ("dim", True), ("dim", 0),
    ])
    def test_fourier_rejects_a_non_integer_count(self, name, value):
        # a float cutoff was truncated (2.7 -> 2), a float dim failed with
        # a bare TypeError, and True was taken for 1
        kwargs = dict(freq_cutoff=2, dim=1)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            FourierDeconvolutionModel(truth=GroundTruth([1.0], [0.0]), **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gmm_rejects_nonfinite_data(self, bad):
        data = self.DATA.copy()
        data[3] = bad
        with pytest.raises(ValueError, match="data"):
            GaussianMixtureModel(data, bandwidth=0.3, mixing_scale=0.2)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_relu_rejects_bad_radius(self, relu_model, radius):
        with pytest.raises(ValueError, match="radius"):
            ReluFeatureModel(relu_model.x, relu_model.y, radius=radius)

    def test_relu_rejects_nonfinite_x(self, relu_model):
        x = relu_model.x.copy()
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match="x must be"):
            ReluFeatureModel(x, relu_model.y)

    def test_relu_rejects_nonfinite_y(self, relu_model):
        y = relu_model.y.copy()
        y[5] = np.inf
        with pytest.raises(ValueError, match="y must be"):
            ReluFeatureModel(relu_model.x, y)

    @pytest.mark.parametrize("field", ["weights", "positions"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ground_truth_rejects_nonfinite(self, field, bad):
        # a NaN weight used to give a model with NaN y_norm_sq and h_sup
        arrays = dict(weights=[0.5, 0.5], positions=[-0.4, 0.4])
        arrays[field] = [bad, *arrays[field][1:]]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GroundTruth(**arrays)

    def test_ground_truth_rejects_count_mismatch(self):
        # used to build, then fail later with a matmul error
        with pytest.raises(ValueError, match="got 2 weights for 1 positions"):
            GroundTruth([1.0, 2.0], [0.0])

    def test_bounds_reject_g_inf_above_g_sup(self):
        with pytest.raises(ValueError, match="g_inf exceeds g_sup"):
            ModelBounds(g_inf=1.0, g_sup=0.5, h_sup=1.0)

    def test_fourier_rejects_a_truth_of_another_dim(self):
        with pytest.raises(ValueError, match="do not match dim"):
            FourierDeconvolutionModel(freq_cutoff=2, dim=2,
                                      truth=GroundTruth([1.0], [0.0]))

    def test_gmm_rejects_3d_data(self):
        with pytest.raises(ValueError, match=r"data must be a nonempty \(N, d\) array"):
            GaussianMixtureModel(np.zeros((4, 1, 1)), bandwidth=0.3, mixing_scale=0.2)

    @pytest.mark.parametrize("n,dim", [(0, 2), (-1, 2), (5, 0)])
    def test_relu_sample_rejects_bad_sizes(self, n, dim):
        with pytest.raises(ValueError, match="need n >= 1 and dim >= 1"):
            sample_regression_data(n, dim, np.random.default_rng(0))

    @pytest.mark.parametrize("n_x,n_y", [(5, 4), (0, 0)])
    def test_relu_rejects_mismatched_or_empty_data(self, relu_model, n_x, n_y):
        with pytest.raises(ValueError, match="x and y must be nonempty with matching length"):
            ReluFeatureModel(relu_model.x[:n_x], relu_model.y[:n_y])


class TestFourierModel:
    def test_kernel_normalization(self, fourier_fc1):
        assert fourier_fc1.kernel(pt(0.3), pt(0.3)) == pytest.approx(1.0)

    def test_kernel_at_pi(self, fourier_fc1):
        # finite spectral sum: (1 + 2 cos(pi)) / 3
        oracle = np.mean([np.cos(n * np.pi) for n in (-1, 0, 1)])
        val = fourier_fc1.kernel(pt(np.pi), pt(0.0))
        assert val == pytest.approx(oracle, rel=1e-12)
        assert val == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_constant_kernel_inner_y(self, fourier_flat):
        # one unit spike under the constant kernel: y is identically 1
        for t in (-2.0, 0.0, 1.7):
            assert fourier_flat.inner_y(pt(t)) == pytest.approx(1.0)

    def test_flat_surrogates_degenerate(self, fourier_flat):
        rng = np.random.default_rng(0)
        u, v = fourier_flat.sample_uv(rng, 50)
        g, gg = fourier_flat.surrogate_fields(pt(0.5), pt(-0.5), u, v)[:2]
        assert np.all(g == 1.0)
        assert np.all(gg == 0.0)

    def test_spectral_surrogate_values(self, fourier_fc1):
        # g = cos(u (t - t')), so the gradient is -u sin(u (t - t')),
        # cross-checked by central differences
        g, gg = fourier_fc1.surrogate_fields(pt(np.pi / 2), pt(0.0), pt(1.0), 0.0)[:2]
        assert g == pytest.approx(0.0, abs=1e-12)
        assert gg[0] == pytest.approx(-1.0, rel=1e-12)
        h = 1e-6
        g_hi = fourier_fc1.surrogate_fields(pt(np.pi / 2 + h), pt(0.0), pt(1.0), 0.0)[0]
        g_lo = fourier_fc1.surrogate_fields(pt(np.pi / 2 - h), pt(0.0), pt(1.0), 0.0)[0]
        fd = (g_hi - g_lo) / (2 * h)
        assert gg[0] == pytest.approx(fd, abs=1e-8)

    def test_surrogate_mean_is_kernel(self, fourier_noisy):
        rng = np.random.default_rng(1)
        u, v = fourier_noisy.sample_uv(rng, 200_000)
        vals = fourier_noisy.surrogate_fields(pt(0.8), pt(-0.4), u, v)[0]
        exact = fourier_noisy.kernel(pt(0.8), pt(-0.4))
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 4 * se

    def test_inner_y_is_fit_plus_noise(self, fourier_noisy):
        # y sums the spikes and the noise atoms, the last one negative
        t = pt(0.3)
        truth = fourier_noisy.truth
        assert truth.signed_weights.tolist() == [0.8, 0.6, 0.05, -0.03]
        expected = sum(c * fourier_noisy.kernel(t, p)
                       for c, p in zip(truth.signed_weights, truth.positions))
        assert fourier_noisy.inner_y(t) == pytest.approx(float(expected), rel=1e-12)

    def test_torus_projection_wraps(self, fourier_fc1):
        wrapped = fourier_fc1.project(np.array([[3.5], [-3.5], [0.2]]))
        assert wrapped[0, 0] == pytest.approx(3.5 - 2 * np.pi)
        assert wrapped[1, 0] == pytest.approx(-3.5 + 2 * np.pi)
        assert wrapped[2, 0] == pytest.approx(0.2)

    def test_kernel_periodic_under_wrap(self, fourier_noisy):
        t = pt(2.9)
        assert fourier_noisy.inner_y(t) == pytest.approx(
            float(fourier_noisy.inner_y(t - 2 * np.pi)), rel=1e-12)


class TestBounds:
    def test_gmm_untruncated_inf_is_zero(self, gmm_unit):
        b = gmm_unit.bounds()
        assert b.g_inf == 0.0
        assert b.g_sup == pytest.approx(0.2820948, abs=1e-7)
        assert b.h_sup == b.g_sup

    def test_truncated_inf_positive(self, gmm_trunc):
        b = gmm_trunc.bounds()
        reach = 2 * gmm_trunc.radius + 3.0 * gmm_trunc.mixing_scale
        assert b.g_inf > 0
        assert b.g_inf == pytest.approx(
            float(gmm_trunc._ktilde(np.array(reach), False)[0]), rel=1e-12)

    def test_fourier_bounds(self, fourier_fc1, fourier_flat):
        b = fourier_fc1.bounds()
        assert b.g_sup == 1.0
        assert b.g_inf == -1.0
        flat = fourier_flat.bounds()
        assert flat.g_inf == 1.0

    def test_sampled_values_respect_bounds(self, gmm_trunc, fourier_noisy):
        rng = np.random.default_rng(2)
        # v: one data draw each, taken without the rng
        for model, v in ((gmm_trunc, gmm_trunc.data[0]), (fourier_noisy, 0.0)):
            b = model.bounds()
            if model is gmm_trunc:  # u alone: the mixing law
                u = sample_mixing_noise(rng, (5000, model.dim), model.mixing_scale,
                                        model.trunc_width)
            else:  # Fourier's v takes no draw
                u = model.sample_uv(rng, 5000)[0]
            t = model.project(rng.uniform(-1, 1, size=(1, model.dim)))[0]
            s = model.project(rng.uniform(-1, 1, size=(1, model.dim)))[0]
            g = model.surrogate_fields(t, s, u, v)[0]
            assert np.all(g <= b.g_sup + 1e-12)
            assert np.all(g >= b.g_inf - 1e-12)


class TestStructuralInvariants:
    def test_kernel_symmetry_exact(self, gmm_small, fourier_noisy):
        rng = np.random.default_rng(3)
        for model in (gmm_small, fourier_noisy):
            for _ in range(20):
                t = rng.uniform(-1, 1, size=model.dim)
                s = rng.uniform(-1, 1, size=model.dim)
                assert float(model.kernel(t, s)) == float(model.kernel(s, t))

    def test_translation_invariance(self, gmm_small, fourier_noisy):
        rng = np.random.default_rng(4)
        for model in (gmm_small, fourier_noisy):
            for _ in range(20):
                t = rng.uniform(-0.4, 0.4, size=model.dim)
                s = rng.uniform(-0.4, 0.4, size=model.dim)
                shift = rng.uniform(-0.3, 0.3, size=model.dim)
                a = float(model.kernel(t + shift, s + shift))
                b = float(model.kernel(t, s))
                assert a == pytest.approx(b, abs=1e-12)

    def test_gradients_match_finite_differences(self, gmm_small, gmm_trunc,
                                                fourier_noisy):
        rng = np.random.default_rng(5)
        h = 1e-5
        for model in (gmm_small, gmm_trunc, fourier_noisy):
            for _ in range(10):
                t = rng.uniform(-0.8, 0.8, size=model.dim)
                s = rng.uniform(-0.8, 0.8, size=model.dim)
                grad = model.kernel_fields(t, s)[1]
                for i in range(model.dim):
                    e = np.zeros(model.dim)
                    e[i] = h
                    fd = (model.kernel(t + e, s) - model.kernel(t - e, s)) / (2 * h)
                    assert abs(fd - grad[i]) / (1 + abs(grad[i])) <= 1e-5
                giy = model.data_fit(t)[1]
                for i in range(model.dim):
                    e = np.zeros(model.dim)
                    e[i] = h
                    fd = (model.inner_y(t + e) - model.inner_y(t - e)) / (2 * h)
                    assert abs(fd - giy[i]) / (1 + abs(giy[i])) <= 1e-5

    def test_monte_carlo_rate(self, gmm_small):
        # RMSE of the m-sample kernel estimate decays like 1/sqrt(m)
        rng = np.random.default_rng(6)
        t, s = pt(0.15), pt(-0.3)
        exact = float(gmm_small.kernel(t, s))
        sizes = [100, 1000, 10_000]
        reps = 30
        rmse = []
        for m in sizes:
            errs = []
            for _ in range(reps):
                u = sample_mixing_noise(rng, (m, gmm_small.dim), gmm_small.mixing_scale,
                                        gmm_small.trunc_width)
                g = gmm_small.surrogate_fields(t, s, u, gmm_small.data[0])[0]
                errs.append(np.mean(g) - exact)
            rmse.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(sizes), np.log(rmse), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestReluModel:
    def test_one_homogeneity(self, relu_model):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = rng.uniform(-1, 1, size=2)
            s = rng.uniform(-1, 1, size=2)
            c = float(rng.uniform(0.1, 3.0))
            assert float(relu_model.kernel(c * t, s)) == pytest.approx(
                c * float(relu_model.kernel(t, s)), rel=1e-12)

    def test_uv_coincide(self, relu_model):
        u, v = relu_model.sample_uv(np.random.default_rng(8), 32)
        assert np.array_equal(u, v)

    def test_surrogate_mean_is_kernel(self, relu_model):
        rng = np.random.default_rng(9)
        t, s = pt(0.3, -0.2), pt(-0.5, 0.7)
        u, v = relu_model.sample_uv(rng, 200_000)
        vals = relu_model.surrogate_fields(t, s, u, v)[0]
        exact = float(relu_model.kernel(t, s))
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 4 * se

    def test_kink_gradient_zero(self, relu_model):
        x0 = relu_model.x[0]
        t = np.array([-x0[1], x0[0]])  # orthogonal to the first sample
        grad = relu_model.surrogate_fields(t, pt(0.5, 0.5), np.array(0), np.array(0))[1]
        assert np.all(grad == 0.0)

    def test_smooth_at_detects_kinks(self, relu_model):
        x0 = relu_model.x[0]
        t = np.array([-x0[1], x0[0]])
        assert not relu_model.smooth_at(t, 1e-5)
        assert relu_model.smooth_at(pt(10.0, 10.0), 1e-5)

    def test_homogeneous_rescale_preserves_function(self, relu_model):
        w = np.array([0.7])
        raw = np.array([[1.6, -1.2]])
        new_w, new_pos = relu_model.finalize_positions(w, raw)
        assert np.linalg.norm(new_pos[0]) == pytest.approx(1.0)
        before = w[0] * np.maximum(relu_model.x @ raw[0], 0.0)
        after = new_w[0] * np.maximum(relu_model.x @ new_pos[0], 0.0)
        assert np.allclose(before, after, rtol=1e-12)


class TestProjection:
    def test_rescales_outside(self):
        assert project_to_ball(np.array([3.0, 4.0]), 1.0) == pytest.approx(
            np.array([0.6, 0.8]))

    def test_interior_untouched(self):
        v = np.array([0.3, 0.4])
        assert np.array_equal(project_to_ball(v, 1.0), v)

    def test_origin_fixed(self):
        assert np.array_equal(project_to_ball(np.zeros(2), 2.0), np.zeros(2))

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            project_to_ball(np.zeros(2), 0.0)


class TestTruncatedProfile:
    """The truncated mixture's profile evaluates both box ends as one
    stacked array; a reference with separate ends pins its bits.  Every
    surrogate goes through this one profile, so no surrogate test can
    see a change here."""

    @staticmethod
    def _separate_ends(prof, x):
        neg_a_c, a_c = prof._edges_c
        mu_c = x * prof._mu_c_slope
        lo = neg_a_c - mu_c
        hi = a_c - mu_c
        base = np.exp(-0.5 * x * x / prof.vsum) / prof._norm
        # both ends in the upper tail (lo > 0): the difference of the tails
        box = np.where(lo > 0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
        val = base * box * prof._inv_z
        pdf_lo = np.exp(-0.5 * lo * lo) / np.sqrt(2.0 * np.pi)
        pdf_hi = np.exp(-0.5 * hi * hi) / np.sqrt(2.0 * np.pi)
        d_box = prof._dbox_coef * (pdf_lo - pdf_hi)
        return val, prof._neg_inv_vsum * x * val + base * d_box

    @pytest.mark.parametrize("bandwidth,scale", [(1.0, 0.5), (0.3, 0.2), (0.05, 0.3)])
    def test_stacked_ends_match_separate_ends(self, bandwidth, scale):
        model = GaussianMixtureModel([-0.2, 0.3], bandwidth=bandwidth,
                                     mixing_scale=scale, radius=1.0, trunc_width=3.0)
        prof = model._ktilde
        # every argument a surrogate can see, tails included
        reach = 2.0 * model.radius + model.trunc_width * scale
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(-reach, reach, 5000),
                            [-reach, reach, 0.0, -0.0, 1e-300]])
        for shaped in (x, x.reshape(-1, 5, 1)):
            val, der = prof(shaped)
            ref_val, ref_der = self._separate_ends(prof, shaped)
            assert val.tobytes() == ref_val.tobytes()
            assert der.tobytes() == ref_der.tobytes()
            assert prof(shaped, False)[0].tobytes() == ref_val.tobytes()
