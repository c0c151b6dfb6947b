import math
import warnings

import numpy as np
import pytest

from fastpart import ParticleMeasure, uniform_grid_measure
from fastpart.models.base import ModelBounds
from fastpart.optimizer import (
    IterateState,
    RunConfig,
    make_schedule,
    mass_radii,
    run,
    step,
)


def measure_1d(weights, positions, signs=None):
    return ParticleMeasure(weights, np.asarray(positions, dtype=float)[:, None],
                           signs)


class TestMassRadii:
    def test_null_solution_regime(self, stub_model):
        # h_sup == lam: no excess, r0 = 0, R0 is the initial mass
        model = stub_model(stub_bounds=ModelBounds(
            g_inf=0.5, g_sup=1.0, h_sup=0.4))
        nu0 = measure_1d([0.3, 0.4], [0.0, 0.5])
        radii = mass_radii(model, 0.4, nu0)
        assert radii.r0 == 0.0
        assert radii.R0 == pytest.approx(0.7)
        assert radii.hypothesis_ok

    def test_formula_substitution(self, stub_model):
        # h_sup - lam = 1 and g_inf = 0.5 give r0 = 2 e
        model = stub_model(stub_bounds=ModelBounds(
            g_inf=0.5, g_sup=2.0, h_sup=1.5))
        radii = mass_radii(model, 0.5, measure_1d([1.0], [0.0]))
        assert radii.r0 == pytest.approx(2 * math.e, rel=1e-12)
        assert radii.r0 == pytest.approx(5.4365637, abs=1e-6)

    def test_max_of_mass_and_per_particle(self, stub_model):
        # 10 particles, r0 = 0.2, initial mass 1: bound is 2
        excess = 0.1
        g_inf = excess * math.exp(excess) / 0.2
        model = stub_model(stub_bounds=ModelBounds(
            g_inf=g_inf, g_sup=1.0, h_sup=0.5 + excess))
        nu0 = measure_1d(np.full(10, 0.1), np.linspace(-1, 1, 10))
        radii = mass_radii(model, 0.5, nu0)
        assert radii.r0 == pytest.approx(0.2, rel=1e-12)
        assert radii.R0 == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("excess", [700.0, 710.0, 3123.0])
    def test_bound_past_the_exponential_range_is_vacuous(self, stub_model, excess):
        # exp(excess) overflows past about 709.8: mass_radii raised
        # OverflowError, which stopped even a run with manual step sizes
        model = stub_model(stub_bounds=ModelBounds(g_inf=0.5, g_sup=1.0,
                                                   h_sup=0.05 + excess))
        nu0 = measure_1d([0.5, 0.5], [-0.3, 0.3])
        radii = mass_radii(model, 0.05, nu0)
        if excess < 709.0:  # a finite bound keeps its formula's bits
            assert radii.r0 == excess / 0.5 * math.exp(excess) and radii.R0 == 2 * radii.r0
        else:
            assert radii.r0 == radii.R0 == math.inf
        assert radii.hypothesis_ok
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(run_cfg(nu0, lam=0.05, iterations=3), model)
        assert res.status == "ok" and res.radii == radii

    def test_hypothesis_violation_flag(self, gmm_unit):
        radii = mass_radii(gmm_unit, 0.1, measure_1d([1.0], [0.0]))
        assert not radii.hypothesis_ok
        assert math.isinf(radii.r0)


class TestSchedules:
    def test_global_example(self):
        sch = make_schedule("global", 1, 1.0, 1.0, 100)
        assert sch.alpha == pytest.approx(0.1)
        assert sch.eta == pytest.approx(0.001)
        assert sch.batch_schedule == 1

    def test_local_example(self):
        sch = make_schedule("local", 1, 1.0, 1.0, 10_000)
        assert sch.alpha == pytest.approx(0.01)
        assert sch.eta == pytest.approx(0.01)
        assert sch.batch_schedule == 100

    def test_global_second_example(self):
        sch = make_schedule("global", 2, 4.0, 2.0, 800)
        assert sch.alpha == pytest.approx(math.sqrt(8 / 6400), rel=1e-12)
        assert sch.alpha == pytest.approx(0.0353553, abs=1e-6)
        assert sch.eta == pytest.approx(math.sqrt(4 / (800**3 * 4.0)), rel=1e-12)
        assert sch.eta == pytest.approx(4.4194e-5, abs=1e-8)

    @pytest.mark.parametrize("R0,K", [(1e103, 10), (1e100, 10**9)])
    def test_global_refuses_an_overflowing_R0(self, R0, K):
        # R0**3 raised OverflowError past about 5.6e102, and a finite R0**3
        # whose product with K overflowed gave alpha = 0.0 without a word
        with pytest.raises(ValueError, match="R0"):
            make_schedule("global", 1, 1.0, R0, K)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_schedule("global", 1, -1.0, 1.0, 100)
        with pytest.raises(ValueError):
            make_schedule("nope", 1, 1.0, 1.0, 100)

    def test_local_warns_on_large_step(self, gmm_trunc):
        # K small enough makes alpha * C1 * (R0 + 1) exceed 1
        with pytest.warns(RuntimeWarning, match="alpha"):
            make_schedule("local", 1, 1.0, 5.0, 4, model=gmm_trunc, lam=0.2)


def run_cfg(init, **kw):
    base = dict(alpha=0.1, eta=0.01, iterations=5, lam=0.2, init=init, seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestStep:
    def test_zero_steps_change_nothing(self, gmm_small):
        nu = measure_1d([0.5, 0.5], [-0.3, 0.3])
        cfg = run_cfg(nu, alpha=0.0, eta=0.0)
        state = IterateState(k=0, measure=nu, rng=np.random.default_rng(0))
        out = step(state, gmm_small, cfg)
        assert out.k == 1
        assert np.array_equal(out.measure.weights, nu.weights)
        assert np.array_equal(out.measure.positions, nu.positions)

    def test_flat_kernel_weight_decay(self, fourier_flat):
        # marginal cost is identically 0.5; one step scales weights by e^{-0.1}
        nu = measure_1d([1.0], [0.3])
        cfg = run_cfg(nu, alpha=0.2, eta=0.05, lam=0.5)
        state = IterateState(k=0, measure=nu, rng=np.random.default_rng(1))
        out = step(state, fourier_flat, cfg)
        assert out.measure.weights[0] == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert out.measure.weights[0] == pytest.approx(0.9048374, abs=1e-7)
        assert out.measure.positions[0, 0] == pytest.approx(0.3)

    def test_projection_clamps_position(self, stub_model):
        # constant data gradient -2 pushes the particle past the boundary
        model = stub_model(k0=0.0, iy=0.0, giy=2.0)
        nu = measure_1d([1.0], [0.95])
        cfg = run_cfg(nu, alpha=0.0, eta=0.1, mode="deterministic")
        state = IterateState(k=0, measure=nu, rng=np.random.default_rng(2))
        out = step(state, model, cfg)
        # raw update: 0.95 - 0.1 * (-2) = 1.15, clipped to the unit ball
        assert out.measure.positions[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_mass_extinct_status(self, gmm_small):
        nu = measure_1d([1e-301], [0.1])
        cfg = run_cfg(nu)
        state = IterateState(k=0, measure=nu, rng=np.random.default_rng(3))
        out = step(state, gmm_small, cfg)
        assert out.status == "mass extinct"
        assert out.k == 0


class TestRun:
    def test_zero_iterations_rejected(self, gmm_small):
        with pytest.raises(ValueError):
            run(run_cfg(measure_1d([1.0], [0.0]), iterations=0), gmm_small)

    @pytest.mark.parametrize("field,value", [
        ("alpha", math.nan), ("alpha", math.inf), ("eta", math.nan), ("lam", math.nan),
    ])
    def test_nonfinite_rate_or_lam_rejected(self, gmm_small, field, value):
        # a NaN passes every "< 0" test: the run used to fail later with
        # "weight update overflowed" or "projected position left the domain"
        cfg = run_cfg(measure_1d([0.5, 0.5], [-0.3, 0.3]), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            run(cfg, gmm_small)

    def test_unknown_mode_rejected_before_any_work(self, gmm_small, monkeypatch):
        # the misspelled mode used to surface only after the initial trace
        monkeypatch.setattr("fastpart.diagnostics.trace_stats", None)
        cfg = run_cfg(measure_1d([0.5, 0.5], [-0.3, 0.3]), mode="stochasitc")
        with pytest.raises(ValueError, match="mode must be"):
            run(cfg, gmm_small)

    @pytest.mark.parametrize("batch", [0, 1.0, 2.5, True, np.float64(2.0), 12.0])
    def test_non_integer_batch_rejected(self, gmm_small, batch):
        # a float batch used to fail at step 1 inside numpy's size handling,
        # and a batch of 1.0 would reach the batch-of-one path by accident
        cfg = run_cfg(measure_1d([0.5, 0.5], [-0.3, 0.3]), batch_schedule=batch)
        with pytest.raises(ValueError, match="batch_schedule must be an integer"):
            run(cfg, gmm_small)

    @pytest.mark.parametrize("value", [2.5, True, 12.0])
    @pytest.mark.parametrize("field", ["iterations", "trace_every"])
    def test_non_integer_count_rejected_before_any_work(self, gmm_small, monkeypatch,
                                                        field, value):
        # trace_every = 2.5 used to trace at k = 0, 5, 10 and the last step,
        # True every step, and iterations = 12.0 failed after the first trace
        monkeypatch.setattr("fastpart.diagnostics.trace_stats", None)
        cfg = run_cfg(measure_1d([0.5, 0.5], [-0.3, 0.3]), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            run(cfg, gmm_small)

    def test_numpy_integer_batch_accepted(self, gmm_small):
        nu = measure_1d([0.5, 0.5], [-0.3, 0.3])
        res = run(run_cfg(nu, iterations=5, batch_schedule=np.int64(2)), gmm_small)
        ref = run(run_cfg(nu, iterations=5, batch_schedule=2), gmm_small)
        assert np.array_equal(res.measure.weights, ref.measure.weights)
        assert np.array_equal(res.measure.positions, ref.measure.positions)

    def test_single_zero_step_returns_init(self, gmm_small):
        nu = measure_1d([0.4, 0.6], [-0.2, 0.2])
        res = run(run_cfg(nu, alpha=0.0, eta=0.0, iterations=1), gmm_small)
        assert np.array_equal(res.measure.weights, nu.weights)
        assert np.array_equal(res.measure.positions, nu.positions)
        assert res.status == "ok"

    def test_bit_identical_given_seed(self, gmm_small):
        nu = uniform_grid_measure(1.0, 1, 0.2, 1.0)
        cfg = run_cfg(nu, iterations=50, seed=7, trace_every=10)
        r1 = run(cfg, gmm_small)
        r2 = run(cfg, gmm_small)
        assert len(r1.trace) == len(r2.trace)
        for a, b in zip(r1.trace, r2.trace):
            assert (a.k, a.objective, a.tv, a.local_j2, a.local_g2, a.evals) == \
                (b.k, b.objective, b.tv, b.local_j2, b.local_g2, b.evals)
        assert np.array_equal(r1.measure.weights, r2.measure.weights)
        assert np.array_equal(r1.measure.positions, r2.measure.positions)

    def test_trace_rows_and_cadence(self, gmm_small):
        nu = measure_1d([1.0], [0.0])
        res = run(run_cfg(nu, iterations=10, trace_every=1), gmm_small)
        assert [r.k for r in res.trace] == list(range(11))
        res = run(run_cfg(nu, iterations=10, trace_every=4), gmm_small)
        assert [r.k for r in res.trace] == [0, 4, 8, 10]
        assert all(b.evals >= a.evals for a, b in zip(res.trace, res.trace[1:]))

    def test_deterministic_equals_zero_variance_stochastic(self, fourier_flat):
        # single particle: both modes produce identical iterates
        nu = measure_1d([0.8], [0.4])
        for seed in (0, 99):
            rs = run(run_cfg(nu, iterations=40, lam=0.5, seed=seed,
                             mode="stochastic", trace_every=40), fourier_flat)
            rd = run(run_cfg(nu, iterations=40, lam=0.5, seed=seed,
                             mode="deterministic", trace_every=40), fourier_flat)
            assert np.array_equal(rs.measure.weights, rd.measure.weights)
            assert np.array_equal(rs.measure.positions, rd.measure.positions)

    def test_deterministic_close_zero_variance_multiparticle(self, fourier_flat):
        nu = measure_1d([0.2, 0.3, 0.1], [-0.5, 0.0, 0.5])
        rs = run(run_cfg(nu, iterations=30, lam=0.5, mode="stochastic"),
                 fourier_flat)
        rd = run(run_cfg(nu, iterations=30, lam=0.5, mode="deterministic"),
                 fourier_flat)
        assert np.allclose(rs.measure.weights, rd.measure.weights, rtol=1e-13)

    def test_mass_extinct_run(self, gmm_small):
        nu = measure_1d([1e-290], [0.1])
        # high lam drives the weight further down until underflow
        res = run(run_cfg(nu, alpha=1.0, lam=50.0, iterations=100), gmm_small)
        assert res.status == "mass extinct"

    def test_mass_extinct_run_averages_the_states_before_the_stop(self, gmm_small):
        nu = measure_1d([1e-290], [0.1])
        cfg = run_cfg(nu, alpha=1.0, lam=50.0, iterations=100, cesaro=True)
        res = run(cfg, gmm_small)
        assert res.status == "mass extinct"
        # the same iterates, stepped by hand up to the stop
        state = IterateState(k=0, measure=nu, rng=np.random.default_rng(cfg.seed))
        states = [nu]
        while step(state, gmm_small, cfg).status == "running":
            states.append(state.measure)
        assert len(states) == res.trace[-1].k + 1 < cfg.iterations + 1
        weights = positions = 0.0
        for m in states:  # summed in order, as the tracker does
            weights = weights + m.weights
            positions = positions + m.positions
        assert np.array_equal(res.cesaro.weights, weights / len(states))
        assert np.array_equal(res.cesaro.positions, positions / len(states))

    def test_cesaro_tracking(self, fourier_flat):
        nu = measure_1d([1.0], [0.3])
        cfg = run_cfg(nu, alpha=0.2, eta=0.0, lam=0.5, iterations=2,
                      cesaro=True)
        res = run(cfg, fourier_flat)
        # flat kernel, one particle: cost = w - 1 + 0.5 drives the recursion
        w = [1.0]
        for _ in range(2):
            w.append(w[-1] * math.exp(-0.2 * (w[-1] - 0.5)))
        assert res.cesaro.weights[0] == pytest.approx(np.mean(w), rel=1e-12)
        assert res.measure.weights[0] == pytest.approx(w[-1], rel=1e-12)


class TestProjectedGradientIdentities:
    """Properties of the projected step map P(t, d, eta) = (t - t+)/eta
    with t+ the projection of t - eta d: the step correlates positively
    with the raw direction and is 1-Lipschitz in it."""

    @staticmethod
    def _p(t, d, eta, radius=1.0):
        from fastpart import project_to_ball
        return (t - project_to_ball(t - eta * d, radius)) / eta

    def test_correlation_lower_bound(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            d_dim = int(rng.integers(1, 4))
            t = rng.uniform(-1, 1, d_dim)
            t = t / max(1.0, np.linalg.norm(t))
            d = rng.standard_normal(d_dim) * rng.uniform(0.1, 5)
            eta = float(rng.uniform(0.01, 2.0))
            p = self._p(t, d, eta)
            assert float(d @ p) >= float(p @ p) - 1e-10

    def test_lipschitz_in_direction(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d_dim = int(rng.integers(1, 4))
            t = rng.uniform(-1, 1, d_dim)
            t = t / max(1.0, np.linalg.norm(t))
            d1 = rng.standard_normal(d_dim) * rng.uniform(0.1, 5)
            d2 = rng.standard_normal(d_dim) * rng.uniform(0.1, 5)
            eta = float(rng.uniform(0.01, 2.0))
            gap = np.linalg.norm(self._p(t, d1, eta) - self._p(t, d2, eta))
            assert gap <= np.linalg.norm(d1 - d2) + 1e-10


class TestSignedRun:
    def test_relu_network_loss_decreases(self, relu_model):
        # two-layer network fit: signed particles, homogeneous rescaling
        rng = np.random.default_rng(21)
        p = 24
        pts = rng.normal(size=(p, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        signs = np.tile([1.0, -1.0], p // 2)
        init = ParticleMeasure(np.full(p, 1.0 / p), pts, signs)
        cfg = run_cfg(init, alpha=0.05, eta=0.05, lam=0.005, iterations=800,
                      seed=4, mode="stochastic", batch_schedule=8,
                      trace_every=100)
        res = run(cfg, relu_model)
        assert res.status == "ok"
        assert res.trace[-1].objective < 0.5 * res.trace[0].objective
        assert np.all(np.linalg.norm(res.measure.positions, axis=1)
                      <= 1.0 + 1e-12)
        assert np.array_equal(res.measure.signs, signs)

    def test_relu_deterministic_matches_loss_drop(self, relu_model):
        rng = np.random.default_rng(22)
        p = 16
        pts = rng.normal(size=(p, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        signs = np.tile([1.0, -1.0], p // 2)
        init = ParticleMeasure(np.full(p, 1.0 / p), pts, signs)
        cfg = run_cfg(init, alpha=0.1, eta=0.1, lam=0.005, iterations=300,
                      mode="deterministic", trace_every=50)
        res = run(cfg, relu_model)
        assert res.trace[-1].objective < 0.5 * res.trace[0].objective


class TestRunInvariants:
    def test_tv_bound_enforced(self, gmm_trunc):
        # bounded surrogate and alpha <= 1: total mass stays below R0
        init = uniform_grid_measure(1.0, 1, 0.25, 1.0)
        for seed in range(5):
            cfg = run_cfg(init, alpha=0.5, eta=1e-3, lam=0.3, iterations=400,
                          seed=seed, trace_every=400)
            res = run(cfg, gmm_trunc)
            radii = res.radii
            assert radii.hypothesis_ok
            assert res.measure.tv_norm <= radii.R0 + 1e-12

    def test_weights_nonincreasing_when_lam_dominates(self, gmm_trunc):
        lam = gmm_trunc.bounds().h_sup * 1.05
        init = uniform_grid_measure(1.0, 1, 0.5, 1.0)
        state = IterateState(k=0, measure=init, rng=np.random.default_rng(12))
        cfg = run_cfg(init, alpha=0.3, eta=1e-3, lam=lam)
        prev = init.weights
        for _ in range(200):
            state = step(state, gmm_trunc, cfg)
            assert np.all(state.measure.weights <= prev + 1e-300)
            prev = state.measure.weights

    def test_weight_positivity(self, gmm_trunc):
        init = uniform_grid_measure(1.0, 1, 0.25, 1.0)
        res = run(run_cfg(init, alpha=0.8, eta=1e-3, lam=0.25, iterations=500,
                          trace_every=500), gmm_trunc)
        assert np.all(res.measure.weights > 0)

    def test_positions_stay_in_domain(self, gmm_trunc, fourier_noisy):
        for model in (gmm_trunc, fourier_noisy):
            init = uniform_grid_measure(model.radius, 1, model.radius / 2, 1.0)
            res = run(run_cfg(init, alpha=0.2, eta=0.05, lam=0.3,
                              iterations=300, trace_every=300), model)
            assert model.contains(res.measure.positions)
