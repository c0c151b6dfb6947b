import math

import numpy as np
import pytest

from fastpart import (FourierDeconvolutionModel, GaussianMixtureModel, GroundTruth,
                      ParticleMeasure, ReluFeatureModel, diagnostics, marginal_cost,
                      sample_mixture_data, sample_regression_data)
from fastpart.diagnostics import (
    _kkt_residual,
    finite_diff_check,
    grid_oracle,
    kkt_certificate,
    objective,
    trace_stats,
)
from fastpart.measures import grid_points, uniform_grid_measure
from fastpart.stochastic import exact_fields
from test_blocks import _peak_bytes
from test_golden import ORACLE_CASES, _gmm3a


def measure_1d(weights, positions, signs=None):
    return ParticleMeasure(weights, np.asarray(positions, dtype=float)[:, None],
                           signs)


EMPTY = ParticleMeasure([], np.empty((0, 1)))


class TestObjective:
    def test_empty_measure_is_half_data_norm(self, gmm_unit):
        assert objective(gmm_unit, EMPTY, 0.3) == pytest.approx(
            0.5 * gmm_unit.y_norm_sq, rel=1e-14)

    def test_perfect_fit_constant_kernel(self, fourier_flat):
        # unit spike truth and any unit atom fit exactly under k == 1
        for s in (-2.0, 0.0, 1.3):
            nu = measure_1d([1.0], [s])
            assert objective(fourier_flat, nu, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_atom_quadratic_minimum(self):
        # scan the mass of one atom at the datum; the minimizer matches
        # the closed-form ratio from the kernel constants
        from fastpart import GaussianMixtureModel
        model = GaussianMixtureModel([0.0], bandwidth=1.0, mixing_scale=1.0)
        lam = 0.05
        k00 = float(model.kernel(np.zeros(1), np.zeros(1)))
        iy0 = float(model.inner_y(np.zeros(1)))
        w_star = (iy0 - lam) / k00
        assert w_star > 0
        grid = np.linspace(0.0, 2 * w_star, 4001)
        vals = [objective(model, measure_1d([w], [0.0]), lam) for w in grid]
        best = grid[int(np.argmin(vals))]
        assert best == pytest.approx(w_star, abs=2 * (grid[1] - grid[0]))

    def test_convex_in_weights(self, gmm_small):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = 4
            pos = rng.uniform(-0.9, 0.9, p)
            w1, w2 = rng.random(p), rng.random(p)
            theta = float(rng.uniform(0.05, 0.95))
            mix = theta * w1 + (1 - theta) * w2
            lhs = objective(gmm_small, measure_1d(mix, pos), 0.1)
            rhs = (theta * objective(gmm_small, measure_1d(w1, pos), 0.1)
                   + (1 - theta) * objective(gmm_small, measure_1d(w2, pos), 0.1))
            assert lhs <= rhs + 1e-10

    def test_exact_second_order_expansion(self, gmm_small):
        # J(nu + sigma) - J(nu) = sum dw_j cost(t_j) + 0.5 dw' K dw
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = 5
            pos = rng.uniform(-0.9, 0.9, p)
            w = rng.random(p) + 0.2
            dw = rng.uniform(-0.1, 0.4, p)
            nu = measure_1d(w, pos)
            nu2 = measure_1d(w + dw, pos)
            lam = 0.17
            lhs = objective(gmm_small, nu2, lam) - objective(gmm_small, nu, lam)
            cost = marginal_cost(gmm_small, nu, nu.positions, lam)
            gram = gmm_small.gram(nu.positions, nu.positions)
            rhs = float(dw @ cost + 0.5 * dw @ gram @ dw)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_gradient_consistency_with_objective(self, gmm_small):
        # finite differences of the objective recover the marginal cost
        # (weights) and mass-scaled cost gradient (positions)
        rng = np.random.default_rng(2)
        pos = rng.uniform(-0.8, 0.8, 4)
        w = rng.random(4) + 0.3
        nu = measure_1d(w, pos)
        lam = 0.12
        h = 1e-6
        cost = marginal_cost(gmm_small, nu, nu.positions, lam)
        grad = exact_fields(gmm_small, nu, nu.positions, lam)[1]
        for j in range(4):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (objective(gmm_small, measure_1d(wp, pos), lam)
                  - objective(gmm_small, measure_1d(wm, pos), lam)) / (2 * h)
            assert abs(fd - cost[j]) / (1 + abs(cost[j])) <= 1e-5
            pp, pm = pos.copy(), pos.copy()
            pp[j] += h
            pm[j] -= h
            fd = (objective(gmm_small, measure_1d(w, pp), lam)
                  - objective(gmm_small, measure_1d(w, pm), lam)) / (2 * h)
            target = w[j] * grad[j, 0]
            assert abs(fd - target) / (1 + abs(target)) <= 1e-5


class TestStationarityNorms:
    def test_weighted_squares(self, stub_model):
        # atom of mass 2 with cost 3 and gradient (1, -1)
        model = stub_model(dim=2, k0=1.5, iy=0.0, giy=0.0, y_sq=0.0)

        class Fixed(type(model)):
            def data_fit(self, t):
                t = np.asarray(t, dtype=float)
                out = np.zeros(t.shape)
                out[..., 0] = -1.0
                out[..., 1] = 1.0
                return np.full(t.shape[:-1], 2 * 1.5 - 3 + 0.0), out

        fixed = Fixed(dim=2, k0=1.5)
        nu = ParticleMeasure([2.0], [[0.1, 0.2]])
        _, j2, g2 = trace_stats(fixed, nu, 0.0)
        assert j2 == pytest.approx(2 * 3.0**2)
        assert g2 == pytest.approx(2 * 2.0)

    def test_empty_measure(self, gmm_unit):
        assert trace_stats(gmm_unit, EMPTY, 0.1)[1:] == (0.0, 0.0)

    def test_small_at_oracle_support(self, gmm_small):
        orc = grid_oracle(gmm_small, 0.05, grid_step=0.01, tol=1e-8)
        assert orc.converged
        _, j2, g2 = trace_stats(gmm_small, orc.measure, 0.05)
        assert j2 <= 1e-8 * orc.measure.tv_norm
        # gradient norm on the support is grid-limited, not zero


class TestKktCertificate:
    def test_null_measure_certifies_when_lam_dominates(self, gmm_trunc):
        lam = gmm_trunc.bounds().h_sup * 1.01
        report = kkt_certificate(gmm_trunc, EMPTY, lam, grid_step=0.05)
        assert report.grid_min >= 0.0
        assert report.support_max_abs == 0.0
        assert report.certified(1e-9)

    def test_oracle_solution_certifies(self, gmm_small):
        orc = grid_oracle(gmm_small, 0.05, grid_step=0.01, tol=1e-6)
        report = kkt_certificate(gmm_small, orc.measure, 0.05, grid_step=0.01)
        assert report.certified(1e-6)

    def test_random_measure_fails(self, gmm_small):
        nu = uniform_grid_measure(1.0, 1, 0.2, 1.0)
        report = kkt_certificate(gmm_small, nu, 0.05, grid_step=0.05)
        assert report.support_max_abs > 10 * 1e-6
        assert not report.certified(1e-6)

    def test_mass_threshold_restricts_support(self, gmm_small):
        nu = measure_1d([1.0, 1e-9], [0.0, 0.9])
        full = kkt_certificate(gmm_small, nu, 0.05, grid_step=0.1,
                               mass_threshold=1e-12)
        trimmed = kkt_certificate(gmm_small, nu, 0.05, grid_step=0.1,
                                  mass_threshold=1e-6)
        cost_tiny = abs(marginal_cost(gmm_small, nu, np.array([0.9]), 0.05))
        cost_big = abs(marginal_cost(gmm_small, nu, np.array([0.0]), 0.05))
        assert full.support_max_abs == pytest.approx(max(cost_tiny, cost_big))
        assert trimmed.support_max_abs == pytest.approx(cost_big)


class TestGridOracle:
    def test_null_solution_when_lam_dominates(self, gmm_trunc):
        lam = gmm_trunc.bounds().h_sup * 1.05
        orc = grid_oracle(gmm_trunc, lam, grid_step=0.1, tol=1e-8)
        assert orc.converged
        assert orc.measure.size == 0
        assert orc.objective == pytest.approx(0.5 * gmm_trunc.y_norm_sq, rel=1e-14)

    def test_single_datum_quadratic(self):
        from fastpart import GaussianMixtureModel
        model = GaussianMixtureModel([0.0], bandwidth=1.0, mixing_scale=1.0)
        lam = 0.05
        orc = grid_oracle(model, lam, grid_step=0.05, tol=1e-9)
        assert orc.converged
        # mass concentrates at the origin with the closed-form weight
        k00 = float(model.kernel(np.zeros(1), np.zeros(1)))
        iy0 = float(model.inner_y(np.zeros(1)))
        assert orc.measure.tv_norm == pytest.approx((iy0 - lam) / k00, rel=1e-6)
        com = np.average(orc.measure.positions.ravel(),
                         weights=orc.measure.weights)
        assert com == pytest.approx(0.0, abs=1e-9)

    def test_finer_grid_does_not_hurt(self, gmm_small):
        vals = [grid_oracle(gmm_small, 0.05, grid_step=s, tol=1e-7).objective
                for s in (0.04, 0.02, 0.01)]
        assert vals[1] <= vals[0] + 1e-12
        assert vals[2] <= vals[1] + 1e-12

    def test_lattice_beyond_memory_is_refused_before_it_is_built(self, monkeypatch):
        # the 3-D unit ball at step 1e-3 is cut from a cube of 2001^3, about
        # 8.01e9 points
        x, y = sample_regression_data(64, 3, np.random.default_rng(3))

        def built(*args):
            pytest.fail("the lattice was built")

        monkeypatch.setattr(diagnostics, "grid_points", built)
        with pytest.raises(ValueError,
                           match=r"grid_step = 0\.001 .* up to 8\.01e\+09 points"):
            grid_oracle(ReluFeatureModel(x, y), 0.01, 1e-3)

    def test_certificate_lattice_beyond_memory_is_refused_before_it_is_built(
            self, monkeypatch):
        monkeypatch.setattr(diagnostics, "grid_points",
                            lambda *args: pytest.fail("the lattice was built"))
        with pytest.raises(ValueError,
                           match=r"grid_step = 0\.001 .* up to 8\.01e\+09 points"):
            kkt_certificate(_small_model("gmm", 3), EMPTY, 0.01, 1e-3)

    def test_certificate_peak_does_not_grow_with_the_atoms(self):
        # gmm3a on the 2001-point lattice at step 1e-3: the scan takes the
        # measure's kernel sums a row block at a time, so its peak read
        # 1.16, 1.63 and 1.64 MB at 11, 201 and 2001 atoms, where the
        # lattice-by-atoms gram took it to 1.16, 5.35 and 34.2 MB
        model, lam = _gmm3a()
        peaks = []
        for q in (11, 201, 2001):
            nu = measure_1d(np.full(q, 0.5 / q), np.linspace(-0.9, 0.9, q))
            peaks.append(_peak_bytes(lambda: kkt_certificate(model, nu, lam, 1e-3)))
        assert max(peaks) < 2.5e6
        assert peaks[2] < 1.25 * peaks[1]

    @pytest.mark.parametrize("step,reason", [
        (0.0, "must be > 0"), (math.nan, "must be > 0"), (-0.5, "must be > 0"),
        (2.5, "leaves no lattice point in the ball of radius 1"),  # (-1, -1) anchor
        (1e-300, "gives a lattice of up to inf points"),
    ])
    def test_every_lattice_refusal_names_its_key_and_step(self, step, reason):
        with pytest.raises(diagnostics.LatticeRefused) as exc:
            diagnostics.model_lattice(_small_model("gmm", 2), step, "init_step")
        assert str(exc.value).startswith(f"init_step = {step:g} {reason}")

    def test_unconverged_flag(self, gmm_small):
        # a tolerance below machine precision is unreachable
        orc = grid_oracle(gmm_small, 0.05, grid_step=0.02, tol=1e-17,
                          max_iter=50)
        assert not orc.converged
        assert orc.kkt_residual > 1e-17
        assert orc.measure.size > 0  # best iterate still returned

    def test_max_iter_counts_points_joined(self, gmm_small):
        full = grid_oracle(gmm_small, 0.05, grid_step=0.02)
        assert full.converged and full.iterations >= full.measure.size > 1
        cut = grid_oracle(gmm_small, 0.05, grid_step=0.02, max_iter=1)
        assert cut.iterations == 1 and cut.measure.size == 1
        assert not cut.converged and cut.objective > full.objective

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES) + ["blocks"])
    def test_oracle_agrees_with_dense_reference(self, case):
        # every golden oracle case, and the multi-block one of test_golden,
        # against the greedy drop on the n x n gram over the whole lattice
        model, lam, step = (ORACLE_CASES[case]() if case != "blocks"
                            else (_gmm3a()[0], 0.05, 0.002))
        orc = grid_oracle(model, lam, step)
        lattice = grid_points(model.radius, model.dim, step)
        ref = ParticleMeasure(*_greedy_weights(model, lattice, lam))
        assert np.array_equal(orc.measure.positions, ref.positions)
        assert orc.objective == pytest.approx(objective(model, ref, lam), rel=1e-12)
        assert orc.converged
        for nu in (orc.measure, ref):
            assert kkt_certificate(model, nu, lam, step).certified(1e-6)

    def test_gmm3a_takes_at_most_18_solves(self, monkeypatch):
        # gmm3a_compare.cfg's oracle: a 6-point support out of 2001 points
        model, lam = _gmm3a()
        lstsq, solves = np.linalg.lstsq, [0]

        def counted_lstsq(*args, **kwargs):
            solves[0] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        orc = grid_oracle(model, lam, 1e-3)
        assert orc.converged and orc.measure.size == 6
        assert solves[0] <= 18

    def test_oracle_builds_no_lattice_gram(self):
        # gmm3a_compare.cfg's oracle: its 2001 x 2001 gram alone is 32 MB
        model, lam = _gmm3a()
        model.y_norm_sq  # the (N, N) data matrix is not the oracle's
        assert _peak_bytes(lambda: grid_oracle(model, lam, 1e-3)) < 8e6

    def test_two_dimensional_oracle_beyond_a_dense_gram(self):
        # 7845 disk points at step 0.02: the dense gram would be 492 MB
        model = _small_model("gmm", 2)
        assert 8.0 * len(grid_points(1.0, 2, 0.02)) ** 2 > 400e6
        model.y_norm_sq
        orcs = []
        peak = _peak_bytes(lambda: orcs.append(grid_oracle(model, 0.05, 0.02)))
        assert peak < 50e6
        (orc,) = orcs
        assert orc.converged and orc.measure.size > 0
        assert kkt_certificate(model, orc.measure, 0.05, 0.02).certified(1e-6)

    def test_fourier_oracle_covers_the_whole_torus(self):
        # one spike near the corner (pi, pi): the ball of radius pi misses
        # it, and the oracle certified J* = 0.477 on 12 atoms there
        model = FourierDeconvolutionModel(3, 2, GroundTruth([1.0], [[2.8, 2.8]]))
        orc = grid_oracle(model, 0.05, 0.2)
        assert orc.converged and orc.objective < 0.051
        assert np.all(orc.measure.positions > 2.5)
        assert kkt_certificate(model, orc.measure, 0.05, 0.2).certified(1e-6)
        # the optimum on the ball's lattice, which the oracle used to
        # certify, fails the certificate on the whole torus
        lattice = grid_points(np.pi, 2, 0.2)
        ball = ParticleMeasure(*_greedy_weights(model, lattice, 0.05))
        assert objective(model, ball, 0.05) > 0.47
        assert not kkt_certificate(model, ball, 0.05, 0.2).certified(1e-6)


def _greedy_polish(gram, shifted, active, tol, max_rounds=300):
    """Reference solve on the dense gram: from the candidate support, drop
    the most negative coordinate of the restricted solve, one solve at a
    time; then the grid point with the worst cost violation joins."""
    active = active.copy()
    n = len(shifted)
    w = np.zeros(n)
    resid = math.inf
    for _ in range(max_rounds):
        idx = np.where(active)[0]
        if len(idx):
            sub, *_ = np.linalg.lstsq(gram[np.ix_(idx, idx)], shifted[idx],
                                      rcond=None)
            while np.any(sub < 0):
                k = int(np.argmin(sub))
                active[idx[k]] = False
                idx = np.delete(idx, k)
                if len(idx) == 0:
                    sub = np.empty(0)
                    break
                sub, *_ = np.linalg.lstsq(gram[np.ix_(idx, idx)], shifted[idx],
                                          rcond=None)
        else:
            sub = np.empty(0)
        w = np.zeros(n)
        w[idx] = sub
        cost = gram @ w - shifted
        resid = _kkt_residual(cost, w)
        if resid <= tol:
            return w, resid
        j = int(np.argmin(cost))
        if cost[j] >= -tol or active[j]:
            return w, resid
        active[j] = True
    return w, resid


def _greedy_weights(model, lattice, lam):
    """(weights, positions) of ``_greedy_polish`` over a whole lattice,
    from the empty support."""
    w, _ = _greedy_polish(model.gram(lattice, lattice), model.inner_y(lattice) - lam,
                          np.zeros(len(lattice), dtype=bool), 1e-6)
    return w[w > 0], lattice[w > 0]


def _small_model(kind, dim):
    """A plain or truncated mixture on the unit ball, or a Fourier model on
    the torus, in ``dim`` dimensions."""
    rng = np.random.default_rng(dim)
    pos = rng.uniform(-0.6, 0.6, size=(2, dim))
    if kind == "fourier":
        return FourierDeconvolutionModel(3, dim, GroundTruth([0.8, 0.6], pos))
    trunc = 3.0 if kind == "trunc_gmm" else None
    data = sample_mixture_data(GroundTruth([0.5, 0.5], pos), 0.1, 50, rng,
                               trunc_width=trunc)
    return GaussianMixtureModel(data, bandwidth=0.15, mixing_scale=0.1,
                                trunc_width=trunc)


class TestFiniteDiff:
    def test_flat_kernel_exact(self, fourier_flat):
        nu = measure_1d([1.0], [0.3])
        assert finite_diff_check(fourier_flat, nu, np.array([0.2])) == 0.0

    def test_gmm_small_error(self, gmm_small):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nu = measure_1d(rng.random(3), rng.uniform(-0.8, 0.8, 3))
            t = rng.uniform(-0.8, 0.8, size=1)
            assert finite_diff_check(gmm_small, nu, t, 1e-5) <= 1e-5

    def test_relu_kink_flagged(self, relu_model):
        x0 = relu_model.x[0]
        t = np.array([-x0[1], x0[0]])
        nu = ParticleMeasure([1.0], [[0.5, 0.5]])
        assert math.isnan(finite_diff_check(relu_model, nu, t, 1e-5))

