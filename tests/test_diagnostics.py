import math

import numpy as np
import pytest

from fastpart import ParticleMeasure, marginal_cost
from fastpart.diagnostics import (
    bound_c0,
    finite_diff_check,
    grid_oracle,
    kkt_certificate,
    objective,
    trace_stats,
)
from fastpart.measures import grid_points, uniform_grid_measure
from fastpart.stochastic import exact_fields


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

    def test_unconverged_flag(self, gmm_small):
        # a tolerance below machine precision is unreachable
        orc = grid_oracle(gmm_small, 0.05, grid_step=0.02, tol=1e-17,
                          max_iter=50)
        assert not orc.converged
        assert orc.kkt_residual > 1e-17
        assert orc.measure.size > 0  # best iterate still returned


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


class TestBoundConstants:
    def test_uniform_cost_bound(self, gmm_small):
        lam = 0.2
        c0 = bound_c0(gmm_small, lam)
        rng = np.random.default_rng(4)
        grid = grid_points(1.0, 1, 0.02)
        for _ in range(10):
            p = int(rng.integers(1, 8))
            nu = measure_1d(rng.random(p) * 3, rng.uniform(-1, 1, p))
            vals = marginal_cost(gmm_small, nu, grid, lam)
            assert np.max(np.abs(vals)) <= c0 * (nu.tv_norm + 1) + 1e-12
