import math

import numpy as np
import pytest

from fastpart import (FourierDeconvolutionModel, GaussianMixtureModel, GroundTruth,
                      ParticleMeasure, benchmarks, diagnostics, marginal_cost,
                      sample_mixture_data)
from fastpart.diagnostics import (
    _kkt_residual,
    _power_iteration_norm,
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

    def test_lattice_beyond_memory_is_refused_before_it_is_built(
            self, relu_model, monkeypatch):
        # the 2-D unit disk at step 1e-3 holds about 3.1M points: a ~79 TB gram
        def built(*args):
            pytest.fail("the lattice was built")

        monkeypatch.setattr(diagnostics, "grid_points", built)
        with pytest.raises(ValueError, match=r"grid_step = 0\.001 .* 3\.14e\+06 points"):
            grid_oracle(relu_model, 0.01, 1e-3)

    def test_unconverged_flag(self, gmm_small):
        # a tolerance below machine precision is unreachable
        orc = grid_oracle(gmm_small, 0.05, grid_step=0.02, tol=1e-17,
                          max_iter=50)
        assert not orc.converged
        assert orc.kkt_residual > 1e-17
        assert orc.measure.size > 0  # best iterate still returned


def _greedy_polish(gram, shifted, active, tol, max_rounds=300):
    """Reference polish: from the whole candidate support, drop the most
    negative coordinate of the restricted solve, one solve at a time."""
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


def _two_matvec_norm(gram, iters=50):
    """Reference power iteration: a second product for the Rayleigh quotient."""
    rng = np.random.default_rng(12345)
    v = rng.normal(size=gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        v = gram @ v
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return 1.0
        v /= nrm
        lam = float(v @ (gram @ v))
    return max(lam, 1e-30)


class TestOraclePieces:
    def test_polish_few_solves_same_bits_as_greedy(self, monkeypatch):
        # gmm3a at step 1e-3: APG leaves 264 candidates for a 6-point
        # support, which the greedy drop reached in 321 solves; the active
        # set's own last solve gives the weights, so none is repeated
        problem = benchmarks.get_benchmark("gmm3a")
        model = benchmarks.build_model(problem)
        polish, lstsq = diagnostics._active_set_polish, np.linalg.lstsq
        solves, calls = [0], []

        def counted_lstsq(*args, **kwargs):
            solves[0] += 1
            return lstsq(*args, **kwargs)

        def spy(gram, shifted, active, tol):
            before = solves[0]
            out = polish(gram, shifted, active, tol)
            calls.append((gram, shifted, active, tol, out, solves[0] - before))
            return out

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        monkeypatch.setattr(diagnostics, "_active_set_polish", spy)
        orc = grid_oracle(model, problem.lam, 1e-3)
        monkeypatch.undo()
        assert orc.converged and orc.measure.size == 6
        (_, shifted, active, tol, (w, resid), n_solves), = calls
        assert active.sum() == 264
        assert n_solves <= 18
        lattice = grid_points(model.radius, model.dim, 1e-3)
        w_ref, resid_ref = _greedy_polish(model.gram(lattice, lattice), shifted,
                                          active, tol)
        assert w.tobytes() == w_ref.tobytes()
        # the polish's residual comes from the oracle's FFT product, the
        # reference's from the dense one: equal up to the products' roundoff
        op = diagnostics._ToeplitzGram(model, lattice, 1e-3)
        assert resid.hex() == _kkt_residual(op @ w - shifted, w).hex()
        assert abs(resid - resid_ref) <= 1e-13

    @pytest.mark.parametrize("case", ["gmm3a", "relu"])
    def test_power_iteration_matches_two_matvec_form(self, case):
        model, _, step = ORACLE_CASES[case]()
        lattice = grid_points(model.radius, model.dim, step)
        gram = model.gram(lattice, lattice)
        assert _power_iteration_norm(gram).hex() == _two_matvec_norm(gram).hex()


def _shift_invariant(kind, dim):
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


class TestToeplitzGram:
    # lattice steps per dimension, (with, without) the +R endpoint: 2R/step
    # integral or not, in units of the radius (1 on the ball, pi on the torus)
    STEPS = {1: (0.04, 0.045), 2: (0.1, 0.11)}

    @pytest.mark.parametrize("endpoint", [True, False])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["gmm", "trunc_gmm", "fourier"])
    def test_fft_product_matches_dense_gram(self, kind, dim, endpoint):
        model = _shift_invariant(kind, dim)
        step = model.radius * self.STEPS[dim][0 if endpoint else 1]
        grid = grid_points(model.radius, model.dim, step)
        assert np.isclose(grid.max(), model.radius) == endpoint
        gram = model.gram(grid, grid)
        op = diagnostics._ToeplitzGram(model, grid, step)
        rng = np.random.default_rng(0)
        for x in (rng.random(len(grid)), rng.normal(size=len(grid))):
            scale = np.max(np.abs(gram) @ np.abs(x))
            assert np.max(np.abs(op @ x - gram @ x)) <= 1e-13 * scale
        rows, cols = rng.choice(len(grid), 7), np.sort(rng.choice(len(grid), 5))
        assert np.array_equal(op.entries(rows, cols), gram[np.ix_(rows, cols)])

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES) + ["blocks"])
    def test_oracle_agrees_with_dense_reference(self, case, monkeypatch):
        # every golden oracle case, and the multi-block one of test_golden
        model, lam, step = (ORACLE_CASES[case]() if case != "blocks"
                            else (_gmm3a()[0], 0.05, 0.002))
        fast = grid_oracle(model, lam, step)
        # the dense reference: the n x n gram, built for every model
        monkeypatch.setattr(diagnostics, "_ToeplitzGram", lambda model, grid, step:
                            diagnostics._DenseGram(model.gram(grid, grid)))
        dense = grid_oracle(model, lam, step)
        assert np.array_equal(fast.measure.positions, dense.measure.positions)
        assert fast.objective == pytest.approx(dense.objective, rel=1e-12)
        for orc in (fast, dense):
            assert orc.converged
            assert kkt_certificate(model, orc.measure, lam, step).certified(1e-6)

    def test_oracle_builds_no_lattice_gram(self):
        # gmm3a_compare.cfg's oracle: its 2001 x 2001 gram alone is 32 MB
        model, lam = _gmm3a()
        model.y_norm_sq  # the (N, N) data matrix is not the oracle's
        assert _peak_bytes(lambda: grid_oracle(model, lam, 1e-3)) < 8e6

    def test_two_dimensional_oracle_beyond_a_dense_gram(self):
        # 7845 disk points at step 0.02: the dense gram would be 492 MB
        model = _shift_invariant("gmm", 2)
        assert 8.0 * len(grid_points(1.0, 2, 0.02)) ** 2 > 400e6
        model.y_norm_sq
        orcs = []
        peak = _peak_bytes(lambda: orcs.append(grid_oracle(model, 0.05, 0.02)))
        assert peak < 50e6
        (orc,) = orcs
        assert orc.converged and orc.measure.size > 0
        assert kkt_certificate(model, orc.measure, 0.05, 0.02).certified(1e-6)

    def test_padded_cube_beyond_memory_is_refused_before_it_is_built(
            self, monkeypatch):
        # the 3-D ball at step 1e-3 pads to a 4050^3 cube: ~2 TB of FFT buffers
        def built(*args):
            pytest.fail("the lattice was built")

        monkeypatch.setattr(diagnostics, "grid_points", built)
        with pytest.raises(ValueError,
                           match=r"grid_step = 0\.001 .* 6\.64e\+10-point padded"):
            grid_oracle(_shift_invariant("gmm", 3), 0.01, 1e-3)


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

