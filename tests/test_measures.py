import math
import sys

import numpy as np
import pytest

from fastpart import (
    CesaroTracker,
    ParticleMeasure,
    cesaro_average,
    grid_points,
    sample_particle_index,
    uniform_grid_measure,
)
from fastpart.measures import grid_size_estimate


def measure_1d(weights, positions, signs=None):
    return ParticleMeasure(weights, np.asarray(positions, dtype=float)[:, None],
                           signs)


class TestTvNorm:
    def test_sums_weights(self):
        assert measure_1d([0.5, 0.3, 0.2], [0, 1, 2]).tv_norm == 1.0

    def test_empty_measure(self):
        assert ParticleMeasure([], np.empty((0, 1))).tv_norm == 0.0

    def test_plain_sum(self):
        assert measure_1d([1.5, 2.5], [0, 1]).tv_norm == 4.0

    def test_additive_under_concatenation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = rng.integers(0, 8, size=2)
            wa, wb = rng.random(p), rng.random(q)
            a = measure_1d(wa, rng.standard_normal(p))
            b = measure_1d(wb, rng.standard_normal(q))
            both = measure_1d(np.concatenate([wa, wb]),
                              np.concatenate([a.positions, b.positions]).ravel())
            assert both.tv_norm == pytest.approx(a.tv_norm + b.tv_norm, rel=1e-15)

    def test_signed_measure_mass_ignores_signs(self):
        m = measure_1d([1.0, 2.0], [0.0, 0.5], signs=[1, -1])
        assert m.tv_norm == 3.0
        assert m.signed_weights.tolist() == [1.0, -2.0]


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            measure_1d([-0.1], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_position_rejected(self, bad):
        with pytest.raises(ValueError, match="positions must be finite"):
            ParticleMeasure([0.5, 0.5], [[0.0, 0.1], [bad, 0.2]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            measure_1d([1.0, 2.0], [0.0])

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            measure_1d([1.0], [0.0], signs=[2])

    def test_3d_positions_rejected(self):
        with pytest.raises(ValueError, match=r"positions must be a \(p, d\) array"):
            ParticleMeasure([1.0], np.zeros((1, 2, 1)))

    def test_signs_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="signs length does not match weights"):
            measure_1d([1.0, 2.0], [0.0, 0.5], signs=[1.0])

    def test_arrays_frozen(self):
        m = measure_1d([1.0], [0.0])
        with pytest.raises(ValueError):
            m.weights[0] = 2.0


class TestSampling:
    def test_two_atom_frequency(self):
        m = measure_1d([1.0, 3.0], [0.0, 1.0])
        rng = np.random.default_rng(123)
        draws = sample_particle_index(m, rng, size=100_000)
        freq = np.mean(draws == 1)
        assert 0.745 <= freq <= 0.755

    def test_singleton(self):
        m = measure_1d([1.0], [0.3])
        for seed in range(5):
            assert sample_particle_index(m, np.random.default_rng(seed)) == 0

    class _TopUniform:
        """A generator whose every uniform is 1.0, so that the drawn mass
        equals the total: the largest value ``u * total`` can round to."""

        def random(self, size=None):
            return 1.0 if size is None else np.ones(size)

    @pytest.mark.parametrize("weights,last", [([1.0, 2.0, 3.0], 2), ([0.5, 0.0], 1),
                                              ([0.2, 0.7, 0.0, 0.0], 3), ([4.0], 0)])
    def test_draw_at_the_total_takes_the_last_index(self, weights, last):
        m = measure_1d(weights, np.zeros(len(weights)))
        assert sample_particle_index(m, self._TopUniform()) == last
        draws = sample_particle_index(m, self._TopUniform(), size=3)
        assert draws.tolist() == [last] * 3

    def test_singleton_draws_index_zero(self):
        m = measure_1d([0.7], [0.1])
        draws = sample_particle_index(m, np.random.default_rng(2), size=50)
        assert draws.shape == (50,) and np.all(draws == 0)

    def test_zero_weight_atom_never_drawn(self):
        m = measure_1d([0.0, 2.0], [0.0, 1.0])
        draws = sample_particle_index(m, np.random.default_rng(5), size=1000)
        assert np.all(draws == 1)

    def test_null_measure_rejected(self):
        m = measure_1d([0.0], [0.0])
        with pytest.raises(ValueError, match="null measure"):
            sample_particle_index(m, np.random.default_rng(0))

    def test_empirical_frequencies_close(self):
        # every atom frequency within 4*sqrt(0.25/M) of its probability
        rng = np.random.default_rng(99)
        n_draws = 40_000
        tol = 4.0 * np.sqrt(0.25 / n_draws)
        for trial in range(5):
            p = int(rng.integers(2, 7))
            w = rng.random(p) + 0.05
            m = measure_1d(w, rng.standard_normal(p))
            draws = sample_particle_index(m, np.random.default_rng(1000 + trial),
                                          size=n_draws)
            probs = w / w.sum()
            for j in range(p):
                assert abs(np.mean(draws == j) - probs[j]) <= tol


class TestGridInit:
    def test_1d_lattice(self):
        m = uniform_grid_measure(1.0, 1, 0.5, 1.0)
        assert sorted(m.positions.ravel().tolist()) == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert np.allclose(m.weights, 0.2)

    def test_2d_ball_filter(self):
        m = uniform_grid_measure(1.0, 2, 1.0, 1.0)
        pts = {tuple(p) for p in m.positions}
        assert pts == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
        assert np.allclose(m.weights, 0.2)

    def test_coarse_lattice(self):
        m = uniform_grid_measure(1.0, 1, 2.0, 3.0)
        assert sorted(m.positions.ravel().tolist()) == [-1.0, 1.0]
        assert np.allclose(m.weights, 1.5)

    def test_empty_lattice_rejected(self):
        # the anchor corner of a 2-d lattice with a huge step lies outside
        with pytest.raises(ValueError, match="no lattice point"):
            grid_points(1.0, 2, 3.0)

    def test_last_point_just_past_radius_is_kept_on_it(self):
        # 2R/step is 1e-10 below 10: the axis's last point was at
        # 1 + 1e-10, past the ball filter's slack, so the lattice had 10
        # points where grid_size_estimate counts 11
        step = 2 / (10 - 5e-10)
        pts = grid_points(1.0, 1, step)
        assert len(pts) == grid_size_estimate(1.0, 1, step) == 11
        assert pts.max() == 1.0

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            grid_points(1.0, 1, 0.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            grid_points(radius, 1, 0.5)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="total_mass must be nonnegative"):
            uniform_grid_measure(1.0, 1, 0.5, -1.0)

    def test_particle_count_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            radius = float(rng.uniform(0.5, 2.0))
            step = float(rng.uniform(0.2, 1.5))
            try:
                pts = grid_points(radius, d, step)
            except ValueError:
                continue
            assert len(pts) <= (int(2 * radius / step) + 1) ** d
            assert np.all(np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-12))


class TestCesaro:
    def test_constant_sequence(self):
        m = measure_1d([1.0, 2.0], [0.0, 0.5])
        tr = CesaroTracker(m)
        tr.record(m)
        avg = cesaro_average(tr)
        assert np.array_equal(avg.weights, m.weights)
        assert np.array_equal(avg.positions, m.positions)

    def test_two_state_mean(self):
        tr = CesaroTracker(measure_1d([1.0], [0.0]))
        tr.record(measure_1d([3.0], [1.0]))
        avg = cesaro_average(tr)
        assert avg.weights[0] == pytest.approx(2.0)
        assert avg.positions[0, 0] == pytest.approx(0.5)

    def test_three_state_mean(self):
        tr = CesaroTracker(measure_1d([1.0], [0.0]))
        for w in (1.0, 4.0):
            tr.record(measure_1d([w], [0.0]))
        assert cesaro_average(tr).weights[0] == pytest.approx(2.0)

    def test_mismatched_counts_rejected(self):
        tr = CesaroTracker(measure_1d([1.0], [0.0]))
        with pytest.raises(ValueError, match="particle count"):
            tr.record(measure_1d([1.0, 2.0], [0.0, 1.0]))

    def test_average_stays_in_ball(self):
        # convexity: averaged positions stay inside any ball containing
        # all recorded positions
        rng = np.random.default_rng(4)
        for _ in range(10):
            p, d, n_states = 5, 3, 6
            states = []
            for _ in range(n_states):
                pts = rng.standard_normal((p, d))
                pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
                states.append(ParticleMeasure(rng.random(p), pts))
            tr = CesaroTracker(states[0])
            for nu in states[1:]:
                tr.record(nu)
            avg = cesaro_average(tr)
            assert np.all(np.linalg.norm(avg.positions, axis=1) <= 1.0 + 1e-12)


@pytest.mark.parametrize("radius,dim,step", [(1.0, 1, 0.001), (np.pi, 1, 0.01),
                                             (1.0, 2, 0.02), (1.0, 3, 0.1)])
def test_grid_size_estimate_tracks_the_lattice(radius, dim, step):
    n = len(grid_points(radius, dim, step))
    est = grid_size_estimate(radius, dim, step)
    # the count of the cube the lattice is cut from: equal to the lattice
    # in 1-D, 1.30x above it on the disk and 2.22x in the 3-D ball here
    assert est == (int(2 * radius / step + 1e-9) + 1) ** dim
    assert n <= est < 2.3 * n
    assert (est == n) == (dim == 1)


@pytest.mark.parametrize("dim,step", [(340, 0.02), (341, 0.02), (342, 0.02),
                                      (400, 0.001), (400, 0.5), (2000, 3.0)])
def test_grid_size_estimate_in_high_dimension(dim, step):
    # this count was once scaled by the ball's share of the cube, which
    # underflowed to 0.0 at d = 340 and 341 (inf * 0.0 = nan), made
    # math.gamma raise OverflowError from d = 342 on, and put the 5^400
    # cube at step 0.5 at about 5.12e-117 points
    est = grid_size_estimate(1.0, dim, step)
    cube = (int(2.0 / step + 1e-9) + 1) ** dim  # exact, as a Python int
    if cube > sys.float_info.max:
        assert est == math.inf
    else:
        assert est == pytest.approx(cube, rel=1e-12)
    assert grid_size_estimate(1.0, dim, step, torus=True) <= est
