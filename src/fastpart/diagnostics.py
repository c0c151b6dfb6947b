"""Objective evaluation, optimality certificates and an independent
grid-restricted oracle.

Everything here is pure and kernel-exact: no stochastic surrogate is
used, so these routines can certify or refute what the stochastic
solver produces.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .measures import ParticleMeasure, _axis_steps, grid_points, grid_size_estimate
from .models.base import FeatureModel, ShiftInvariantModel
from .stochastic import exact_fields, marginal_cost


def objective(model: FeatureModel, measure: ParticleMeasure, lam: float) -> float:
    """Regularized objective: half squared embedding error plus lam * mass."""
    return trace_stats(model, measure, lam)[0]


def trace_stats(model: FeatureModel, measure: ParticleMeasure,
                lam: float) -> tuple[float, float, float]:
    """(objective, weighted cost norm, weighted gradient norm) in one pass.

    The two norms are the measure-weighted squares of the marginal cost
    and of its gradient at the atoms.  Both vanish on the support of a
    minimizer, so their decay along the iterates measures how close the
    support is to stationary.
    """
    base = 0.5 * model.y_norm_sq
    if measure.size == 0:
        return base, 0.0, 0.0
    pos = measure.positions
    w = measure.weights
    signs = measure.signs
    sw = measure.signed_weights
    iy, giy = model.data_fit(pos)
    gram, gram_grad = model.gram_bundle(pos, pos)
    kw = gram @ sw
    obj = float(base + lam * w.sum() - sw @ iy + 0.5 * sw @ kw)
    cost = signs * (kw - iy) + lam
    grad = np.einsum("ijd,j->id", gram_grad, sw) - giy
    j2 = float(np.sum(w * cost**2))
    g2 = float(np.sum(w * (grad**2).sum(axis=1)))
    return obj, j2, g2


# ----- certification ------------------------------------------------------------


@dataclass(frozen=True)
class KktReport:
    """First-order optimality check on a fixed grid.

    ``grid_min`` is the smallest marginal cost over the certification
    lattice (nonnegative at an optimum); ``support_max_abs`` is the
    largest magnitude of the marginal cost over atoms carrying more than
    the mass threshold (zero at an optimum).  The report certifies only
    up to the grid resolution.
    """

    grid_min: float
    support_max_abs: float
    grid_step: float

    def certified(self, tol: float) -> bool:
        return self.grid_min >= -tol and self.support_max_abs <= tol


def kkt_certificate(model: FeatureModel, measure: ParticleMeasure, lam: float,
                    grid_step: float, mass_threshold: float = 1e-6) -> KktReport:
    """Evaluate the first-order conditions on the standard lattice."""
    grid = grid_points(model.radius, model.dim, grid_step)
    grid_vals = marginal_cost(model, measure, grid, lam)
    grid_min = float(np.min(grid_vals))
    support_max = 0.0
    if measure.size:
        mask = measure.weights > mass_threshold * measure.tv_norm
        if np.any(mask):
            atom_vals = marginal_cost(model, measure, measure.positions[mask], lam)
            support_max = float(np.max(np.abs(atom_vals)))
    return KktReport(grid_min, support_max, grid_step)


# ----- grid oracle ----------------------------------------------------------------


@dataclass
class OracleResult:
    objective: float
    measure: ParticleMeasure
    converged: bool
    kkt_residual: float
    iterations: int


class _DenseGram:
    """The lattice gram as one n x n array (a kernel with no offset form)."""

    def __init__(self, gram: np.ndarray):
        self.gram = gram
        self.shape = gram.shape

    def __matmul__(self, x):
        return self.gram @ x

    def entries(self, rows, cols):
        return self.gram[np.ix_(rows, cols)]


def _fft_len(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length numpy's FFT factors into
    small radices (a prime length takes its ~10x slower Bluestein path)."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # times the least power of 2 reaching m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class _ToeplitzGram:
    """The gram of a shift-invariant kernel on a uniform lattice, never built.

    K(t_i, t_j) = k(t_i - t_j) depends only on the lattice offset of the
    two points, so a product with the gram is a convolution with k on
    the offset lattice: the points sit in their bounding cube, zero
    elsewhere, and each product is one ``rfftn``/``irfftn`` pair over
    that cube zero-padded to at least 2c - 1 per axis, so the circular
    convolution does not wrap (Strang 1986; Chan & Ng 1996).  Time
    O(n log n) and memory O(n) per product instead of O(n^2).  Entries
    come from the kernel itself and equal the dense gram's bit for bit.
    """

    def __init__(self, model: ShiftInvariantModel, grid: np.ndarray, step: float):
        self.model, self.grid = model, grid
        self.shape = (len(grid), len(grid))
        idx = np.rint((grid - grid.min(axis=0)) / step).astype(np.intp)
        cube = [int(c) + 1 for c in idx.max(axis=0)]
        self._pad = tuple(_fft_len(2 * c - 1) for c in cube)
        self._axes = tuple(range(grid.shape[1]))
        self._index = tuple(idx.T)
        # k at every offset between two cube points, stored at offset mod pad;
        # k(o) = K(o, 0), so gram's row blocks bound its temporaries
        spans = [np.arange(1 - c, c) for c in cube]
        offsets = np.stack(np.meshgrid(*(step * o for o in spans), indexing="ij",
                                       copy=False), axis=-1).reshape(-1, len(cube))
        kern = model.gram(offsets, np.zeros((1, len(cube))))
        del offsets
        padded = np.zeros(self._pad)
        padded[np.ix_(*(o % p for o, p in zip(spans, self._pad)))] = (
            kern.reshape([len(o) for o in spans]))
        self._spectrum = np.fft.rfftn(padded, axes=self._axes)

    def __matmul__(self, x):
        padded = np.zeros(self._pad)
        padded[self._index] = x
        spec = np.fft.rfftn(padded, axes=self._axes)
        spec *= self._spectrum
        return np.fft.irfftn(spec, s=self._pad, axes=self._axes)[self._index]

    def entries(self, rows, cols):
        return self.model.gram(self.grid[rows], self.grid[cols])


def _power_iteration_norm(gram, iters: int = 50) -> float:
    rng = np.random.default_rng(12345)
    v = rng.normal(size=gram.shape[0])
    v /= np.linalg.norm(v)
    gv = gram @ v
    lam = 1.0
    for _ in range(iters):
        nrm = np.linalg.norm(gv)
        if nrm == 0.0:
            return 1.0
        v = gv / nrm
        gv = gram @ v  # the Rayleigh quotient's product is the next step's
        lam = float(v @ gv)
    return max(lam, 1e-30)


def _kkt_residual(cost: np.ndarray, w: np.ndarray) -> float:
    """Worst violation of: cost >= 0 on the grid, cost = 0 where w > 0."""
    return max(float(np.max(-cost, initial=0.0)),
               float(np.max(np.abs(cost[w > 0]), initial=0.0)))


def _lawson_hanson(gram, shifted, candidates):
    """Minimizer of 0.5 w'Gw - s'w over w >= 0 vanishing off ``candidates``:
    the Lawson & Hanson (1974) active set, grown from the empty set by the
    worst violation.  Returns the sorted support and the weights there,
    the last restricted least squares solved on exactly that support."""
    cand = np.flatnonzero(candidates)
    on, x = np.zeros(len(cand), dtype=bool), np.zeros(len(cand))
    for _ in range(3 * len(cand)):
        viol = np.where(on, -np.inf, shifted[cand] - gram.entries(cand, cand[on]) @ x[on])
        k = int(np.argmax(viol))
        if not viol[k] > 0.0:
            break
        on[k] = True
        while True:
            z, idx = np.zeros(len(cand)), cand[on]
            z[on] = np.linalg.lstsq(gram.entries(idx, idx), shifted[idx], rcond=None)[0]
            if x[k] == 0.0 and z[k] <= 0.0:  # > 0 in exact arithmetic: roundoff
                if on[k]:  # k just joined: x is the solve without it
                    on[k], z = False, x
                return cand[on], z[on]
            neg = np.flatnonzero(on & (z <= 0.0))
            if len(neg) == 0:
                break
            # step from x toward z until the first coordinate reaches zero
            ratio = x[neg] / (x[neg] - z[neg])
            x += ratio.min() * (z - x)
            x[neg[np.argmin(ratio)]] = 0.0
            on &= x > 0.0
            x[~on] = 0.0
        x = z
    return cand[on], x[on]


def _active_set_polish(gram, shifted, active, tol, max_rounds=300):
    """Exact solve restricted to a candidate support, grown greedily.

    The Lawson-Hanson active set picks the support among the candidates
    and gives the weights there (a negative one, which only its roundoff
    exit can leave, is dropped); then the grid point with the worst cost
    violation joins the candidates.  Stops once the residual passes tol
    or no progress is possible.
    """
    active = active.copy()
    n = len(shifted)
    w = np.zeros(n)
    resid = math.inf
    for _ in range(max_rounds):
        idx, sub = _lawson_hanson(gram, shifted, active)
        w = np.zeros(n)
        w[idx] = np.maximum(sub, 0.0)
        cost = gram @ w - shifted
        resid = _kkt_residual(cost, w)
        if resid <= tol:
            return w, resid
        j = int(np.argmin(cost))
        if cost[j] >= -tol or active[j]:
            return w, resid
        active[j] = True
    return w, resid


def grid_oracle(model: FeatureModel, lam: float, grid_step: float,
                tol: float = 1e-6, max_iter: int = 20_000,
                polish_every: int = 100) -> OracleResult:
    """Solve the grid-restricted nonnegative problem to a KKT certificate.

    The candidate support is the same lattice the certificates use.
    The driver is accelerated proximal gradient with step 1/L (L from
    power iteration on the grid kernel matrix, momentum reset whenever
    the objective increases); every ``polish_every`` sweeps the current
    support seeds an exact active-set solve, which typically certifies
    long before the first-order iteration would.  Stops once the
    first-order residual (most negative marginal cost on the grid,
    largest magnitude on the active set) passes ``tol``; hitting
    ``max_iter`` first returns the best iterate flagged unconverged.
    Runs entirely on exact kernel evaluations and shares nothing with
    the particle solver.

    A ``ShiftInvariantModel`` never builds the n x n grid kernel matrix:
    its products are FFT convolutions over the lattice's zero-padded
    bounding cube, in O(n) memory, and the polish takes its few entries
    from the kernel.  Any other model (ReLU) builds the dense matrix.
    Either way, a lattice whose working set (the padded cube, or the
    dense matrix) exceeds physical memory is refused with a
    ``ValueError`` before anything is built.
    """
    if tol <= 0 or grid_step <= 0:
        raise ValueError("tol and grid_step must be positive")
    try:
        have = float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):  # no sysconf: no refusal
        have = math.inf
    approx = grid_size_estimate(model.radius, model.dim, grid_step)
    toeplitz = isinstance(model, ShiftInvariantModel)
    if toeplitz:
        # about: a real cube, its half spectrum, the kernel's and one
        # product's (the offset lattice, d + 1 floats a point, comes first)
        pad = _fft_len(2 * _axis_steps(model.radius, grid_step) + 1)
        cube = math.prod([float(pad)] * model.dim)  # inf past the float range
        need = 32.0 * cube
        what = f"whose FFT products on a {cube:.3g}-point padded cube need"
    else:
        need = 8.0 * approx * approx
        what = "whose gram needs"
    if need > have:
        raise ValueError(
            f"grid_step = {grid_step:g} gives a lattice of about {approx:.3g} points "
            f"{what} {need / 1e9:.3g} GB, more than the "
            f"{have / 1e9:.3g} GB of physical memory; raise grid_step")
    grid = grid_points(model.radius, model.dim, grid_step)
    gram = (_ToeplitzGram(model, grid, grid_step) if toeplitz
            else _DenseGram(model.gram(grid, grid)))
    shifted = model.inner_y(grid) - lam
    lip = _power_iteration_norm(gram) * 1.01
    n = len(grid)

    # one product a sweep: G @ inertial is the same momentum step on G @ w
    w, gw = np.zeros(n), np.zeros(n)
    inertial, g_inertial = w.copy(), gw.copy()
    momentum = 1.0
    f_prev = math.inf
    best_resid, best_w = math.inf, w
    done = 0
    for it in range(1, max_iter + 1):
        grad = g_inertial - shifted
        w_next = np.maximum(inertial - grad / lip, 0.0)
        gw_next = gram @ w_next
        m_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        beta = (momentum - 1.0) / m_next
        inertial = w_next + beta * (w_next - w)
        g_inertial = gw_next + beta * (gw_next - gw)
        f = 0.5 * w_next @ gw_next - shifted @ w_next
        if f > f_prev:
            inertial, g_inertial = w_next.copy(), gw_next
            m_next = 1.0
        f_prev = f
        w, gw, momentum = w_next, gw_next, m_next
        done = it
        if it % polish_every == 0 or it == max_iter:
            resid = _kkt_residual(gw - shifted, w)
            if resid < best_resid:
                best_resid, best_w = resid, w.copy()
            if resid <= tol:
                break
            w_pol, resid_pol = _active_set_polish(gram, shifted, w > 1e-10, tol)
            if resid_pol < best_resid:
                best_resid, best_w = resid_pol, w_pol
            if resid_pol <= tol:
                break

    active = best_w > 0
    sol = ParticleMeasure(best_w[active], grid[active])
    # ReLU's n x n lattice gram must not be alive beside the objective's work
    del gram
    return OracleResult(
        objective=objective(model, sol, lam),
        measure=sol,
        converged=best_resid <= tol,
        kkt_residual=best_resid,
        iterations=done,
    )


# ----- derivative validation ---------------------------------------------------------


def finite_diff_check(model: FeatureModel, measure: ParticleMeasure, t,
                      step: float = 1e-5) -> float:
    """Largest relative gap between central differences of the marginal
    cost and its analytic gradient at t.

    Returns NaN when the model reports the point as nonsmooth at this
    step (kink exclusion), since the comparison is meaningless there.
    """
    t = np.asarray(t, dtype=float).ravel()
    if not model.smooth_at(t, step):
        return math.nan
    grad = exact_fields(model, measure, t[None, :], 0.0)[1][0]
    worst = 0.0
    for i in range(len(t)):
        hi = t.copy()
        lo = t.copy()
        hi[i] += step
        lo[i] -= step
        fd = (marginal_cost(model, measure, hi, 0.0)
              - marginal_cost(model, measure, lo, 0.0)) / (2.0 * step)
        worst = max(worst, abs(fd - grad[i]) / (1.0 + abs(grad[i])))
    return worst


# ----- uniform bound constants ----------------------------------------------------------


def bound_c1(model: FeatureModel, lam: float) -> float:
    """Almost-sure bound constant for the stochastic marginal cost."""
    b = model.bounds()
    return max(b.g_sup, b.h_sup + lam)
