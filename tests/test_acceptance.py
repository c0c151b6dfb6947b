"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria run at the scales and tolerances fixed here; the
shared gmm3a problem, its fine-grid oracle and the solver presets are
session fixtures so the expensive pieces are computed once.
"""
import math
import time

import numpy as np
import pytest

from fastpart import (
    FourierDeconvolutionModel,
    GaussianMixtureModel,
    GroundTruth,
    ParticleMeasure,
    benchmarks,
    sample_mixture_data,
    uniform_grid_measure,
)
from fastpart import diagnostics as diag
from fastpart.cli import main, write_measure
from fastpart.measures import signed_measure
from fastpart.models.gmm import sample_mixing_noise
from fastpart.optimizer import IterateState, RunConfig, make_schedule, mass_radii, run, step
from fastpart.stochastic import draw_batch, exact_fields, marginal_cost, sample_fields


def announce(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def bench3a():
    problem = benchmarks.get_benchmark("gmm3a")
    return problem, benchmarks.build_model(problem)


@pytest.fixture(scope="module")
def oracle3a(bench3a):
    problem, model = bench3a
    orc = diag.grid_oracle(model, problem.lam, grid_step=1e-3, tol=1e-6)
    assert orc.converged
    return orc


@pytest.fixture(scope="module")
def trunc_problem():
    """Truncated-mixing model: the surrogate lower bound is positive."""
    truth = GroundTruth(weights=[0.5, 0.5], positions=[-0.4, 0.4])
    data = sample_mixture_data(truth, 0.5, 300, np.random.default_rng(7),
                               trunc_width=3.0)
    return GaussianMixtureModel(data, bandwidth=1.0, mixing_scale=0.5,
                                radius=1.0, trunc_width=3.0)


def test_criterion_1_tv_boundedness(trunc_problem):
    """Total mass stays under R0 at every iteration of every run."""
    model = trunc_problem
    lam = 0.25
    init = uniform_grid_measure(1.0, 1, 0.5, 1.0)
    radii = mass_radii(model, lam, init)
    assert radii.hypothesis_ok and math.isfinite(radii.R0)
    cfg = RunConfig(alpha=0.5, eta=1e-3, iterations=2000, lam=lam, init=init)

    t0 = time.perf_counter()
    violations = 0
    max_tv = 0.0
    for seed in range(200):
        state = IterateState(k=0, measure=init,
                             rng=np.random.default_rng(seed))
        for _ in range(cfg.iterations):
            state = step(state, model, cfg)
            tv = state.measure.tv_norm
            if tv > radii.R0 + 1e-12:
                violations += 1
            max_tv = max(max_tv, tv)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0
    announce(1, f"0 violations over 200 runs x 2000 iterations "
                f"(max tv {max_tv:.3f} vs R0 {radii.R0:.3f}; {elapsed:.1f}s)")


def test_criterion_2_null_solution_regime(trunc_problem):
    """Over-regularized runs shrink monotonically to (almost) nothing."""
    model = trunc_problem
    lam = 1.05 * model.bounds().h_sup
    init = uniform_grid_measure(1.0, 1, 0.5, 1.0)
    cfg = RunConfig(alpha=0.5, eta=1e-3, iterations=5000, lam=lam, init=init)
    worst_final = 0.0
    for seed in range(50):
        state = IterateState(k=0, measure=init,
                             rng=np.random.default_rng(1000 + seed))
        prev = init.weights
        for _ in range(cfg.iterations):
            state = step(state, model, cfg)
            w = state.measure.weights
            assert np.all(w <= prev * (1 + 1e-15))
            prev = w
        worst_final = max(worst_final, state.measure.tv_norm)
    assert worst_final <= 1e-3 * init.tv_norm
    announce(2, f"weights nonincreasing in 50 runs; worst final mass "
                f"{worst_final:.2e} <= 1e-3 x initial")


@pytest.fixture(scope="module")
def models_2d():
    rng = np.random.default_rng(2024)
    truth = GroundTruth(weights=[0.6, 0.4],
                        positions=[[-0.4, 0.2], [0.3, -0.3]])
    data = sample_mixture_data(truth, 0.15, 500, rng)
    gmm = GaussianMixtureModel(data, bandwidth=0.2, mixing_scale=0.15,
                               radius=1.0)
    ftruth = signed_measure([0.8, 0.5, 0.05], [[-1.0, 0.6], [1.2, -0.8], [2.0, 1.0]])
    fourier = FourierDeconvolutionModel(freq_cutoff=2, dim=2, truth=ftruth)
    return gmm, fourier


def _unbias_checks(model, rng, lam, batch_size):
    """One (nu, t) pair: compare batch means to exact values, 4 SE each.

    Returns per-check booleans: [cost, grad_0, ..., grad_{d-1}].
    """
    p = int(rng.integers(2, 5))
    pos = model.project(rng.uniform(-1, 1, size=(p, model.dim)))
    nu = ParticleMeasure(rng.random(p) + 0.1, pos)
    t = model.project(rng.uniform(-1, 1, size=(1, model.dim)))[0]
    batch = draw_batch(model, nu, batch_size, rng)
    cost_samp, grad_samp = (a[0] for a in sample_fields(model, nu, t, lam, batch))
    exact_cost = marginal_cost(model, nu, t, lam)
    exact_grad = exact_fields(model, nu, t[None], lam)[1][0]
    out = []
    se = cost_samp.std() / math.sqrt(batch.size)
    out.append(abs(cost_samp.mean() - exact_cost) <= 4 * se + 1e-15)
    for i in range(model.dim):
        se = grad_samp[:, i].std() / math.sqrt(batch.size)
        out.append(abs(grad_samp[:, i].mean() - exact_grad[i]) <= 4 * se + 1e-15)
    return out


def test_criterion_3_estimator_unbiasedness(models_2d):
    """120 mean-vs-exact checks at 4 standard errors; at most 2 may fail
    after one re-run."""
    n_checks = 0
    failures = 0
    for m_idx, model in enumerate(models_2d):
        rng = np.random.default_rng(5000 + m_idx)
        for pair in range(20):
            oks = _unbias_checks(model, rng, 0.1, 100_000)
            retry = None
            for ok in oks:
                n_checks += 1
                if not ok:
                    if retry is None:
                        retry = _unbias_checks(model,
                                               np.random.default_rng(
                                                   9000 + m_idx * 100 + pair),
                                               0.1, 100_000)
                    if not all(retry):
                        failures += 1
    assert n_checks == 120
    assert failures <= 2
    announce(3, f"{failures} of {n_checks} unbiasedness checks failed "
                f"(allowed 2)")


def test_criterion_4_gradient_correctness(bench3a, trunc_problem,
                                          models_2d):
    """Finite differences agree with analytic gradients; the objective's
    exact expansion and its per-particle gradients hold."""
    _, gmm3a_model = bench3a
    smooth_models = [gmm3a_model, trunc_problem, models_2d[1]]
    rng = np.random.default_rng(77)
    worst = 0.0
    for model in smooth_models:
        for _ in range(100):
            p = int(rng.integers(1, 5))
            pos = model.project(rng.uniform(-1, 1, size=(p, model.dim)))
            nu = ParticleMeasure(rng.random(p), pos)
            t = model.project(rng.uniform(-0.95, 0.95, size=(1, model.dim)))[0]
            err = diag.finite_diff_check(model, nu, t, 1e-5)
            worst = max(worst, err)
            assert err <= 1e-5

    # exact second-order expansion at 1e-10
    model = gmm3a_model
    for _ in range(20):
        p = 4
        pos = rng.uniform(-0.9, 0.9, size=(p, 1))
        w = rng.random(p) + 0.2
        dw = rng.uniform(-0.15, 0.5, p)
        nu = ParticleMeasure(w, pos)
        nu2 = ParticleMeasure(w + dw, pos)
        lam = 0.05
        lhs = diag.objective(model, nu2, lam) - diag.objective(model, nu, lam)
        cost = marginal_cost(model, nu, pos, lam)
        gram = model.gram(pos, pos)
        rhs = float(dw @ cost + 0.5 * dw @ gram @ dw)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)

    # objective derivatives vs marginal cost at 1e-5
    h = 1e-6
    for _ in range(10):
        p = 3
        pos = rng.uniform(-0.8, 0.8, size=(p, 1))
        w = rng.random(p) + 0.3
        nu = ParticleMeasure(w, pos)
        cost = marginal_cost(model, nu, pos, 0.05)
        grad = exact_fields(model, nu, pos, 0.05)[1]
        for j in range(p):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (diag.objective(model, ParticleMeasure(wp, pos), 0.05)
                  - diag.objective(model, ParticleMeasure(wm, pos), 0.05)) / (2 * h)
            assert abs(fd - cost[j]) / (1 + abs(cost[j])) <= 1e-5
            pp, pm = pos.copy(), pos.copy()
            pp[j, 0] += h
            pm[j, 0] -= h
            fd = (diag.objective(model, ParticleMeasure(w, pp), 0.05)
                  - diag.objective(model, ParticleMeasure(w, pm), 0.05)) / (2 * h)
            target = w[j] * grad[j, 0]
            assert abs(fd - target) / (1 + abs(target)) <= 1e-5
    announce(4, f"300 finite-difference checks <= 1e-5 (worst {worst:.2e}); "
                f"expansion and gradient identities hold")


def test_criterion_5_monte_carlo_rate(bench3a):
    """Kernel estimate RMSE decays like m^(-1/2)."""
    _, model = bench3a
    rng = np.random.default_rng(31)
    t, s = np.array([0.15]), np.array([-0.3])
    exact = float(model.kernel(t, s))
    sizes = [100, 1000, 10_000, 100_000]
    reps = 30
    rmse = []
    for m in sizes:
        errs = np.empty(reps)
        for r in range(reps):
            u = sample_mixing_noise(rng, (m, model.dim), model.mixing_scale,
                                    model.trunc_width)
            errs[r] = np.mean(model.surrogate_fields(t, s, u, model.data[0])[0]) - exact
        rmse.append(float(np.sqrt(np.mean(errs**2))))
    slope = float(np.polyfit(np.log(sizes), np.log(rmse), 1)[0])
    assert -0.65 <= slope <= -0.35
    announce(5, f"log-log RMSE slope {slope:.3f} in [-0.65, -0.35]")


def test_criterion_6_global_convergence(bench3a, oracle3a):
    """Cesaro-averaged objective gap halves from K=1250 to K=20000 and
    lands within 1% of the data-energy scale."""
    problem, model = bench3a
    j_star = oracle3a.objective
    tv_star = oracle3a.measure.tv_norm
    init = uniform_grid_measure(problem.radius, 1, problem.init_step,
                                problem.init_mass)
    scale_r0 = init.tv_norm

    t0 = time.perf_counter()
    gaps = {}
    for K in (1250, 20_000):
        sch = make_schedule("global", 1, tv_star, scale_r0, K)
        vals = []
        for seed in range(10):
            cfg = RunConfig(alpha=sch.alpha, eta=sch.eta, iterations=K,
                            lam=problem.lam, init=init, seed=seed,
                            batch_schedule=sch.batch_schedule, cesaro=True,
                            trace_every=K)
            res = run(cfg, model)
            vals.append(diag.objective(model, res.cesaro, problem.lam) - j_star)
        gaps[K] = float(np.median(vals))
    elapsed = time.perf_counter() - t0

    budget = 1e-2 * 0.5 * model.y_norm_sq
    assert gaps[20_000] <= 0.5 * gaps[1250]
    assert gaps[20_000] <= budget
    assert elapsed < 600.0
    announce(6, f"median gap {gaps[1250]:.4f} -> {gaps[20_000]:.4f} "
                f"(ratio {gaps[20_000] / gaps[1250]:.2f} <= 0.5, "
                f"budget {budget:.4f}; {elapsed:.0f}s)")


def test_criterion_7_local_decay(bench3a):
    """On-support stationarity statistic decays with the 1/sqrt(K) preset."""
    problem, model = bench3a
    init = uniform_grid_measure(problem.radius, 1, 0.1, problem.init_mass)
    stats = {}
    for K in (2500, 10_000):
        m = math.ceil(math.sqrt(K))
        vals = []
        for seed in range(10):
            cfg = RunConfig(alpha=1 / math.sqrt(K), eta=1 / math.sqrt(K),
                            iterations=K, lam=problem.lam, init=init,
                            seed=seed, batch_schedule=m, trace_every=1)
            res = run(cfg, model)
            vals.append(np.mean([r.local_j2 + r.local_g2
                                 for r in res.trace[1:]]))
        stats[K] = float(np.mean(vals))
    ratio = stats[10_000] / stats[2500]
    assert ratio <= 0.6
    announce(7, f"stationarity statistic {stats[2500]:.4f} -> "
                f"{stats[10_000]:.4f} (ratio {ratio:.2f} <= 0.6)")


def test_criterion_8_cost_advantage(bench3a, oracle3a):
    """The exact baseline needs at least twice the scalar feature
    evaluations to reach the same loss threshold."""
    problem, model = bench3a
    init = uniform_grid_measure(problem.radius, 1, 2.0 / 49.0, problem.init_mass)
    assert init.size == 50
    j0 = diag.objective(model, init, problem.lam)
    threshold = oracle3a.objective + 0.05 * (j0 - oracle3a.objective)

    def evals_to_threshold(res):
        for r in res.trace:
            if r.objective <= threshold:
                return r.evals
        return None

    det_cfg = RunConfig(alpha=0.5, eta=1e-3, iterations=200, lam=problem.lam,
                        init=init, mode="deterministic", trace_every=1)
    det_evals = evals_to_threshold(run(det_cfg, model))
    assert det_evals is not None

    wins = 0
    sto_counts = []
    for seed in range(10):
        cfg = RunConfig(alpha=0.2, eta=1e-4, iterations=6000, lam=problem.lam,
                        init=init, seed=seed, batch_schedule=4,
                        trace_every=10)
        sto_evals = evals_to_threshold(run(cfg, model))
        sto_counts.append(sto_evals)
        if sto_evals is not None and det_evals >= 2 * sto_evals:
            wins += 1
    assert wins >= 8
    hit = [c for c in sto_counts if c is not None]
    announce(8, f"exact baseline {det_evals} evals vs stochastic median "
                f"{int(np.median(hit))}; advantage >= 2x in {wins}/10 seeds")


CERT_SECTIONS = """
[oracle]
grid_step = 0.002
tol = 1e-6

[certify]
grid_step = 0.002
tol = 1e-5
"""


def test_criterion_9_kkt_certification(tmp_path):
    """Oracle solutions certify on every benchmark; raw grids do not."""
    for name in ("gmm3a", "gmm3b", "gmm5"):
        problem = benchmarks.get_benchmark(name)
        cfg_text = (f"[model]\nkind = gmm\nbenchmark = {name}\n\n"
                    f"[solver]\nmode = stochastic\nschedule = manual\n"
                    f"alpha = 0.1\neta = 0.0001\nk = 10\n"
                    f"init = grid\n" + CERT_SECTIONS)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        orc_dir = tmp_path / f"orc_{name}"
        assert main(["oracle", str(cfg), "--out-dir", str(orc_dir)]) == 0
        assert main(["certify", str(cfg),
                     str(orc_dir / "oracle_measure.csv")]) == 0
        raw = tmp_path / f"init_{name}.csv"
        write_measure(raw, uniform_grid_measure(problem.radius, 1,
                                                problem.init_step,
                                                problem.init_mass))
        assert main(["certify", str(cfg), str(raw)]) == 3
    announce(9, "oracle solutions certify (exit 0) and initial grids fail "
                "(exit 3) on gmm3a, gmm3b, gmm5")


REPRO_CONFIGS = {
    "gmm_sto": """
[model]
kind = gmm
benchmark = gmm3a
n = 500

[solver]
mode = stochastic
schedule = manual
alpha = 0.2
eta = 0.0001
k = 300
seed = 5
init = grid
cesaro = true
""",
    "gmm_det": """
[model]
kind = gmm
benchmark = gmm3a
n = 500

[solver]
mode = deterministic
schedule = manual
alpha = 0.4
eta = 0.001
k = 50
init = grid
init_step = 0.1
""",
    "fourier_sto": """
[model]
kind = fourier
freq_cutoff = 3
dim = 1
spike_weights = 0.8, 0.6
spike_positions = -1.2; 0.9

[solver]
mode = stochastic
schedule = manual
alpha = 0.1
eta = 0.01
k = 400
lambda = 0.2
seed = 9
init = grid
init_step = 0.6283185307179586

[certify]
grid_step = 0.01
""",
}


def test_criterion_10_reproducibility(tmp_path):
    """Reruns are byte-identical apart from the wall-clock column."""

    def stable_trace(path):
        keep = []
        for line in path.read_text().splitlines():
            if line.startswith("#") or line.startswith("k,"):
                keep.append(line)
            else:
                keep.append(",".join(line.split(",")[:6]))
        return "\n".join(keep)

    for name, text in REPRO_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        dirs = [tmp_path / f"{name}_r1", tmp_path / f"{name}_r2"]
        for d in dirs:
            assert main(["run", str(cfg), "--quiet", "--out-dir", str(d)]) == 0
        assert stable_trace(dirs[0] / "trace.csv") == \
            stable_trace(dirs[1] / "trace.csv")
        assert (dirs[0] / "final_measure.csv").read_bytes() == \
            (dirs[1] / "final_measure.csv").read_bytes()
        for extra in ("cesaro_measure.csv",):
            if (dirs[0] / extra).exists():
                assert (dirs[0] / extra).read_bytes() == \
                    (dirs[1] / extra).read_bytes()
    announce(10, f"byte-identical reruns (modulo wall_ns) for "
                 f"{len(REPRO_CONFIGS)} configurations")
