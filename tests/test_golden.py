"""Golden outputs: ``optimizer.run`` and the exact layer pinned bit for
bit to recorded values, and what each config file builds.

Each run case runs a short descent and compares, as ``float.hex``
strings, the final (and, where tracked, Cesaro) weights and positions
and the trace's objective column, plus the evaluation counter, with the
values in ``golden_runs.json``.  Each exact case evaluates the exact
layer (``objective``, ``trace_stats``, ``exact_fields`` and
``marginal_cost`` on a lattice, ``kkt_certificate``) for one model and
measure, each oracle case pins a ``grid_oracle`` solve, and each bounds
case pins the surrogate bounds a model reports and the mass radii and
bound constant derived from them.  The blocks cases pin the pairwise and
data-side arrays on lattices long enough to be evaluated in several row
blocks (but for the 1-D mixtures' data side, a Chebyshev series evaluated
in one), and a ``grid_oracle`` solve whose lattice gram spans 16 blocks.
The configs cases pin, for every shipped config (and two inline ones
covering the ReLU model, random and mixed-sign starts and the explicit
global schedule keys), the ``RunConfig`` fields, initial measure and
model that each [solver] or [variant NAME] section builds, plus the
[output], [oracle], [certify] and [compare] values.
A speed-up
or a refactor of the solver path must leave every one of them unchanged.

Floating-point results depend on the numerical stack (numpy's SIMD
kernels for exp and friends differ by CPU family, and a BLAS matmul's
bits change with its thread count), so the file records the numpy
version, machine, AVX-512 availability and BLAS thread count it was
made with; on another stack the comparison is skipped, not loosened.

Re-record only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_runs.json
"""
import hashlib
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fastpart import (
    FourierDeconvolutionModel,
    GaussianMixtureModel,
    GroundTruth,
    ParticleMeasure,
    ReluFeatureModel,
    sample_mixture_data,
    sample_regression_data,
    uniform_grid_measure,
)
from fastpart import benchmarks
from fastpart.config import build_init, build_model, build_run_config, parse_config
from fastpart.diagnostics import (bound_c1, grid_oracle, kkt_certificate, objective,
                                  trace_stats)
from fastpart.measures import grid_points
from fastpart.optimizer import RunConfig, mass_radii, run
from fastpart.stochastic import exact_fields, marginal_cost

GOLDEN = Path(__file__).with_name("golden_runs.json")
CONFIG_DIR = Path(__file__).parents[1] / "configs"
FOURIER_CFG = CONFIG_DIR / "fourier_spikes.cfg"


def _stack():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS") or os.cpu_count())
    return {"numpy": np.__version__, "machine": platform.machine(),
            "avx512f": bool(__cpu_features__.get("AVX512F", False)),
            "blas_threads": int(threads)}


def _trunc_case(seed):
    truth = GroundTruth(weights=[0.5, 0.5], positions=[-0.4, 0.4])
    data = sample_mixture_data(truth, 0.5, 300, np.random.default_rng(7),
                               trunc_width=3.0)
    model = GaussianMixtureModel(data, bandwidth=1.0, mixing_scale=0.5,
                                 radius=1.0, trunc_width=3.0)
    init = uniform_grid_measure(1.0, 1, 0.5, 1.0)
    cfg = RunConfig(alpha=0.5, eta=1e-3, iterations=300, lam=0.25, init=init,
                    seed=seed, trace_every=25)
    return cfg, model


def _plain_gmm_2d():
    truth = GroundTruth(weights=[0.5, 0.5], positions=[[-0.4, 0.2], [0.3, -0.5]])
    data = sample_mixture_data(truth, 0.1, 200, np.random.default_rng(11))
    model = GaussianMixtureModel(data, bandwidth=0.15, mixing_scale=0.1, radius=1.0)
    init = uniform_grid_measure(1.0, 2, 0.5, 1.0)
    # eta small enough that the run contracts: a one-ulp change of the
    # start moves its outputs at rounding level, not wholesale
    cfg = RunConfig(alpha=0.3, eta=0.005, iterations=200, lam=0.05, init=init,
                    seed=5, batch_schedule=4, cesaro=True, trace_every=20)
    return cfg, model


def _fourier():
    truth = GroundTruth(weights=[0.8, 0.6], positions=[[-1.2], [0.9]],
                        noise_coeffs=[0.05, -0.03],
                        noise_positions=[[2.0], [-2.5]])
    model = FourierDeconvolutionModel(freq_cutoff=3, dim=1, truth=truth)
    # atoms next to the cut at +-pi, large eta: positions wrap around
    init = ParticleMeasure(np.full(7, 0.2),
                           np.array([-3.1, -2.0, -1.0, 0.0, 1.0, 2.0, 3.1]))
    cfg = RunConfig(alpha=0.2, eta=0.3, iterations=200, lam=0.1, init=init,
                    seed=3, batch_schedule=2, trace_every=20)
    return cfg, model


def _relu_signed():
    x, y = sample_regression_data(128, 2, np.random.default_rng(3),
                                  teacher_width=3, noise_scale=0.05)
    model = ReluFeatureModel(x, y, radius=1.0)
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    # on the unit sphere: outward steps leave the ball and move weight
    pos = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    signs = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
    init = ParticleMeasure(np.full(8, 0.25), pos, signs)
    cfg = RunConfig(alpha=0.3, eta=0.2, iterations=200, lam=0.01, init=init,
                    seed=9, batch_schedule=3, trace_every=20)
    return cfg, model


def _deterministic():
    truth = GroundTruth(weights=[0.3, 0.4, 0.3], positions=[-0.5, 0.0, 0.6])
    data = sample_mixture_data(truth, 0.08, 400, np.random.default_rng(42))
    model = GaussianMixtureModel(data, bandwidth=0.1, mixing_scale=0.08, radius=1.0)
    init = uniform_grid_measure(1.0, 1, 0.2, 1.0)
    cfg = RunConfig(alpha=0.5, eta=1e-3, iterations=40, lam=0.05, init=init,
                    mode="deterministic", trace_every=5)
    return cfg, model


CASES = {
    "trunc_gmm_seed0": lambda: _trunc_case(0),
    "trunc_gmm_seed1": lambda: _trunc_case(1),
    "plain_gmm_2d_m4": _plain_gmm_2d,
    "fourier_torus": _fourier,
    "relu_signed": _relu_signed,
    "gmm_deterministic": _deterministic,
}


# ----- exact layer ----------------------------------------------------------------


def _gmm3a():
    problem = benchmarks.get_benchmark("gmm3a")
    return benchmarks.build_model(problem), problem.lam


def _fourier_cfg():
    cfg = parse_config(FOURIER_CFG)
    return build_model(cfg), cfg.solver.lam


def _relu():
    cfg, model = _relu_signed()
    return model, cfg.init


def _spread(p, dim, seed):
    """Deterministic measure of p atoms inside the unit ball, unequal weights."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.7, 0.7, size=(p, dim))
    return ParticleMeasure(0.1 + rng.random(p), pos)


def _exact_gmm3a():
    model, lam = _gmm3a()
    return model, _spread(7, 1, 1), lam, 0.05, 0.01


def _exact_trunc():
    _, model = _trunc_case(0)
    return model, _spread(5, 1, 2), 0.25, 0.05, 0.02


def _exact_gmm_2d():
    _, model = _plain_gmm_2d()
    return model, _spread(6, 2, 3), 0.05, 0.25, 0.1


def _exact_fourier():
    model, lam = _fourier_cfg()
    pos = np.array([[-2.8], [-1.2], [0.1], [0.9], [3.0]])
    return model, ParticleMeasure([0.3, 0.7, 0.05, 0.5, 0.2], pos), lam, 0.2, 0.01


def _exact_relu():
    model, init = _relu()
    return model, init, 0.01, 0.25, 0.1


# name -> () -> (model, measure, lam, field lattice step, certificate step)
EXACT_CASES = {
    "gmm3a": _exact_gmm3a,
    "trunc_gmm": _exact_trunc,
    "plain_gmm_2d": _exact_gmm_2d,
    "fourier_cfg": _exact_fourier,
    "relu_signed": _exact_relu,
}


# name -> () -> (model, lam, grid step)
ORACLE_CASES = {
    "gmm3a": lambda: (*_gmm3a(), 0.01),
    "fourier_cfg": lambda: (*_fourier_cfg(), 0.05),
    "relu": lambda: (_relu()[0], 0.01, 0.1),
}


def _run_model(case):
    cfg, model = CASES[case]()
    return model, cfg.lam, cfg.init


def _exact_model(case):
    model, measure, lam, *_ = EXACT_CASES[case]()
    return model, lam, measure


def _fourier_flat():
    truth = GroundTruth(weights=[1.0], positions=[[0.0]])
    model = FourierDeconvolutionModel(freq_cutoff=0, dim=1, truth=truth)
    return model, 0.1, uniform_grid_measure(np.pi, 1, 0.5, 1.0)


# name -> () -> (model, lam, initial measure)
BOUNDS_CASES = {
    "trunc_gmm": lambda: _run_model("trunc_gmm_seed0"),
    "plain_gmm_2d": lambda: _run_model("plain_gmm_2d_m4"),
    "fourier_torus": lambda: _run_model("fourier_torus"),
    "relu_signed": lambda: _run_model("relu_signed"),
    "gmm_deterministic": lambda: _run_model("gmm_deterministic"),
    "gmm3a": lambda: _exact_model("gmm3a"),
    "fourier_cfg": lambda: _exact_model("fourier_cfg"),
    "fourier_flat": _fourier_flat,
}


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _exact_outputs(case):
    model, measure, lam, field_step, cert_step = EXACT_CASES[case]()
    lattice = grid_points(model.radius, model.dim, field_step)
    empty = ParticleMeasure(np.empty(0), np.empty((0, model.dim)))
    out = {}
    for tag, nu in (("", measure), ("empty_", empty)):
        cost, grad = exact_fields(model, nu, lattice, lam)
        out[tag + "objective"] = _hex([objective(model, nu, lam)])
        out[tag + "trace_stats"] = _hex(trace_stats(model, nu, lam))
        out[tag + "exact_cost"] = _hex(cost)
        out[tag + "exact_grad"] = _hex(grad)
        out[tag + "marginal_cost"] = _hex(marginal_cost(model, nu, lattice, lam))
    at_atoms = exact_fields(model, measure, measure.positions, lam)
    out["atom_cost"] = _hex(at_atoms[0])
    out["atom_grad"] = _hex(at_atoms[1])
    report = kkt_certificate(model, measure, lam, cert_step)
    out["kkt"] = _hex([report.grid_min, report.support_max_abs, report.grid_step])
    return out


def _oracle_outputs(case):
    return _oracle_outputs_of(*ORACLE_CASES[case]())


def _oracle_outputs_of(model, lam, step):
    orc = grid_oracle(model, lam, step)
    return {
        "objective": _hex([orc.objective]),
        "weights": _hex(orc.measure.weights),
        "positions": _hex(orc.measure.positions),
        "iterations": orc.iterations,
        "converged": orc.converged,
        "kkt_residual": _hex([orc.kkt_residual]),
    }


def _bounds_outputs(case):
    model, lam, init = BOUNDS_CASES[case]()
    b = model.bounds()
    radii = mass_radii(model, lam, init)
    return {
        "bounds": _hex([b.g_inf, b.g_sup, b.h_sup]),
        "radii": _hex([radii.r0, radii.R0]),
        "hypothesis_ok": radii.hypothesis_ok,
        "bound_c1": _hex([bound_c1(model, lam)]),
    }


# name -> () -> (model, lattice step); each lattice spans at least three row
# blocks of gram(lattice, lattice) and, on the mixtures, of inner_y
BLOCK_CASES = {
    "gmm3a": lambda: (_gmm3a()[0], 0.004),
    "trunc_gmm": lambda: (_trunc_case(0)[1], 0.0045),
    "plain_gmm_2d": lambda: (_plain_gmm_2d()[1], 0.065),
    "fourier_cfg": lambda: (_fourier_cfg()[0], 0.01),
}


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _block_weights(n):
    """Signed weights for the blocks cases' ``kernel_sums``."""
    return np.random.default_rng(n).uniform(-1.0, 1.0, n)


def _blocks_outputs(case):
    model, step = BLOCK_CASES[case]()
    lattice = grid_points(model.radius, model.dim, step)
    return {
        "points": len(lattice),
        "gram": _digest([model.gram(lattice, lattice)]),
        "kernel_sums": _digest(model.kernel_sums(lattice, lattice,
                                                 _block_weights(len(lattice)))),
        "inner_y": _digest([model.inner_y(lattice)]),
        "data_fit": _digest(model.data_fit(lattice)),
        "y_norm_sq": float(model.y_norm_sq).hex(),
    }


def _blocks_oracle_outputs():
    model, _ = _gmm3a()
    return _oracle_outputs_of(model, 0.05, 0.002)


# ----- config files ----------------------------------------------------------------

# name -> config text, beside the shipped configs/*.cfg
INLINE_CONFIGS = {
    "relu_random_mixed": """
[model]
kind = relu
n = 40

[solver]
alpha = 0.2
eta = 0.05
k = 30
lambda = 0.01
seed = 3
init = random
p = 7
signs = mixed
""",
    "gmm_global_explicit": """
[model]
kind = gmm
benchmark = gmm3a
n = 60
data_seed = 4
bandwidth = 0.12
trunc_width = 3

[solver]
mode = deterministic
schedule = global
tv_star = 0.7
r0 = 0.3
k = 40
batch = 2
init_mass = 0.4
cesaro = yes
trace_cesaro = on

[variant manual]
mode = stochastic
schedule = manual
alpha = 0.3
eta = 0.02
seed = 2
init_step = 0.25

[output]
trace_every = 4

[oracle]
max_iter = 300

[certify]
mass_threshold = 1e-4

[compare]
threshold_frac = 0.1
""",
}


def _config_path(name, tmp_dir):
    if name in INLINE_CONFIGS:
        path = Path(tmp_dir) / f"{name}.cfg"
        path.write_text(INLINE_CONFIGS[name], encoding="utf-8")
        return path
    return CONFIG_DIR / name


def _config_names():
    return sorted(p.name for p in CONFIG_DIR.glob("*.cfg")) + sorted(INLINE_CONFIGS)


def _model_outputs(model):
    arrays = {"GaussianMixtureModel": lambda m: [m.data],
              "ReluFeatureModel": lambda m: [m.x, m.y],
              "FourierDeconvolutionModel": lambda m: [
                  m.truth.weights, m.truth.positions,
                  *((m.truth.noise_coeffs, m.truth.noise_positions)
                    if m.truth.noise_coeffs is not None else ())]}
    params = {}
    for key in ("bandwidth", "mixing_scale", "radius", "trunc_width",
                "freq_cutoff", "dim"):
        value = getattr(model, key, None)
        params[key] = value if value is None or isinstance(value, int) else float(value).hex()
    kind = type(model).__name__
    return {"class": kind, "params": params, "data": _digest(arrays[kind](model))}


def _config_outputs(name, tmp_dir):
    cfg = parse_config(_config_path(name, tmp_dir))
    model = build_model(cfg)
    out = {"model": _model_outputs(model),
           "settings": {"out_dir": str(cfg.out_dir), "trace_every": cfg.trace_every,
                        "oracle_max_iter": cfg.oracle_max_iter,
                        **{key: float(getattr(cfg, key)).hex() for key in (
                            "oracle_step", "oracle_tol", "certify_step",
                            "certify_tol", "certify_mass_threshold",
                            "compare_threshold_frac")}}}
    specs = [("solver", cfg.solver)] + [(f"variant {v}", cfg.variants[v])
                                        for v in sorted(cfg.variants)]
    for section, spec in specs:
        init = build_init(spec, model)
        rc = build_run_config(spec, model, init, cfg.trace_every,
                              oracle_mass=lambda lam: 1.0)
        out[section] = {
            "alpha": float(rc.alpha).hex(), "eta": float(rc.eta).hex(),
            "lam": float(rc.lam).hex(), "iterations": rc.iterations,
            "seed": rc.seed, "batch": rc.batch_schedule, "mode": rc.mode,
            "cesaro": rc.cesaro, "trace_every": rc.trace_every,
            "trace_cesaro": rc.trace_cesaro,
            "init": _digest([init.weights, init.positions, init.signs]),
        }
    return out


def _outputs(case):
    cfg, model = CASES[case]()
    res = run(cfg, model)
    out = {
        "status": res.status,
        "evals": res.evals,
        "weights": _hex(res.measure.weights),
        "positions": _hex(res.measure.positions),
        "objective": _hex([r.objective for r in res.trace]),
    }
    if res.cesaro is not None:
        out["cesaro_weights"] = _hex(res.cesaro.weights)
        out["cesaro_positions"] = _hex(res.cesaro.positions)
    return out


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if recorded["stack"] != _stack():
        pytest.skip(f"golden bits recorded on {recorded['stack']}, "
                    f"this stack is {_stack()}")
    return recorded


def _compare(got, want, case):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], f"{case}: {key} differs from the recorded bits"


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden_bits(golden, case):
    _compare(_outputs(case), golden["cases"][case], case)


def _run_arrays(res):
    cesaro = [] if res.cesaro is None else [res.cesaro.weights, res.cesaro.positions]
    return [res.measure.weights, res.measure.positions,
            [r.objective for r in res.trace], *cesaro]


def test_plain_gmm_2d_run_contracts():
    # a golden case must not amplify rounding: a change of the code that
    # moves its path by an ulp moves its outputs by as little, so the bit
    # policy's 1e-12 agreement can be shown for it.  Each start
    # coordinate, one ulp up and one down, moves no output array by more
    # than 1e-12 of its largest magnitude.  Checked on every run case;
    # the perturbed start keeps the case's signs, so relu_signed stays signed
    for case in sorted(CASES):
        cfg, model = CASES[case]()
        base = run(cfg, model)
        want = _run_arrays(base)
        for i, k in np.ndindex(cfg.init.positions.shape):
            for toward in (-np.inf, np.inf):
                pos = cfg.init.positions.copy()
                pos[i, k] = np.nextafter(pos[i, k], toward)
                if not model.contains(pos, tol=0.0):
                    continue
                res = run(replace(cfg, init=replace(cfg.init, positions=pos)), model)
                assert res.evals == base.evals, case
                for got, ref in zip(_run_arrays(res), want):
                    got, ref = np.asarray(got), np.asarray(ref)
                    assert got.shape == ref.shape, case
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), case


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_layer_matches_golden_bits(golden, case):
    _compare(_exact_outputs(case), golden["exact"][case], case)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_grid_oracle_matches_golden_bits(golden, case):
    _compare(_oracle_outputs(case), golden["oracle"][case], case)


@pytest.mark.parametrize("case", sorted(BOUNDS_CASES))
def test_bounds_match_golden_bits(golden, case):
    _compare(_bounds_outputs(case), golden["bounds"][case], case)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocked_arrays_match_golden_bits(golden, case):
    _compare(_blocks_outputs(case), golden["blocks"][case], case)


def test_multi_block_grid_oracle_matches_golden_bits(golden):
    _compare(_blocks_oracle_outputs(), golden["blocks"]["oracle_gmm3a"], "oracle_gmm3a")


@pytest.mark.parametrize("name", _config_names())
def test_config_builds_golden_fields(golden, tmp_path, name):
    _compare(_config_outputs(name, tmp_path), golden["configs"][name], name)


def _blocks_golden():
    out = {c: _blocks_outputs(c) for c in sorted(BLOCK_CASES)}
    out["oracle_gmm3a"] = _blocks_oracle_outputs()
    return out


def _configs_golden():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp_dir:
        return {name: _config_outputs(name, tmp_dir) for name in _config_names()}


if __name__ == "__main__":
    json.dump({"stack": _stack(),
               "cases": {c: _outputs(c) for c in sorted(CASES)},
               "exact": {c: _exact_outputs(c) for c in sorted(EXACT_CASES)},
               "oracle": {c: _oracle_outputs(c) for c in sorted(ORACLE_CASES)},
               "bounds": {c: _bounds_outputs(c) for c in sorted(BOUNDS_CASES)},
               "blocks": _blocks_golden(),
               "configs": _configs_golden()},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
