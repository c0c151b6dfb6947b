"""Golden outputs: ``optimizer.run`` and the exact layer pinned bit for
bit to recorded values.

Each run case runs a short descent and compares, as ``float.hex``
strings, the final (and, where tracked, Cesaro) weights and positions
and the trace's objective column, plus the evaluation counter, with the
values in ``golden_runs.json``.  Each exact case evaluates the exact
layer (``objective``, ``trace_stats``, ``exact_fields`` and
``marginal_cost`` on a lattice, ``kkt_certificate``) for one model and
measure, and each oracle case pins a ``grid_oracle`` solve.  A speed-up
or a refactor of the solver path must leave every one of them unchanged.

Floating-point results depend on the numerical stack (numpy's SIMD
kernels for exp and friends differ by CPU family), so the file records
the numpy version, machine and AVX-512 availability it was made with;
on another stack the comparison is skipped, not loosened.

Re-record only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_runs.json
"""
import json
import platform
import sys
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
from fastpart.config import build_model, parse_config
from fastpart.diagnostics import grid_oracle, kkt_certificate, objective, trace_stats
from fastpart.measures import grid_points
from fastpart.optimizer import RunConfig, run
from fastpart.stochastic import exact_fields, marginal_cost

GOLDEN = Path(__file__).with_name("golden_runs.json")
FOURIER_CFG = Path(__file__).parents[1] / "configs" / "fourier_spikes.cfg"


def _stack():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "machine": platform.machine(),
            "avx512f": bool(__cpu_features__.get("AVX512F", False))}


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
    cfg = RunConfig(alpha=0.3, eta=0.05, iterations=200, lam=0.05, init=init,
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
    model, lam, step = ORACLE_CASES[case]()
    orc = grid_oracle(model, lam, step)
    return {
        "objective": _hex([orc.objective]),
        "weights": _hex(orc.measure.weights),
        "positions": _hex(orc.measure.positions),
        "iterations": orc.iterations,
        "converged": orc.converged,
        "kkt_residual": _hex([orc.kkt_residual]),
    }


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


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_layer_matches_golden_bits(golden, case):
    _compare(_exact_outputs(case), golden["exact"][case], case)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_grid_oracle_matches_golden_bits(golden, case):
    _compare(_oracle_outputs(case), golden["oracle"][case], case)


if __name__ == "__main__":
    json.dump({"stack": _stack(),
               "cases": {c: _outputs(c) for c in sorted(CASES)},
               "exact": {c: _exact_outputs(c) for c in sorted(EXACT_CASES)},
               "oracle": {c: _oracle_outputs(c) for c in sorted(ORACLE_CASES)}},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
