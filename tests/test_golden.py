"""Golden outputs: ``optimizer.run`` pinned bit for bit to recorded values.

Each case runs a short descent and compares, as ``float.hex`` strings,
the final (and, where tracked, Cesaro) weights and positions and the
trace's objective column, plus the evaluation counter, with the values
in ``golden_runs.json``.  A speed-up of the solver path must leave every
one of them unchanged.

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
from fastpart.optimizer import RunConfig, run

GOLDEN = Path(__file__).with_name("golden_runs.json")


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


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


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
    return recorded["cases"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden_bits(golden, case):
    got = _outputs(case)
    want = golden[case]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], f"{case}: {key} differs from the recorded bits"


if __name__ == "__main__":
    json.dump({"stack": _stack(), "cases": {c: _outputs(c) for c in sorted(CASES)}},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
