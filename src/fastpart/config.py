"""Experiment configuration files.

Plain sectioned ``key = value`` text ([model], [solver], [output], plus
optional [oracle], [certify], [compare] and [variant NAME] sections),
'#' comment lines allowed.  Parsing is strict: unknown model kinds,
missing required keys and out-of-range numbers raise ``ConfigError``
naming the offending field.  When [model] names a benchmark, solver
keys left unset inherit the benchmark's canonical values.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from . import benchmarks
from .measures import ParticleMeasure, uniform_grid_measure
from .models.base import FeatureModel, GroundTruth
from .models.fourier import FourierDeconvolutionModel
from .models.gmm import GaussianMixtureModel, sample_mixture_data
from .models.relu import ReluFeatureModel, sample_regression_data
from .optimizer import RunConfig, make_schedule, mass_radii


class ConfigError(Exception):
    """Invalid configuration; the message names the field."""


def _get_float(sec: Mapping, name: str, key: str, default=None, positive=False):
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in [{name}]")
        return default
    try:
        val = float(sec[key])
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}' in [{name}] is not a number") from None
    if not math.isfinite(val):
        raise ConfigError(f"key '{key}' in [{name}] is not finite")
    if positive and val <= 0:
        raise ConfigError(f"key '{key}' in [{name}] must be > 0")
    return val


def _get_int(sec: Mapping, name: str, key: str, default=None, minimum=None):
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in [{name}]")
        return default
    try:
        val = int(sec[key])
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}' in [{name}] is not an integer") from None
    if minimum is not None and val < minimum:
        raise ConfigError(f"key '{key}' in [{name}] must be >= {minimum}")
    return val


def _get_bool(sec: Mapping, name: str, key: str, default=False):
    if key not in sec:
        return default
    raw = str(sec[key]).strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key '{key}' in [{name}] is not a boolean")


_REQUIRED = object()  # default marking a key that must be present


@dataclass
class SolverSpec:
    """Solver settings from one [solver] or [variant NAME] section."""

    mode: str = "stochastic"
    schedule: str = "manual"
    alpha: float | None = None
    eta: float | None = None
    tv_star: str | float | None = None
    schedule_r0: float | None = None
    iterations: int = 1000
    batch: int = 1
    lam: float | None = None
    seed: int = 0
    init: str = "grid"
    init_step: float | None = None
    init_mass: float | None = None
    particles: int | None = None
    signs: str = "positive"
    cesaro: bool = False
    trace_cesaro: bool = False


@dataclass
class ExperimentConfig:
    model_section: dict
    solver: SolverSpec
    variants: dict[str, SolverSpec]
    out_dir: str = "out"
    trace_every: int = 1
    oracle_step: float = 1e-3
    oracle_tol: float = 1e-6
    oracle_max_iter: int = 20000
    certify_step: float = 1e-3
    certify_tol: float = 1e-5
    certify_mass_threshold: float = 1e-6
    compare_threshold_frac: float = 0.05
    base_dir: Path = field(default_factory=Path)

    @property
    def benchmark(self) -> benchmarks.BenchmarkProblem | None:
        name = self.model_section.get("benchmark")
        return benchmarks.get_benchmark(name) if name else None


def _parse_solver(sec: Mapping, name: str,
                  problem: benchmarks.BenchmarkProblem | None) -> SolverSpec:
    spec = SolverSpec()
    spec.mode = str(sec.get("mode", "stochastic")).strip()
    if spec.mode not in ("stochastic", "deterministic"):
        raise ConfigError(f"key 'mode' in [{name}] must be stochastic or deterministic")
    spec.schedule = str(sec.get("schedule", "manual")).strip()
    if spec.schedule not in ("manual", "global", "local"):
        raise ConfigError(f"key 'schedule' in [{name}] must be manual, global or local")
    if spec.schedule == "manual":
        spec.alpha = _get_float(sec, name, "alpha", default=_REQUIRED, positive=True)
        spec.eta = _get_float(sec, name, "eta", default=_REQUIRED, positive=True)
    if spec.schedule == "global":
        raw = str(sec.get("tv_star", "oracle")).strip()
        spec.tv_star = raw if raw == "oracle" else _get_float(sec, name, "tv_star",
                                                              positive=True)
        spec.schedule_r0 = _get_float(sec, name, "r0", positive=True)
    spec.iterations = _get_int(sec, name, "k", default=_REQUIRED, minimum=1)
    spec.batch = _get_int(sec, name, "batch", default=1, minimum=1)
    default_lam = problem.lam if problem else _REQUIRED
    spec.lam = _get_float(sec, name, "lambda", default=default_lam, positive=True)
    spec.seed = _get_int(sec, name, "seed", default=0)
    spec.init = str(sec.get("init", "grid")).strip()
    if spec.init not in ("grid", "random"):
        raise ConfigError(f"key 'init' in [{name}] must be grid or random")
    if spec.init == "grid":
        default_step = problem.init_step if problem else _REQUIRED
        spec.init_step = _get_float(sec, name, "init_step", default=default_step,
                                    positive=True)
    else:
        spec.particles = _get_int(sec, name, "p", default=_REQUIRED, minimum=1)
    default_mass = problem.init_mass if problem else 1.0
    spec.init_mass = _get_float(sec, name, "init_mass", default=default_mass,
                                positive=True)
    spec.signs = str(sec.get("signs", "positive")).strip()
    if spec.signs not in ("positive", "mixed"):
        raise ConfigError(f"key 'signs' in [{name}] must be positive or mixed")
    spec.cesaro = _get_bool(sec, name, "cesaro", default=False)
    spec.trace_cesaro = _get_bool(sec, name, "trace_cesaro", default=False)
    if spec.trace_cesaro and not spec.cesaro:
        raise ConfigError(f"key 'trace_cesaro' in [{name}] requires cesaro = true")
    return spec


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    if "model" not in parser:
        raise ConfigError("missing [model] section")
    model_section = dict(parser["model"])
    kind = model_section.get("kind", "").strip()
    if kind not in ("gmm", "fourier", "relu"):
        raise ConfigError("key 'kind' in [model] must be gmm, fourier or relu")
    model_section["kind"] = kind

    problem = None
    if "benchmark" in model_section:
        if kind != "gmm":
            raise ConfigError("key 'benchmark' in [model] only applies to gmm")
        try:
            problem = benchmarks.get_benchmark(model_section["benchmark"])
        except KeyError as exc:
            raise ConfigError(str(exc)) from None

    if "solver" not in parser:
        raise ConfigError("missing [solver] section")
    solver = _parse_solver(parser["solver"], "solver", problem)

    variants = {}
    for name in parser.sections():
        if name.startswith("variant "):
            label = name[len("variant "):].strip()
            if not label:
                raise ConfigError("variant section needs a name: [variant NAME]")
            merged = dict(parser["solver"])
            merged.update(dict(parser[name]))
            variants[label] = _parse_solver(merged, name, problem)

    cfg = ExperimentConfig(
        model_section=model_section,
        solver=solver,
        variants=variants,
        base_dir=path.parent,
    )

    if "output" in parser:
        out = parser["output"]
        cfg.out_dir = out.get("dir", "out")
        cfg.trace_every = _get_int(out, "output", "trace_every", default=1, minimum=1)
    if "oracle" in parser:
        sec = parser["oracle"]
        cfg.oracle_step = _get_float(sec, "oracle", "grid_step", default=1e-3,
                                     positive=True)
        cfg.oracle_tol = _get_float(sec, "oracle", "tol", default=1e-6, positive=True)
        cfg.oracle_max_iter = _get_int(sec, "oracle", "max_iter", default=20000,
                                       minimum=1)
    if "certify" in parser:
        sec = parser["certify"]
        cfg.certify_step = _get_float(sec, "certify", "grid_step", default=1e-3,
                                      positive=True)
        cfg.certify_tol = _get_float(sec, "certify", "tol", default=1e-5,
                                     positive=True)
        cfg.certify_mass_threshold = _get_float(sec, "certify", "mass_threshold",
                                                default=1e-6, positive=True)
    if "compare" in parser:
        sec = parser["compare"]
        cfg.compare_threshold_frac = _get_float(sec, "compare", "threshold_frac",
                                                default=0.05, positive=True)
    return cfg


def load_data_file(path: Path) -> np.ndarray:
    """Delimited text samples: one point per line, '#' comments allowed."""
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse data file {path}: {exc}") from exc
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ConfigError(f"data file {path}: sample {int(bad.argmax()) + 1} "
                          f"is not finite")
    return data


def _parse_floats(sec, name, key):
    try:
        vals = np.array([float(tok)
                         for tok in str(sec[key]).replace(",", " ").split()])
    except ValueError:
        raise ConfigError(f"key '{key}' in [{name}] is not a number list") from None
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"key '{key}' in [{name}] has a non-finite entry")
    return vals


def _parse_points(sec, name, key, dim):
    rows = [r for r in str(sec[key]).split(";") if r.strip()]
    try:
        pts = np.array([[float(tok) for tok in row.replace(",", " ").split()]
                        for row in rows])
    except ValueError:
        raise ConfigError(f"key '{key}' in [{name}] is not a point list") from None
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigError(f"key '{key}' in [{name}] needs {dim} coordinates per point")
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"key '{key}' in [{name}] has a non-finite coordinate")
    return pts


def build_model(cfg: ExperimentConfig) -> FeatureModel:
    """Construct the model described by [model]; deterministic given the config."""
    sec = cfg.model_section
    kind = sec["kind"]

    if kind == "gmm":
        problem = cfg.benchmark
        if problem is None and "data" not in sec:
            raise ConfigError("gmm model needs 'benchmark' or 'data' in [model]")
        if "data" in sec:
            data = load_data_file(cfg.base_dir / sec["data"])
        else:
            seed = _get_int(sec, "model", "data_seed", default=problem.data_seed)
            n = _get_int(sec, "model", "n", default=problem.n_samples, minimum=1)
            data = sample_mixture_data(problem.truth, problem.mixing_scale, n,
                                       np.random.default_rng(seed),
                                       problem.trunc_width)
        bandwidth = _get_float(sec, "model", "bandwidth",
                               default=problem.bandwidth if problem else _REQUIRED,
                               positive=True)
        mixing = _get_float(sec, "model", "mixing_scale",
                            default=problem.mixing_scale if problem else _REQUIRED,
                            positive=True)
        radius = _get_float(sec, "model", "radius",
                            default=problem.radius if problem else 1.0,
                            positive=True)
        if "trunc_width" in sec:
            trunc = _get_float(sec, "model", "trunc_width", positive=True)
        else:
            trunc = problem.trunc_width if problem else None
        return GaussianMixtureModel(data, bandwidth=bandwidth,
                                    mixing_scale=mixing, radius=radius,
                                    trunc_width=trunc)

    if kind == "fourier":
        dim = _get_int(sec, "model", "dim", default=1, minimum=1)
        fc = _get_int(sec, "model", "freq_cutoff", default=_REQUIRED, minimum=0)
        if "spike_weights" not in sec or "spike_positions" not in sec:
            raise ConfigError("fourier model needs 'spike_weights' and "
                              "'spike_positions' in [model]")
        weights = _parse_floats(sec, "model", "spike_weights")
        positions = _parse_points(sec, "model", "spike_positions", dim)
        if len(weights) != len(positions):
            raise ConfigError("spike_weights and spike_positions in [model] "
                              "differ in length")
        noise_c = noise_p = None
        if "noise_coeffs" in sec:
            noise_c = _parse_floats(sec, "model", "noise_coeffs")
            noise_p = _parse_points(sec, "model", "noise_positions", dim)
            if len(noise_c) != len(noise_p):
                raise ConfigError("noise_coeffs and noise_positions in [model] "
                                  "differ in length")
        truth = GroundTruth(weights, positions, noise_c, noise_p)
        return FourierDeconvolutionModel(freq_cutoff=fc, dim=dim, truth=truth)

    # relu
    dim = _get_int(sec, "model", "dim", default=2, minimum=1)
    n = _get_int(sec, "model", "n", default=256, minimum=1)
    seed = _get_int(sec, "model", "data_seed", default=0)
    teacher = _get_int(sec, "model", "teacher_width", default=4, minimum=1)
    noise = _get_float(sec, "model", "noise", default=0.05)
    x, y = sample_regression_data(n, dim, np.random.default_rng(seed),
                                  teacher_width=teacher, noise_scale=noise)
    radius = _get_float(sec, "model", "radius", default=1.0, positive=True)
    return ReluFeatureModel(x, y, radius=radius)


def build_init(spec: SolverSpec, model: FeatureModel) -> ParticleMeasure:
    """Initial measure per the solver spec: uniform grid or random cloud.

    ``signs = mixed`` alternates particle signs, the usual start for
    network-style problems that need both orientations.
    """
    mass = spec.init_mass if spec.init_mass is not None else 1.0
    if spec.init == "grid":
        nu = uniform_grid_measure(model.radius, model.dim, spec.init_step, mass)
    else:
        rng = np.random.default_rng(spec.seed + 0xA5A5)
        pts = rng.uniform(-model.radius, model.radius,
                          size=(spec.particles, model.dim))
        pts = model.project(pts)
        nu = ParticleMeasure(np.full(spec.particles, mass / spec.particles), pts)
    if spec.signs == "mixed":
        signs = np.where(np.arange(nu.size) % 2 == 0, 1.0, -1.0)
        nu = ParticleMeasure(nu.weights, nu.positions, signs)
    return nu


def build_run_config(spec: SolverSpec, model: FeatureModel, trace_every: int,
                     tv_star_value: float | None = None) -> RunConfig:
    """RunConfig from a solver spec.

    ``tv_star_value`` supplies the mass estimate when the spec asked for
    the oracle's value (global schedule) and the caller computed it.
    """
    init = build_init(spec, model)
    alpha, eta, batch = spec.alpha, spec.eta, spec.batch
    if spec.schedule in ("global", "local"):
        radii = mass_radii(model, spec.lam, init)
        if spec.schedule_r0 is not None:
            r0 = spec.schedule_r0
        elif radii.hypothesis_ok and math.isfinite(radii.R0):
            r0 = radii.R0
        else:
            r0 = init.tv_norm
        if spec.schedule == "global":
            tv_star = tv_star_value if isinstance(spec.tv_star, str) else spec.tv_star
            if tv_star is None:
                raise ConfigError("global schedule needs a numeric tv_star "
                                  "or an oracle value")
            sch = make_schedule("global", model.dim, tv_star, r0, spec.iterations)
        else:
            sch = make_schedule("local", model.dim, 1.0, r0, spec.iterations,
                                model=model, lam=spec.lam)
        alpha, eta, batch = sch.alpha, sch.eta, sch.batch_schedule
    return RunConfig(
        alpha=alpha,
        eta=eta,
        iterations=spec.iterations,
        lam=spec.lam,
        init=init,
        seed=spec.seed,
        batch_schedule=batch,
        mode=spec.mode,
        cesaro=spec.cesaro,
        trace_every=trace_every,
        trace_cesaro=spec.trace_cesaro,
    )
