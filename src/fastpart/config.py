"""Experiment configuration files.

Plain sectioned ``key = value`` text ([model], [solver], [output], plus
optional [oracle], [certify], [compare] and [variant NAME] sections),
'#' comment lines allowed.  One table per section maps each key to its
attribute, its converter (which carries the key's check) and its
default, and is the section's whole vocabulary.  Parsing is strict: an
unknown section or key, a missing required key, or a present value its
converter refuses, applicable or not, raises ``ConfigError`` naming
the key and section.  Keys left unset inherit a named benchmark's values.
"""
from __future__ import annotations

import configparser
import math
import re
import warnings
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import benchmarks, diagnostics
from .measures import ParticleMeasure
from .models.base import FeatureModel, GroundTruth
from .models.fourier import FourierDeconvolutionModel
from .models.gmm import GaussianMixtureModel, sample_mixture_data
from .models.relu import ReluFeatureModel, sample_regression_data
from .optimizer import RunConfig, make_schedule, mass_radii


class ConfigError(Exception):
    """Invalid configuration; the message names the field."""


class _Refused(ValueError):
    """A converter's reason for refusing a value; ``_parse`` names the key."""


# ----- converters: raw text -> value, or _Refused -------------------------------------

def _number(raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise _Refused("is not a number") from None
    if not math.isfinite(val):
        raise _Refused("is not finite")
    return val


def _positive(raw: str) -> float:
    val = _number(raw)
    if val <= 0:
        raise _Refused("must be > 0")
    return val


def _int(minimum: int):
    def convert(raw: str) -> int:
        try:
            val = int(raw)
        except ValueError:
            raise _Refused("is not an integer") from None
        if val < minimum:
            raise _Refused(f"must be >= {minimum}")
        return val
    return convert


def _choice(*choices: str):
    def convert(raw: str) -> str:
        if raw.strip() not in choices:
            raise _Refused(f"must be {', '.join(choices[:-1])} or {choices[-1]}")
        return raw.strip()
    return convert


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise _Refused("is not a boolean") from None


def _tv_star(raw: str) -> str | float:
    return "oracle" if raw.strip() == "oracle" else _positive(raw)


def _numbers(raw: str) -> np.ndarray:
    try:
        vals = np.array([float(tok) for tok in raw.replace(",", " ").split()])
    except ValueError:
        raise _Refused("is not a number list") from None
    if not np.all(np.isfinite(vals)):
        raise _Refused("has a non-finite entry")
    return vals


def _points(raw: str) -> np.ndarray:
    """';'-separated points; their dimension is checked against [model] dim."""
    try:
        pts = np.array([[float(tok) for tok in row.replace(",", " ").split()]
                        for row in raw.split(";") if row.strip()])
    except ValueError:
        raise _Refused("is not a point list") from None
    if not np.all(np.isfinite(pts)):
        raise _Refused("has a non-finite coordinate")
    return pts


def benchmark_problem(raw: str) -> benchmarks.BenchmarkProblem:
    try:
        return benchmarks.get_benchmark(raw)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None


def on_lattice(section: str, scan, *args):
    """``scan(*args)`` on the [section] lattice; a lattice it refuses is a
    config error."""
    try:
        return scan(*args)
    except diagnostics.LatticeRefused as exc:
        raise ConfigError(f"[{section}] {exc}") from None


# ----- tables: key -> (attribute, converter, default) ---------------------------------

_REQUIRED = object()  # default of a key that must be present


def _inherit(field: str, fallback=None):
    """Default to the [model] benchmark's value, else to ``fallback``."""
    return lambda problem: getattr(problem, field) if problem else fallback


_SOLVER = {  # [solver], and [variant NAME] over it
    "mode": ("mode", _choice("stochastic", "deterministic"), "stochastic"),
    "schedule": ("schedule", _choice("manual", "global", "local"), "manual"),
    "alpha": ("alpha", _positive, None),
    "eta": ("eta", _positive, None),
    "tv_star": ("tv_star", _tv_star, "oracle"),
    "r0": ("schedule_r0", _positive, None),
    "k": ("iterations", _int(1), _REQUIRED),
    "batch": ("batch", _int(1), 1),
    "lambda": ("lam", _positive, _inherit("lam", _REQUIRED)),
    "seed": ("seed", _int(0), 0),
    "init": ("init", _choice("grid", "random"), "grid"),
    "init_step": ("init_step", _positive, _inherit("init_step")),
    "p": ("particles", _int(1), None),
    "init_mass": ("init_mass", _positive, _inherit("init_mass", 1.0)),
    "signs": ("signs", _choice("positive", "mixed"), "positive"),
    "cesaro": ("cesaro", _bool, False),
    "trace_cesaro": ("trace_cesaro", _bool, False),
}

_MODELS = {  # [model] per kind
    "gmm": {
        "benchmark": ("problem", benchmark_problem, None),
        "data": ("data", str, None),
        "data_seed": ("data_seed", _int(0), _inherit("data_seed")),
        "n": ("n", _int(1), _inherit("n_samples")),
        "bandwidth": ("bandwidth", _positive, _inherit("bandwidth", _REQUIRED)),
        "mixing_scale": ("mixing_scale", _positive,
                         _inherit("mixing_scale", _REQUIRED)),
        "radius": ("radius", _positive, _inherit("radius", 1.0)),
        "trunc_width": ("trunc_width", _positive, None),
    },
    "fourier": {
        "dim": ("dim", _int(1), 1),
        "freq_cutoff": ("freq_cutoff", _int(0), _REQUIRED),
        "spike_weights": ("spike_weights", _numbers, _REQUIRED),
        "spike_positions": ("spike_positions", _points, _REQUIRED),
        "noise_coeffs": ("noise_coeffs", _numbers, None),
        "noise_positions": ("noise_positions", _points, None),
    },
    "relu": {
        "dim": ("dim", _int(1), 2),
        "n": ("n", _int(1), 256),
        "data_seed": ("data_seed", _int(0), 0),
        "teacher_width": ("teacher_width", _int(1), 4),
        "noise": ("noise", _number, 0.05),
        "radius": ("radius", _positive, 1.0),
    },
}

_SECTIONS = {  # the optional sections, flattened onto the config
    "output": {
        "dir": ("out_dir", str, "out"),
        "trace_every": ("trace_every", _int(1), 1),
    },
    "oracle": {
        "grid_step": ("oracle_step", _positive, 1e-3),
        "tol": ("oracle_tol", _positive, 1e-6),
        "max_iter": ("oracle_max_iter", _int(1), 20000),
    },
    "certify": {
        "grid_step": ("certify_step", _positive, 1e-3),
        "tol": ("certify_tol", _positive, 1e-5),
        "mass_threshold": ("certify_mass_threshold", _positive, 1e-6),
    },
    "compare": {
        "threshold_frac": ("compare_threshold_frac", _positive, 0.05),
    },
}

_LABEL = re.compile(r"[A-Za-z0-9_.-]+")  # a variant label names output files


def _convert(name: str, key: str, convert, raw: str):
    try:
        return convert(raw)
    except _Refused as exc:
        raise ConfigError(f"key '{key}' in [{name}] {exc}") from None


def _parse(sec, name: str, table: dict, problem=None) -> dict:
    """Attribute -> value for one section: refuse a key outside ``table``,
    convert every present key, and fill the defaults of the others."""
    unknown = sorted(set(sec) - set(table))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in [{name}]")
    values = {attr: _convert(name, key, convert, sec[key])
              for key, (attr, convert, _) in table.items() if key in sec}
    for key, (attr, _, default) in table.items():
        if attr not in values:
            values[attr] = default(problem) if callable(default) else default
            if values[attr] is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' in [{name}]")
    return values


def _solver(sec, name: str, problem) -> SimpleNamespace:
    spec = SimpleNamespace(section=name, **_parse(sec, name, _SOLVER, problem))
    needs = ["alpha", "eta"] if spec.schedule == "manual" else []
    needs.append("init_step" if spec.init == "grid" else "p")
    for key in needs:
        if getattr(spec, _SOLVER[key][0]) is None:
            raise ConfigError(f"missing required key '{key}' in [{name}]")
    if spec.trace_cesaro and not spec.cesaro:
        raise ConfigError(f"key 'trace_cesaro' in [{name}] requires cesaro = true")
    return spec


def _model(sec) -> SimpleNamespace:
    kind = _convert("model", "kind", _choice(*_MODELS), sec.get("kind", ""))
    if "benchmark" in sec and kind != "gmm":
        raise ConfigError("key 'benchmark' in [model] only applies to gmm")
    if kind == "gmm" and "benchmark" not in sec and "data" not in sec:
        raise ConfigError("gmm model needs 'benchmark' or 'data' in [model]")
    problem = benchmark_problem(sec["benchmark"]) if "benchmark" in sec else None
    m = _parse({k: v for k, v in sec.items() if k != "kind"}, "model", _MODELS[kind],
               problem)
    if kind == "fourier":
        for coeffs, points in (("spike_weights", "spike_positions"),
                               ("noise_coeffs", "noise_positions")):
            pts = m[points]
            if (m[coeffs] is None) != (pts is None):
                given, other = (coeffs, points) if pts is None else (points, coeffs)
                raise ConfigError(f"key '{given}' in [model] needs '{other}'")
            if pts is not None and (pts.ndim != 2 or pts.shape[1] != m["dim"]):
                raise ConfigError(f"key '{points}' in [model] needs {m['dim']} "
                                  f"coordinates per point")
            if pts is not None and len(m[coeffs]) != len(pts):
                raise ConfigError(f"{coeffs} and {points} in [model] differ in length")
    return SimpleNamespace(kind=kind, **m)


def parse_config(path: str | Path) -> SimpleNamespace:
    """The config at ``path``: ``model``, ``solver``, ``variants`` (label ->
    solver spec), ``base_dir`` and the attributes of the optional sections."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    for name in parser.sections():
        if not (name in ("model", "solver", *_SECTIONS) or name.startswith("variant ")):
            raise ConfigError(f"unknown section [{name}]")
    if "model" not in parser:
        raise ConfigError("missing [model] section")
    model = _model(parser["model"])
    if "solver" not in parser:
        raise ConfigError("missing [solver] section")
    problem = getattr(model, "problem", None)
    cfg = SimpleNamespace(model=model, base_dir=path.parent, variants={},
                          solver=_solver(parser["solver"], "solver", problem))
    for name, table in _SECTIONS.items():
        vars(cfg).update(_parse(parser[name] if name in parser else {}, name, table))
    for name in [s for s in parser.sections() if s.startswith("variant ")]:
        label = name[len("variant "):]
        if not label.strip():
            raise ConfigError("variant section needs a name: [variant NAME]")
        if not _LABEL.fullmatch(label):
            raise ConfigError(f"variant label in [{name}] may only use letters, "
                              f"digits, '_', '.' and '-'")
        if label.lower() in map(str.lower, cfg.variants):  # one file name per label
            raise ConfigError(f"variant label in [{name}] is taken, ignoring case")
        cfg.variants[label] = _solver({**parser["solver"], **parser[name]}, name, problem)
    return cfg


def read_rows(path: Path, what: str, row: str, skiprows: int = 0) -> np.ndarray:
    """The comma-separated numbers of the ``what`` file at ``path``, one
    ``row`` a line, '#' comments allowed, as a 2-D array; a non-finite
    row is refused by its 1-based index."""
    try:
        with warnings.catch_warnings():
            # the caller decides whether zero rows are legal
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", comments="#", skiprows=skiprows,
                              ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {path}: {exc}") from exc
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ConfigError(f"{what} {path}: {row} {int(bad.argmax()) + 1} is not finite")
    return data


def build_model(cfg: SimpleNamespace) -> FeatureModel:
    """Construct the model described by [model]; deterministic given the config."""
    m = cfg.model

    if m.kind == "gmm":
        if m.data is not None:
            data = read_rows(cfg.base_dir / m.data, "data file", "sample")
            if data.size == 0:
                raise ConfigError(f"data file {cfg.base_dir / m.data} has no samples")
        else:
            data = sample_mixture_data(m.problem.truth, m.problem.mixing_scale, m.n,
                                       np.random.default_rng(m.data_seed))
        return GaussianMixtureModel(data, bandwidth=m.bandwidth,
                                    mixing_scale=m.mixing_scale, radius=m.radius,
                                    trunc_width=m.trunc_width)

    if m.kind == "fourier":
        truth = GroundTruth(m.spike_weights, m.spike_positions,
                            m.noise_coeffs, m.noise_positions)
        return FourierDeconvolutionModel(freq_cutoff=m.freq_cutoff, dim=m.dim,
                                         truth=truth)

    # relu
    x, y = sample_regression_data(m.n, m.dim, np.random.default_rng(m.data_seed),
                                  teacher_width=m.teacher_width, noise_scale=m.noise)
    return ReluFeatureModel(x, y, radius=m.radius)


def build_init(spec: SimpleNamespace, model: FeatureModel) -> ParticleMeasure:
    """Initial measure per the solver spec: equal weights on the lattice of
    the model's domain (the oracle's, torus or ball) or on a random cloud.

    ``signs = mixed`` alternates particle signs, the usual start for
    network-style problems that need both orientations.
    """
    if spec.init == "grid":
        pts = on_lattice(spec.section, diagnostics.model_lattice, model, spec.init_step,
                         "init_step")
    else:
        rng = np.random.default_rng(spec.seed + 0xA5A5)
        pts = rng.uniform(-model.radius, model.radius,
                          size=(spec.particles, model.dim))
        pts = model.project(pts)
    signs = np.resize([1.0, -1.0], len(pts)) if spec.signs == "mixed" else None
    return ParticleMeasure(np.full(len(pts), spec.init_mass / len(pts)), pts, signs)


def build_run_config(spec: SimpleNamespace, model: FeatureModel, init: ParticleMeasure,
                     trace_every: int, oracle_mass: Callable | None = None) -> RunConfig:
    """RunConfig from a solver spec and the start ``build_init`` made of it.

    A global schedule with ``tv_star = oracle`` takes its mass estimate
    from ``oracle_mass(lam)``, called only then; with no callable the
    estimate is missing and refused.
    """
    alpha, eta, batch = spec.alpha, spec.eta, spec.batch
    if spec.schedule in ("global", "local"):
        radii = mass_radii(model, spec.lam, init)
        if spec.schedule == "global" and spec.schedule_r0 is not None:
            r0 = spec.schedule_r0  # r0 is a global-schedule key
        elif radii.hypothesis_ok and math.isfinite(radii.R0):
            r0 = radii.R0
        else:
            r0 = init.tv_norm
        if spec.schedule == "global":
            try:  # at a unit mass, so R0**3 * K is refused before any oracle solve
                make_schedule("global", model.dim, 1.0, r0, spec.iterations)
            except ValueError as exc:  # the one left: R0**3 * K overflows
                raise ConfigError(f"key 'r0' in [{spec.section}]: {exc} (global "
                                  f"schedule); set a smaller r0") from None
            tv_star = spec.tv_star
            if isinstance(tv_star, str):  # "oracle"
                tv_star = oracle_mass(spec.lam) if oracle_mass else None
            if tv_star is None or not tv_star > 0:  # a null oracle measure has mass 0
                raise ConfigError(f"key 'tv_star' in [{spec.section}] must be > 0, got "
                                  f"{tv_star} at lambda {spec.lam:g} (global schedule)")
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
