"""Config files: every shipped config stays valid; a section or key
outside its table, a malformed value of any present key and a variant
label outside ``[A-Za-z0-9_.-]+`` are refused with a message naming them."""
import configparser
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from fastpart import benchmarks, config, diagnostics, sample_mixture_data
from fastpart.cli import main
from fastpart.config import (ConfigError, build_init, build_model, build_run_config,
                             parse_config)
from fastpart.optimizer import mass_radii

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))

MODELS = {
    "gmm": "kind = gmm\nbenchmark = gmm3a\nn = 50\n",
    "fourier": ("kind = fourier\nfreq_cutoff = 2\nspike_weights = 1.0\n"
                "spike_positions = 0.5\n"),
    "relu": "kind = relu\ndim = 2\nn = 16\n",
}

SOLVER = """
[solver]
alpha = 0.1
eta = 0.01
k = 5
lambda = 0.1
init_step = 0.5
"""


def _config(tmp_path, model="gmm", extra_model="", extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(f"[model]\n{MODELS[model]}{extra_model}{SOLVER}{extra}",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_builds(path):
    cfg = parse_config(path)
    model = build_model(cfg)
    for spec in (cfg.solver, *cfg.variants.values()):
        run_cfg = build_run_config(spec, model, build_init(spec, model),
                                   cfg.trace_every, oracle_mass=lambda lam: 1.0)
        assert run_cfg.iterations == spec.iterations


@pytest.mark.parametrize("schedule", ["global", "local"])
def test_schedule_without_r0_takes_the_mass_bound_r0(tmp_path, schedule):
    # a truncated mixture's surrogate is bounded below, so the a-priori
    # mass bound R0 is finite and a schedule with no r0 key is built on it
    path = _config(tmp_path, extra_model="trunc_width = 3\n")
    path.write_text(path.read_text().replace(
        "alpha = 0.1\neta = 0.01\n", f"schedule = {schedule}\ntv_star = 0.5\n"))
    cfg = parse_config(path)
    model = build_model(cfg)
    init = build_init(cfg.solver, model)
    radii = mass_radii(model, cfg.solver.lam, init)
    r0 = radii.R0
    assert radii.hypothesis_ok and math.isfinite(r0) and r0 > 2 * init.tv_norm
    if schedule == "global":
        rc = build_run_config(cfg.solver, model, init, 1)
        assert (rc.alpha, rc.eta, rc.batch_schedule) == (
            math.sqrt(0.5 / (r0**3 * 5)), math.sqrt(r0 / (5**3 * 0.5)), 1)
    else:  # the rates are 1/sqrt(K); R0 enters the small-step check
        with pytest.warns(RuntimeWarning, match=re.escape(f"R0={r0:.3g})")):
            rc = build_run_config(cfg.solver, model, init, 1)
        assert (rc.alpha, rc.eta, rc.batch_schedule) == (1 / math.sqrt(5),) * 2 + (3,)


GMM3A_MM = ("kind = gmm\ndata = mm.csv\nbandwidth = 1e-4\nmixing_scale = 8e-5\n"
            "radius = 1e-3\ntrunc_width = 3\n")


def test_mass_bound_past_the_exponential_range_leaves_a_manual_run_alone(tmp_path,
                                                                          capsys):
    # gmm3a in millimetres: h_sup - lambda is about 3123, past exp's range;
    # the run used to exit 1 with "math range error" from the mass bound,
    # which a manual schedule never reads
    problem = benchmarks.get_benchmark("gmm3a")
    data = sample_mixture_data(problem.truth, problem.mixing_scale, 50,
                               np.random.default_rng(problem.data_seed))
    np.savetxt(tmp_path / "mm.csv", data * 1e-3)
    path = tmp_path / "exp.cfg"
    path.write_text(f"[model]\n{GMM3A_MM}\n[solver]\nalpha = 2e-4\neta = 1e-10\n"
                    "k = 5\nlambda = 0.05\ninit_step = 4e-5\n", encoding="utf-8")
    cfg = parse_config(path)
    model = build_model(cfg)
    radii = mass_radii(model, cfg.solver.lam, build_init(cfg.solver, model))
    assert radii.hypothesis_ok and radii.r0 == radii.R0 == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("status=ok k=5 ")


GMM3A_NARROW = "bandwidth = 1e-3\nmixing_scale = 1e-3\nradius = 4e-3\ntrunc_width = 3\n"


@pytest.mark.parametrize("command,extra,section", [
    ("run", "schedule = global\ntv_star = 1.0\n", "solver"),
    ("compare", "\n[variant a]\n\n[variant glob]\nschedule = global\ntv_star = 1.0\n",
     "variant glob"),
    ("run", "schedule = global\ntv_star = oracle\n\n[oracle]\ngrid_step = 1e-4\n",
     "solver"),
], ids=["run", "compare", "run-oracle"])
def test_global_schedule_on_an_overflowing_mass_bound_exits_2(tmp_path, capsys,
                                                              monkeypatch, command,
                                                              extra, section):
    # gmm3a's mixture at scale 1e-3 on a radius of 4e-3 has a mass bound
    # R0 of about 4e140, whose cube overflows: the run used to exit 1 with
    # "(34, 'Numerical result out of range')", naming no key; with its mass
    # from the oracle it was refused only once the oracle had been solved
    monkeypatch.setattr(diagnostics, "grid_oracle",
                        lambda *args: pytest.fail("the oracle ran first"))
    out = tmp_path / "out"
    path = _config(tmp_path, extra_model=GMM3A_NARROW,
                   extra=extra + f"\n[output]\ndir = {out}\n")
    path.write_text(path.read_text().replace("init_step = 0.5", "init_step = 1e-3"))
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"key 'r0' in [{section}]" in err and "R0**3 * K overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_vocabulary_accepts_minimal_configs(tmp_path, model):
    cfg = parse_config(_config(tmp_path, model))
    build_model(cfg)


@pytest.mark.parametrize("model,key", [
    ("gmm", "bandwith = 0.1"),
    ("fourier", "bandwidth = 0.1"),  # a mixture key on another kind
    ("relu", "freq_cutoff = 3"),
])
def test_unknown_model_key(tmp_path, model, key):
    name = key.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"unknown key '{name}' in \\[model\\]"):
        parse_config(_config(tmp_path, model, extra_model=key + "\n"))


@pytest.mark.parametrize("section,key", [
    ("output", "trace_evry"),
    ("oracle", "gridstep"),
    ("certify", "mass_thresh"),
    ("compare", "threshold"),
    ("variant fast", "bacth"),
])
def test_unknown_key_in_section(tmp_path, section, key):
    path = _config(tmp_path, extra=f"\n[{section}]\n{key} = 5\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
        parse_config(path)


def test_unknown_solver_key_exits_2(tmp_path, capsys):
    # bacth used to be ignored: the run went ahead with batch 1
    path = _config(tmp_path, extra=f"bacth = 64\n\n[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["run", str(path), "--quiet"]) == 2
    assert "unknown key 'bacth' in [solver]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["solvr", "DEFAULT", "variant"])
def test_unknown_section(tmp_path, section):
    path = _config(tmp_path, extra=f"\n[{section}]\nk = 5\n")
    with pytest.raises(ConfigError, match=f"unknown section \\[{section}\\]"):
        parse_config(path)


@pytest.mark.parametrize("present,missing", [("noise_coeffs = 0.05", "noise_positions"),
                                             ("noise_positions = 2.0", "noise_coeffs")])
def test_fourier_noise_key_without_its_pair_exits_2(tmp_path, capsys, present, missing):
    # noise_coeffs alone used to exit 1 with a bare KeyError, and
    # noise_positions alone was silently ignored
    out = tmp_path / "out"
    path = _config(tmp_path, "fourier", extra_model=present + "\n",
                   extra=f"\n[output]\ndir = {out}\n")
    assert main(["run", str(path), "--quiet"]) == 2
    assert not out.exists()
    assert f"needs '{missing}'" in capsys.readouterr().err


@pytest.mark.parametrize("model,extra_model,extra,key", [
    ("gmm", "", "seed = -1\n", "'seed' in [solver]"),
    ("gmm", "", "\n[variant a]\nseed = -1\n", "'seed' in [variant a]"),
    ("gmm", "data_seed = -1\n", "", "'data_seed' in [model]"),
    ("relu", "data_seed = -1\n", "", "'data_seed' in [model]"),
])
def test_negative_seed_exits_2(tmp_path, capsys, model, extra_model, extra, key):
    # each used to pass parsing and exit 1 with numpy's "expected
    # non-negative integer", which names no key
    out = tmp_path / "out"
    path = _config(tmp_path, model, extra_model=extra_model,
                   extra=extra + f"\n[output]\ndir = {out}\n")
    assert main(["run", str(path), "--quiet"]) == 2
    assert not out.exists()
    assert f"key {key} must be >= 0" in capsys.readouterr().err


ORACLE_TOO_FINE = "\n[oracle]\ngrid_step = 0.001\n"


@pytest.mark.parametrize("command,extra", [
    ("oracle", ORACLE_TOO_FINE),
    ("compare", "\n[variant a]\nk = 5\n\n[variant b]\nk = 5\n" + ORACLE_TOO_FINE),
    ("run", "schedule = global\ntv_star = oracle\n" + ORACLE_TOO_FINE),
])
def test_oracle_lattice_beyond_memory_is_refused_before_it_is_built(
        tmp_path, capsys, command, extra):
    # the 3-D unit ball at step 1e-3 is cut from a cube of 2001^3, about
    # 8.01e9 points (it holds about 4.2e9, the count this used to state)
    out = tmp_path / "out"
    path = _config(tmp_path, "relu", extra=extra + f"\n[output]\ndir = {out}\n")
    path.write_text(path.read_text().replace("dim = 2", "dim = 3", 1))
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "[oracle] grid_step = 0.001" in err and "up to 8.01e+09 points" in err
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-300", "1e-11"])
def test_certify_lattice_beyond_memory_exits_2(tmp_path, capsys, monkeypatch, step):
    # these used to exit 1 with numpy's "Maximum allowed size exceeded" and
    # "Unable to allocate 4.57 TiB", which name no key
    monkeypatch.setattr(diagnostics, "grid_points",
                        lambda *args: pytest.fail("the lattice was built"))
    measure = tmp_path / "measure.csv"
    measure.write_text("weight,x0\n0.5,0.1\n", encoding="utf-8")
    path = _config(tmp_path, extra=f"\n[certify]\ngrid_step = {step}\n")
    assert main(["certify", str(path), str(measure), "--quiet"]) == 2
    assert f"[certify] grid_step = {step} gives a lattice" in capsys.readouterr().err


@pytest.mark.parametrize("command,solver_step,extra,section", [
    ("run", "2.5", "", "solver"),
    ("run", "2.5", "schedule = global\ntv_star = oracle\n\n[oracle]\ngrid_step = 0.1\n",
     "solver"),
    ("compare", "0.5", "\n[variant a]\n\n[variant b]\ninit_step = 2.5\n"
                       "\n[oracle]\ngrid_step = 0.1\n", "variant b"),
], ids=["run", "run-oracle", "compare"])
def test_init_step_with_no_lattice_point_exits_2(tmp_path, capsys, monkeypatch, command,
                                                 solver_step, extra, section):
    # the step-2.5 lattice anchored at (-1, -1) has no point in the unit
    # disk; this used to exit 1 with an error naming no key, and only
    # after the oracle had run
    monkeypatch.setattr(diagnostics, "grid_oracle",
                        lambda *args: pytest.fail("the oracle ran first"))
    out = tmp_path / "out"
    path = _config(tmp_path, "relu", extra=extra + f"\n[output]\ndir = {out}\n")
    path.write_text(path.read_text().replace("init_step = 0.5",
                                             f"init_step = {solver_step}", 1))
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] init_step = 2.5 leaves no lattice point" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "certify"])
def test_grid_step_with_no_lattice_point_exits_2_naming_it(tmp_path, capsys, command):
    # it used to exit 2 with "[oracle] step 2.5 yields no lattice point
    # inside the ball of radius 1.0", naming no key
    measure = tmp_path / "measure.csv"
    measure.write_text("weight,x0,x1\n0.5,0.1,0.2\n", encoding="utf-8")
    path = _config(tmp_path, "relu", extra=f"\n[{command}]\ngrid_step = 2.5\n"
                                           f"\n[output]\ndir = {tmp_path / 'out'}\n")
    argv = [command, str(path)] + ([str(measure)] if command == "certify" else [])
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"[{command}] grid_step = 2.5 leaves no lattice point" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim,size", [(1, 10), (2, 100)])
def test_fourier_grid_start_is_the_torus_lattice(tmp_path, dim, size):
    # it used to be the ball's lattice: both -pi and +pi, the same torus
    # point, in 1-D, and 81 points on the disk, none in the corners, in 2-D
    path = _config(tmp_path, "fourier", extra_model=f"dim = {dim}\n")
    path.write_text(path.read_text().replace("spike_positions = 0.5",
                                             "spike_positions = " + "0.5 " * dim)
                    .replace("init_step = 0.5", f"init_step = {math.pi / 5!r}"))
    cfg = parse_config(path)
    nu = build_init(cfg.solver, build_model(cfg))
    assert nu.size == size
    assert nu.positions.min() == -math.pi and nu.positions.max() < math.pi
    assert nu.tv_norm == pytest.approx(1.0)


@pytest.mark.parametrize("model,step", [("relu", "1e-7"), ("fourier", "1e-300")])
def test_init_step_beyond_memory_exits_2(tmp_path, capsys, monkeypatch, model, step):
    # 1e-7 in 2-D used to exit 1 with "Unable to allocate 5.68 PiB", and
    # 1e-300 to exit 2 calling the step too coarse
    monkeypatch.setattr(diagnostics, "grid_points",
                        lambda *args: pytest.fail("the lattice was built"))
    extra_model = "dim = 2\n" if model == "fourier" else ""
    path = _config(tmp_path, model, extra_model=extra_model)
    path.write_text(path.read_text().replace("spike_positions = 0.5",
                                             "spike_positions = 0.5 0.5")
                    .replace("init_step = 0.5", f"init_step = {step}"))
    assert main(["run", str(path), "--quiet", "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"[solver] init_step = {float(step):g} gives" in err
    assert "no lattice point" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,dim,init_step,extra,key", [
    ("oracle", 400, 0.5, "", "grid_step"),
    ("oracle", 340, 0.5, "\n[oracle]\ngrid_step = 0.02\n", "grid_step"),
    ("run", 340, 0.02, "", "init_step"),
    ("run", 400, 0.5, "", "init_step"),
], ids=["oracle-d400", "oracle-d340", "grid-start-d340", "grid-start-d400"])
def test_lattice_in_high_dimension_is_refused_on_memory(tmp_path, capsys, monkeypatch,
                                                        command, dim, init_step, extra,
                                                        key):
    # past d = 341 the ball's share raised OverflowError (exit 1, "math
    # range error"); at d = 340 it underflowed, the point estimate was nan,
    # the memory refusal was skipped and the lattice was called too coarse
    monkeypatch.setattr(diagnostics, "grid_points",
                        lambda *args: pytest.fail("the lattice was built"))
    out = tmp_path / "out"
    path = _config(tmp_path, "relu", extra=extra + f"\n[output]\ndir = {out}\n")
    path.write_text(path.read_text().replace("dim = 2", f"dim = {dim}", 1)
                    .replace("init_step = 0.5", f"init_step = {init_step}"))
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{key} = " in err and f"raise {key}" in err
    assert "no lattice point" not in err
    assert not out.exists()


def test_grid_start_in_400_dimensions_states_at_least_the_balls_count(tmp_path, capsys,
                                                                       monkeypatch):
    # the ball's share of the cube put this lattice at "about 5.12e-117
    # points"; at step 0.5 a point of the unit ball is +-1 on one axis or
    # +-0.5 on at most four, about 1.7e10 points
    monkeypatch.setattr(diagnostics, "grid_points",
                        lambda *args: pytest.fail("the lattice was built"))
    path = _config(tmp_path, "relu")
    path.write_text(path.read_text().replace("dim = 2", "dim = 400", 1))
    assert main(["run", str(path), "--quiet", "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    stated = float(re.search(r"init_step = 0.5 gives a lattice of up to (\S+) points",
                             err)[1])
    ball = 2 * 400 + sum(math.comb(400, k) * 2**k for k in range(5))
    assert ball > 1.6e10 and stated >= ball


def _with_value(source, dest, section, key, value):
    """Copy the config at ``source`` to ``dest`` with ``key = value`` set."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(source, encoding="utf-8")
    if section not in parser:
        parser.add_section(section)
    parser[section][key] = value
    with open(dest, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return dest


@pytest.mark.parametrize("key,value,attr", [
    ("alpha", "abc", "alpha"),
    ("eta", "-5", "eta"),
    ("p", "zero", "particles"),
    ("r0", "nan", "schedule_r0"),
    ("lambda", "abc", "lam"),
    ("k", "2.5", "iterations"),
])
def test_every_present_key_is_validated(tmp_path, capsys, key, value, attr):
    # schedule = global and init = grid read none of alpha, eta and p, so
    # each of the first three used to pass unread and the run exited 0
    out = tmp_path / "out"
    path = _with_value(CONFIGS[0].parent / "gmm3a_global.cfg", tmp_path / "exp.cfg",
                       "output", "dir", str(out))
    _with_value(path, path, "solver", key, value)
    assert main(["run", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}' in [solver]" in err
    assert attr == key or f"'{attr}'" not in err  # the config key, not the attribute
    assert not out.exists()


@pytest.mark.parametrize("extra,section", [
    ("\n[variant a,b]\nk = 5\n", "variant a,b"),  # a comparison.csv field
    ("\n[variant c ]\nk = 5\n\n[variant c]\nk = 6\n", "variant c "),  # stripped: c twice
    ("\n[variant ../x]\nk = 5\n", "variant ../x"),  # a path in the trace file name
], ids=["comma", "trailing_space", "slash"])
def test_variant_label_outside_its_alphabet_is_refused(tmp_path, extra, section):
    with pytest.raises(ConfigError, match=re.escape(f"variant label in [{section}]")):
        parse_config(_config(tmp_path, extra=extra))


def test_duplicate_variant_label_is_refused(tmp_path):
    path = _config(tmp_path, extra="\n[variant c]\nk = 5\n\n[variant c]\nk = 6\n")
    with pytest.raises(ConfigError, match="section 'variant c' already exists"):
        parse_config(path)


def test_variant_labels_equal_but_for_case_are_refused(tmp_path):
    # A_trace.csv and a_trace.csv are one file on a case-insensitive file system
    path = _config(tmp_path, extra="\n[variant A]\nk = 5\n\n[variant a]\nk = 6\n")
    with pytest.raises(ConfigError, match=re.escape("variant label in [variant a]")):
        parse_config(path)


def test_variant_labels_in_the_alphabet_are_kept(tmp_path):
    path = _config(tmp_path, extra="\n[variant A-1.b_2]\nk = 5\n\n[variant c]\nk = 6\n")
    assert sorted(parse_config(path).variants) == ["A-1.b_2", "c"]


def _numeric(convert):
    try:
        value = convert("2")
    except (ValueError, ConfigError):  # a choice, boolean or benchmark key
        return False
    return not isinstance(value, (str, bool))


def _numeric_keys():
    """(kind of the base config, section, key) for every numeric key of every table."""
    cases = []
    for kind, table in config._MODELS.items():
        cases += [(kind, "model", key) for key, (_, convert, _) in table.items()
                  if _numeric(convert)]
    for section, table in [("solver", config._SOLVER), ("variant a", config._SOLVER),
                           *config._SECTIONS.items()]:
        cases += [("gmm", section, key) for key, (_, convert, _) in table.items()
                  if _numeric(convert)]
    return cases


NUMERIC_KEYS = _numeric_keys()


def test_numeric_keys_cover_every_table():
    sections = {section for _, section, _ in NUMERIC_KEYS}
    assert sections == {"model", "solver", "variant a", *config._SECTIONS}
    assert {key for kind, s, key in NUMERIC_KEYS if s == "model"} >= {
        "n", "data_seed", "dim", "freq_cutoff", "spike_positions", "noise", "trunc_width"}

