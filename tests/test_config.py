"""Config files: every shipped config stays valid, and a section or key
that no parser step reads is refused with a message naming it."""
from pathlib import Path

import pytest

from fastpart.cli import main
from fastpart.config import ConfigError, build_model, build_run_config, parse_config

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
        tv_star = 1.0 if spec.tv_star == "oracle" else None
        run_cfg = build_run_config(spec, model, cfg.trace_every,
                                   tv_star_value=tv_star)
        assert run_cfg.iterations == spec.iterations


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
    # the 2-D unit disk at step 1e-3 holds about 3.1M points: a ~79 TB gram
    out = tmp_path / "out"
    path = _config(tmp_path, "relu", extra=extra + f"\n[output]\ndir = {out}\n")
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "[oracle] grid_step = 0.001" in err and "3.14e+06 points" in err
    assert not out.exists()
