import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fastpart import cli, diagnostics
from fastpart.cli import main, read_measure, write_measure
from fastpart.measures import ParticleMeasure

CONFIGS = Path(__file__).parents[1] / "configs"


BASE_GMM = """
[model]
kind = gmm
benchmark = gmm3a
n = 300

[solver]
mode = stochastic
schedule = manual
alpha = 0.1
eta = 0.0001
k = {k}
lambda = 0.05
seed = 12
init = grid
init_step = 0.2
init_mass = 0.5
cesaro = true

[output]
dir = {out}
trace_every = {trace_every}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_trace(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("k,"):
                continue
            rows.append(line.strip().split(","))
    return rows


RELU_CFG = """
[model]
kind = relu
dim = 2
n = 16

[solver]
alpha = 0.1
eta = 0.01
k = 5
lambda = 0.1
init_step = 0.5
"""
RELU_MODEL = "kind = relu\ndim = 2\nn = 16\n"
FOURIER_CFG = RELU_CFG.replace(RELU_MODEL, "kind = fourier\nfreq_cutoff = 2\n"
                               "spike_weights = 1.0\nspike_positions = 0.5\n")
GMM_DATA_CFG = RELU_CFG.replace(RELU_MODEL, "kind = gmm\ndata = d.csv\n"
                                "bandwidth = 0.1\nmixing_scale = 0.1\n")
RUN = ["run", "{cfg}", "--quiet"]
COMPARE = ["compare", "{cfg}", "--quiet"]
CERTIFY = ["certify", "{cfg}", "{tmp}/m.csv", "--quiet"]

# case -> (argv, config text, {file name: text}, what stderr must name)
REFUSALS = {
    "missing-k": (RUN, RELU_CFG.replace("k = 5\n", ""), {}, "'k' in [solver]"),
    "missing-spike-weights": (RUN, FOURIER_CFG.replace("spike_weights = 1.0\n", ""),
                              {}, "'spike_weights' in [model]"),
    "missing-alpha": (RUN, RELU_CFG.replace("alpha = 0.1\n", ""), {},
                      "'alpha' in [solver]"),
    "missing-eta": (RUN, RELU_CFG.replace("eta = 0.01\n", ""), {}, "'eta' in [solver]"),
    "missing-init-step": (RUN, RELU_CFG.replace("init_step = 0.5\n", ""), {},
                          "'init_step' in [solver]"),
    "missing-p": (RUN, RELU_CFG.replace("init_step = 0.5", "init = random"), {},
                  "'p' in [solver]"),
    "trace-cesaro-alone": (RUN, RELU_CFG + "trace_cesaro = true\n", {},
                           "'trace_cesaro' in [solver]"),
    "benchmark-on-relu": (RUN, RELU_CFG.replace("n = 16\n",
                                                "n = 16\nbenchmark = gmm3a\n"),
                          {}, "'benchmark' in [model]"),
    "gmm-without-data": (RUN, GMM_DATA_CFG.replace("data = d.csv\n", ""), {},
                         "'benchmark' or 'data' in [model]"),
    "length-mismatch": (RUN, FOURIER_CFG.replace("1.0", "1.0, 0.5"), {},
                        "spike_weights and spike_positions in [model]"),
    "no-model": (RUN, RELU_CFG[RELU_CFG.index("[solver]"):], {}, "[model]"),
    "no-solver": (RUN, RELU_CFG[:RELU_CFG.index("[solver]")], {}, "[solver]"),
    "empty-variant-name": (RUN, RELU_CFG + "\n[variant ]\nk = 3\n", {}, "[variant NAME]"),
    # its J was scored against the threshold of the [solver] lambda's oracle
    "variant-lambda": (COMPARE, RELU_CFG + "\n[variant a]\n\n[variant b]\n"
                       "lambda = 0.5\n", {}, "'lambda' in [variant b]"),
    "missing-data-file": (RUN, GMM_DATA_CFG, {}, "d.csv"),
    "unparseable-data-file": (RUN, GMM_DATA_CFG, {"d.csv": "0.1\nabc\n"}, "d.csv"),
    "empty-measure-file": (CERTIFY, RELU_CFG, {"m.csv": ""}, "m.csv"),
    "measure-header": (CERTIFY, RELU_CFG, {"m.csv": "w,x0,x1\n1,0,0\n"}, "m.csv"),
    "measure-row-width": (CERTIFY, RELU_CFG, {"m.csv": "weight,x0,x1\n1,0\n"}, "m.csv"),
    "measure-not-utf8": (CERTIFY, RELU_CFG, {"m.csv": "\xffweight,x0,x1\n"}, "m.csv"),
    "gen-data-missing-dir": (["gen-data", "gmm3a", "1", "{tmp}/nodir/d.csv"], "", {},
                             "nodir"),
    "gen-data-negative-seed": (["gen-data", "gmm3a", "-1", "{tmp}/d.csv"], "", {}, "seed"),
    "gen-data-under-a-file": (["gen-data", "gmm3a", "1", "{tmp}/afile/d.csv"], "",
                              {"afile": ""}, "afile"),
    "gen-data-onto-a-directory": (["gen-data", "gmm3a", "1", "{tmp}"], "", {},
                                  "is a directory"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_exits_2_naming_its_field(tmp_path, capsys, case):
    argv, text, files, named = REFUSALS[case]
    cfg = write_cfg(tmp_path, text)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content.encode("latin-1"))  # \xff: not UTF-8
    assert main([arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err

class TestRunCommand:
    def test_minimal_run_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=20, out=tmp_path / "out",
                                                  trace_every=1))
        assert main(["run", cfg, "--quiet"]) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "final_measure.csv").exists()
        assert (out / "cesaro_measure.csv").exists()
        rows = read_trace(out / "trace.csv")
        assert len(rows) == 21  # k = 0 .. K
        assert [r[0] for r in rows[:3]] == ["0", "1", "2"]

    def test_run_prints_its_status_and_trace_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=20, out=out, trace_every=1))
        assert main(["run", cfg]) == 0
        k, j, tv, *_, evals, _ = read_trace(out / "trace.csv")[-1]
        assert capsys.readouterr().out.splitlines() == [
            f"status=ok k={k} J={float(j):.6g} tv={float(tv):.6g} evals={evals}",
            f"wrote {out / 'trace.csv'}",
        ]

    def test_trace_every_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=25, out=tmp_path / "o",
                                                  trace_every=1))
        assert main(["run", cfg, "--quiet", "--trace-every", "10"]) == 0
        rows = read_trace(tmp_path / "o" / "trace.csv")
        assert [r[0] for r in rows] == ["0", "10", "20", "25"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_trace_every_below_one_exits_2(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=5, out=tmp_path / "o",
                                                  trace_every=1))
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg, "--quiet", "--trace-every", value])
        assert exc.value.code == 2
        assert "--trace-every" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        text = BASE_GMM.format(k=10, out=tmp_path / "o", trace_every=1)
        cfg = write_cfg(tmp_path, text.replace("alpha = 0.1", "alpha = 0"))
        assert main(["run", cfg, "--quiet"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,key", [
        ("eta = 0.0001", "eta = nan", "eta"),
        ("lambda = 0.05", "lambda = inf", "lambda"),
    ])
    def test_nonfinite_key_exits_2(self, tmp_path, capsys, old, new, key):
        # eta = nan used to fail at run time: "projected position left the domain"
        text = BASE_GMM.format(k=10, out=tmp_path / "o", trace_every=1)
        cfg = write_cfg(tmp_path, text.replace(old, new))
        assert main(["run", cfg, "--quiet"]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_null_oracle_mass_exits_2(self, tmp_path, capsys):
        # at lambda = 50 the oracle's measure is null: its mass 0 used to
        # reach make_schedule and exit 1 with "schedule inputs must be positive"
        text = BASE_GMM.format(k=10, out=tmp_path / "o", trace_every=1)
        text = text.replace("schedule = manual", "schedule = global\ntv_star = oracle")
        cfg = write_cfg(tmp_path, text.replace("lambda = 0.05", "lambda = 50")
                        + "\n[oracle]\ngrid_step = 0.01\n")
        assert main(["run", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "'tv_star' in [solver]" in err and "lambda 50" in err
        assert not (tmp_path / "o").exists()

    def test_out_dir_under_a_file_exits_2_before_the_run(self, tmp_path, capsys,
                                                         monkeypatch):
        # used to run the solver, then exit 1 with "[Errno 20] Not a directory"
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("the solver ran"))
        (tmp_path / "afile").write_text("")
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=10, out=tmp_path / "o",
                                                  trace_every=1))
        out = tmp_path / "afile" / "sub"
        assert main(["run", cfg, "--out-dir", str(out), "--quiet"]) == 2
        assert f"output directory {out}" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        # used to exit 1 with "Error: [Errno 21] Is a directory"
        path = tmp_path / "somedir.cfg"
        path.mkdir()
        assert main(["run", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "somedir.cfg" in err

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # absurd step size overflows the multiplicative update
        text = BASE_GMM.format(k=400, out=tmp_path / "o", trace_every=1)
        cfg = write_cfg(tmp_path, text.replace("alpha = 0.1", "alpha = 5000"))
        assert main(["run", cfg, "--quiet"]) == 1
        assert "error" in capsys.readouterr().err

    def test_reproducible_modulo_wall(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=40, out=tmp_path / "a",
                                                  trace_every=1))
        assert main(["run", cfg, "--quiet"]) == 0
        assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "b")]) == 0

        def strip_wall(path):
            return [",".join(r[:6]) for r in read_trace(path)]

        assert strip_wall(tmp_path / "a" / "trace.csv") == \
            strip_wall(tmp_path / "b" / "trace.csv")
        assert (tmp_path / "a" / "final_measure.csv").read_bytes() == \
            (tmp_path / "b" / "final_measure.csv").read_bytes()

    def test_eval_cost_model(self, tmp_path):
        # stochastic growth: 4 * batch * particles per iteration
        text = BASE_GMM.format(k=10, out=tmp_path / "o", trace_every=1)
        text = text.replace("alpha = 0.1", "alpha = 0.1\nbatch = 3")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 0
        rows = read_trace(tmp_path / "o" / "trace.csv")
        evals = [int(r[5]) for r in rows]
        p = 11  # grid step 0.2 on [-1, 1]
        diffs = np.diff(evals)
        assert np.all(diffs == 4 * 3 * p)

    def test_eval_cost_model_deterministic(self, tmp_path):
        text = BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
        text = text.replace("mode = stochastic", "mode = deterministic")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 0
        rows = read_trace(tmp_path / "o" / "trace.csv")
        evals = [int(r[5]) for r in rows]
        p, n = 11, 300
        assert np.all(np.diff(evals) == 2 * (p * p + p * n))

    def test_deterministic_objective_monotone(self, tmp_path):
        text = BASE_GMM.format(k=150, out=tmp_path / "o", trace_every=1)
        text = text.replace("mode = stochastic", "mode = deterministic")
        text = text.replace("alpha = 0.1", "alpha = 0.4")
        text = text.replace("eta = 0.0001", "eta = 0.001")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 0
        rows = read_trace(tmp_path / "o" / "trace.csv")
        j = np.array([float(r[1]) for r in rows])
        warmup = max(1, len(j) // 100)
        assert np.all(np.diff(j[warmup:]) <= 1e-12)


class TestCertifyCommand:
    def test_oracle_certifies_and_grid_fails(self, tmp_path):
        cfg_text = BASE_GMM.format(k=10, out=tmp_path / "o", trace_every=1) + (
            "\n[oracle]\ngrid_step = 0.01\ntol = 1e-7\n"
            "\n[certify]\ngrid_step = 0.01\ntol = 1e-5\n")
        cfg = write_cfg(tmp_path, cfg_text)
        assert main(["oracle", cfg, "--out-dir", str(tmp_path / "orc")]) == 0
        assert main(["certify", cfg,
                     str(tmp_path / "orc" / "oracle_measure.csv")]) == 0
        # an unoptimized uniform grid measure must fail certification
        from fastpart.measures import uniform_grid_measure
        bad = tmp_path / "bad_measure.csv"
        write_measure(bad, uniform_grid_measure(1.0, 1, 0.2, 0.5))
        assert main(["certify", cfg, str(bad)]) == 3

    def test_quiet_oracle_and_certify_print_nothing(self, tmp_path, capsys):
        # --quiet used to be accepted and ignored by both commands
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
                        + "\n[oracle]\ngrid_step = 0.02\n\n[certify]\ngrid_step = 0.02\n")
        orc = tmp_path / "orc"
        assert main(["oracle", cfg, "--out-dir", str(orc), "--quiet"]) == 0
        assert (orc / "oracle_measure.csv").exists()
        assert main(["certify", cfg, str(orc / "oracle_measure.csv"), "--quiet"]) in (0, 3)
        bad = tmp_path / "bad_measure.csv"
        write_measure(bad, ParticleMeasure([0.5, 0.5], [[-0.6], [0.6]]))
        assert main(["certify", cfg, str(bad), "--quiet"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command,scan", [("oracle", "_lawson_hanson"),
                                              ("certify", "marginal_cost")])
    def test_value_error_inside_the_scan_exits_1(self, tmp_path, capsys, monkeypatch,
                                                 command, scan):
        # only the lattice's refusal is a config error; any ValueError the
        # scan raised used to exit 2 as one too
        def fail(*args):
            raise ValueError("not a lattice refusal")

        monkeypatch.setattr(diagnostics, scan, fail)
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
                        + "\n[oracle]\ngrid_step = 0.02\n\n[certify]\ngrid_step = 0.02\n")
        measure = tmp_path / "measure.csv"
        write_measure(measure, ParticleMeasure([0.5], [[0.1]]))
        argv = [command, cfg] + ([str(measure)] if command == "certify" else [])
        assert main(argv + ["--quiet"]) == 1
        assert capsys.readouterr().err == "error: not a lattice refusal\n"

    def test_null_measure_certifies_when_lam_dominates(self, tmp_path):
        # over-regularized problem: the empty measure satisfies optimality
        from fastpart import GaussianMixtureModel, GroundTruth, sample_mixture_data
        truth = GroundTruth(weights=[1.0], positions=[0.0])
        data = sample_mixture_data(truth, 0.5, 50, np.random.default_rng(0),
                                   trunc_width=3.0)
        data_file = tmp_path / "d.csv"
        np.savetxt(data_file, data, delimiter=",")
        model = GaussianMixtureModel(data, bandwidth=1.0, mixing_scale=0.5,
                                     trunc_width=3.0)
        lam = 1.01 * model.bounds().h_sup
        cfg = write_cfg(tmp_path, f"""
[model]
kind = gmm
data = d.csv
bandwidth = 1.0
mixing_scale = 0.5
trunc_width = 3.0

[solver]
mode = stochastic
schedule = manual
alpha = 0.1
eta = 0.001
k = 10
lambda = {lam}
init = grid
init_step = 0.5

[certify]
grid_step = 0.02
tol = 1e-5
""")
        null_file = tmp_path / "null.csv"
        write_measure(null_file, ParticleMeasure(np.empty(0), np.empty((0, 1))))
        assert main(["certify", cfg, str(null_file)]) == 0

    def test_unparseable_measure_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=5, out=tmp_path / "o",
                                                  trace_every=1))
        bad = tmp_path / "garbage.csv"
        bad.write_text("weight,x0\nnot,a,number\n")
        assert main(["certify", cfg, str(bad)]) == 2

    @pytest.mark.parametrize("row", ["nan,0.1", "0.5,inf", "-inf,0.2"])
    def test_nonfinite_measure_exits_2(self, tmp_path, capsys, row):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=5, out=tmp_path / "o",
                                                  trace_every=1))
        bad = tmp_path / "nonfinite.csv"
        bad.write_text(f"weight,x0\n0.2,0.0\n{row}\n")
        assert main(["certify", cfg, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "nonfinite.csv" in err and "atom 2" in err

    def test_dimension_mismatch_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=5, out=tmp_path / "o",
                                                  trace_every=1))
        two_d = tmp_path / "m2.csv"
        write_measure(two_d, ParticleMeasure([1.0], [[0.1, 0.2]]))
        assert main(["certify", cfg, str(two_d)]) == 2


class TestGenData:
    def test_reproducible_and_commented(self, tmp_path):
        out1 = tmp_path / "d1.csv"
        out2 = tmp_path / "d2.csv"
        assert main(["gen-data", "gmm3a", "9", str(out1)]) == 0
        assert main(["gen-data", "gmm3a", "9", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        first = out1.read_text().splitlines()
        assert first[0].startswith("#")
        assert "seed=9" in first[0]
        data = np.loadtxt(out1, delimiter=",", comments="#")
        assert data.shape == (2000,)

    def test_sample_mean_matches_mixture_mean(self, tmp_path):
        from fastpart import benchmarks
        problem = benchmarks.get_benchmark("gmm3a")
        data = benchmarks.gen_data(problem, 31)
        target = float(problem.truth.weights @ problem.truth.positions.ravel()
                       / problem.truth.weights.sum())
        se = data.std() / np.sqrt(len(data))
        assert abs(data.mean() - target) <= 4 * se

    def test_empty_sample_rejected(self):
        from fastpart import GroundTruth, sample_mixture_data
        truth = GroundTruth(weights=[1.0], positions=[0.0])
        with pytest.raises(ValueError):
            sample_mixture_data(truth, 0.1, 0, np.random.default_rng(0))

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "gmm3a", "1", str(a)])
        main(["gen-data", "gmm3a", "2", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_problem_exits_2(self, tmp_path):
        assert main(["gen-data", "nope", "1", str(tmp_path / "x.csv")]) == 2

    def test_data_file_roundtrip_into_model(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["gen-data", "gmm3a", "4", str(out)])
        text = BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
        text = text.replace("benchmark = gmm3a\nn = 300",
                            f"benchmark = gmm3a\ndata = {out.name}")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 0


    def test_nonfinite_data_file_exits_2(self, tmp_path, capsys):
        # a nan sample used to surface as a "reduce alpha" overflow, exit 1
        data = tmp_path / "d.csv"
        data.write_text("# fastpart data\n0.1\n-0.2\nnan\n0.3\n")
        text = BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
        text = text.replace("benchmark = gmm3a\nn = 300",
                            f"benchmark = gmm3a\ndata = {data.name}")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "d.csv" in err and "sample 3" in err
        assert not (tmp_path / "o").exists()

    def test_empty_data_file_exits_2(self, tmp_path, capsys):
        # used to exit 1: "data must be a nonempty (N, d) array"
        (tmp_path / "empty.csv").write_text("# fastpart data\n")
        text = BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
        cfg = write_cfg(tmp_path, text.replace("benchmark = gmm3a\nn = 300",
                                               "benchmark = gmm3a\ndata = empty.csv"))
        assert main(["run", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "empty.csv" in err and "no samples" in err
        assert not (tmp_path / "o").exists()



class TestCompareCommand:
    def test_requires_two_variants(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_GMM.format(k=5, out=tmp_path / "o",
                                                  trace_every=1))
        assert main(["compare", cfg]) == 2

    def test_comparison_outputs(self, tmp_path):
        text = BASE_GMM.format(k=400, out=tmp_path / "cmp", trace_every=4)
        text = text.replace("cesaro = true", "cesaro = false")
        text += """
[variant det]
mode = deterministic
alpha = 0.4
eta = 0.001
k = 60

[variant sto]
mode = stochastic
batch = 4
alpha = 0.2

[oracle]
grid_step = 0.01
tol = 1e-6
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["compare", cfg, "--quiet"]) == 0
        out = tmp_path / "cmp"
        assert (out / "det_trace.csv").exists()
        assert (out / "sto_trace.csv").exists()
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "variant,evals_to_threshold,final_J"
        names = [l.split(",")[0] for l in lines[2:]]
        assert names == ["det", "sto"]

    def test_compare_prints_the_threshold_and_each_variant(self, tmp_path, capsys):
        from fastpart.config import build_init, build_model, parse_config
        text = BASE_GMM.format(k=30, out=tmp_path / "cmp", trace_every=1)
        cfg = write_cfg(tmp_path, text + "\n[variant a]\n\n[variant b]\nalpha = 0.2\n"
                                         "\n[oracle]\ngrid_step = 0.02\n")
        assert main(["compare", cfg]) == 0
        _, note, *rows = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        threshold, oracle_j = (float(f.split("=")[1]) for f in note.split()[-2:])
        parsed = parse_config(cfg)
        model = build_model(parsed)
        j0 = diagnostics.objective(model, build_init(parsed.solver, model), 0.05)
        lines = [f"{name}: evals_to_threshold={hit or 'never'} final_J={float(j):.6g}"
                 for name, hit, j in (row.split(",") for row in rows)]
        assert capsys.readouterr().out.splitlines() == [
            "solving grid oracle at lambda=0.05 grid_step=0.02",
            f"J*={oracle_j:.6g} J0={j0:.6g} threshold={threshold:.6g}",
            *lines,
        ]
        assert [line.split(":")[0] for line in lines] == ["a", "b"]

    @staticmethod
    def _manual_and_global(tmp_path, lam):
        text = BASE_GMM.format(k=10, out=tmp_path / "cmp", trace_every=1)
        return write_cfg(tmp_path, text.replace("lambda = 0.05", f"lambda = {lam}") + """
[variant man]

[variant zglob]
schedule = global
tv_star = oracle

[oracle]
grid_step = 0.01
""")

    def test_global_variant_at_base_lambda_shares_the_oracle(self, tmp_path,
                                                             monkeypatch):
        # the threshold and the variant's mass each used to solve it
        lams, oracle = [], diagnostics.grid_oracle
        monkeypatch.setattr(diagnostics, "grid_oracle",
                            lambda *args: lams.append(args[1]) or oracle(*args))
        cfg = self._manual_and_global(tmp_path, 0.05)
        assert main(["compare", cfg, "--quiet"]) == 0
        assert lams == [0.05]
        assert (tmp_path / "cmp" / "man_trace.csv").exists()
        assert (tmp_path / "cmp" / "zglob_trace.csv").exists()

    def test_null_variant_mass_exits_2_before_any_run(self, tmp_path, capsys,
                                                      monkeypatch):
        # at lambda 50 the oracle's measure is null; variant man used to
        # run and write its trace before zglob's turn refused it
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("the solver ran"))
        cfg = self._manual_and_global(tmp_path, 50)
        assert main(["compare", cfg, "--quiet"]) == 2
        assert "'tv_star' in [variant zglob]" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_cesaro_variant_smoother(self, tmp_path):
        # the averaged trace has lower late-run wiggle than the raw one
        text = BASE_GMM.format(k=2000, out=tmp_path / "sm", trace_every=1)
        text = text.replace("init_step = 0.2", "init_step = 0.1")
        text += """
[variant raw]
cesaro = false

[variant avg]
cesaro = true
trace_cesaro = true

[oracle]
grid_step = 0.02
tol = 1e-6
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["compare", cfg, "--quiet"]) == 0

        def late_variance(name):
            rows = read_trace(tmp_path / "sm" / f"{name}_trace.csv")
            j = np.array([float(r[1]) for r in rows])
            tail = j[3 * len(j) // 4:]
            return np.var(np.diff(tail))

        assert late_variance("avg") < late_variance("raw")


class TestShippedCompare:
    """``compare`` on configs/gmm3a_compare.cfg at its seed 0, run once."""

    @pytest.fixture(scope="class")
    def shipped(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("shipped") / "out"
        lattices = []
        with pytest.MonkeyPatch.context() as mp:
            lattice = diagnostics.model_lattice
            mp.setattr(diagnostics, "model_lattice",
                       lambda *args: lattices.append(args[1:]) or lattice(*args))
            assert main(["compare", str(CONFIGS / "gmm3a_compare.cfg"),
                         "--out-dir", str(out), "--quiet"]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[2:]
        return lattices, {r.split(",")[0]: r.split(",")[1] for r in rows}, out

    def test_each_start_is_built_once(self, shipped):
        # the [solver] start, one per variant, then the oracle's lattice;
        # each variant's start used to be built twice (6 lattices)
        lattices, _, _ = shipped
        assert [step for step, *_ in lattices] == [0.040816326530612242] * 3 + [0.001]

    def test_evaluations_to_threshold_are_unchanged(self, shipped):
        # the exact data side's Chebyshev series moves J only at rounding
        _, evals, _ = shipped
        assert evals == {"exact": "6150000", "stochastic": "240000"}

    def test_each_trace_records_why_its_run_stopped(self, shipped):
        # as run's trace does; a variant stopped early leaves a shorter trace
        _, evals, out = shipped
        for name in evals:
            header = (out / f"{name}_trace.csv").read_text().splitlines()[1]
            assert header.startswith(f"# fastpart trace variant={name} seed=0 ")
            assert header.endswith(" status=ok")


class TestFourier2dConfig:
    def test_two_dimensional_spikes_parse_and_run(self, tmp_path):
        text = """
[model]
kind = fourier
freq_cutoff = 1
dim = 2
spike_weights = 0.7, 0.5
spike_positions = -1.0 0.6; 1.2 -0.8

[solver]
mode = stochastic
schedule = manual
alpha = 0.1
eta = 0.01
k = 50
lambda = 0.2
seed = 2
init = random
p = 16

[output]
dir = {out}
trace_every = 10
""".format(out=tmp_path / "f2")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 0
        back = read_measure(tmp_path / "f2" / "final_measure.csv")
        assert back.dim == 2

    def test_overflowing_oracle_lattice_exits_2(self, tmp_path, capsys):
        # (2/1e-300)^2 lattice points overflow a float: the size estimate
        # used to raise OverflowError, exit 1 naming no key
        cfg = write_cfg(tmp_path, """
[model]
kind = fourier
freq_cutoff = 1
dim = 2
spike_weights = 0.7
spike_positions = -1.0 0.6

[solver]
mode = stochastic
schedule = manual
alpha = 0.1
eta = 0.01
k = 50
lambda = 0.2
init = random
p = 4

[oracle]
grid_step = 1e-300
""")
        assert main(["oracle", cfg, "--out-dir", str(tmp_path / "orc"), "--quiet"]) == 2
        assert "grid_step" in capsys.readouterr().err
        assert not (tmp_path / "orc").exists()

    def test_dimension_mismatch_in_points_exits_2(self, tmp_path, capsys):
        text = """
[model]
kind = fourier
freq_cutoff = 1
dim = 2
spike_weights = 0.7
spike_positions = -1.0

[solver]
mode = stochastic
schedule = manual
alpha = 0.1
eta = 0.01
k = 5
lambda = 0.2
init = random
p = 4
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 2
        assert "spike_positions" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,key", [
        ("spike_weights = 0.7", "spike_weights = nan", "spike_weights"),
        ("spike_positions = -1.0 0.5", "spike_positions = -1.0 inf",
         "spike_positions"),
    ])
    def test_nonfinite_spikes_exit_2(self, tmp_path, capsys, old, new, key):
        text = """
[model]
kind = fourier
freq_cutoff = 1
dim = 2
spike_weights = 0.7
spike_positions = -1.0 0.5

[solver]
mode = stochastic
schedule = manual
alpha = 0.1
eta = 0.01
k = 5
lambda = 0.2
init = random
p = 4
"""
        cfg = write_cfg(tmp_path, text.replace(old, new, 1))
        assert main(["run", cfg, "--quiet"]) == 2
        assert key in capsys.readouterr().err


class TestReluConfig:
    def test_network_run_from_config(self, tmp_path):
        text = """
[model]
kind = relu
dim = 2
n = 128
data_seed = 3
teacher_width = 3
noise = 0.05

[solver]
mode = stochastic
schedule = manual
alpha = 0.05
eta = 0.05
k = 400
batch = 8
lambda = 0.005
seed = 4
init = random
p = 24
signs = mixed

[output]
dir = {out}
trace_every = 50
""".format(out=tmp_path / "relu_out")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg, "--quiet"]) == 0
        rows = read_trace(tmp_path / "relu_out" / "trace.csv")
        j = [float(r[1]) for r in rows]
        assert j[-1] < j[0]
        # signed weights round-trip through the measure file
        back = read_measure(tmp_path / "relu_out" / "final_measure.csv")
        assert np.any(back.signs < 0) and np.any(back.signs > 0)

    def test_bad_signs_value_exits_2(self, tmp_path, capsys):
        text = BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
        cfg = write_cfg(tmp_path, text.replace("init_mass = 0.5",
                                               "init_mass = 0.5\nsigns = odd"))
        assert main(["run", cfg, "--quiet"]) == 2
        assert "signs" in capsys.readouterr().err


class TestMeasureRoundtrip:
    def test_signed_roundtrip(self, tmp_path):
        nu = ParticleMeasure([0.5, 1.5], [[0.1], [-0.4]], signs=[1, -1])
        path = tmp_path / "m.csv"
        write_measure(path, nu)
        back = read_measure(path)
        assert np.allclose(back.weights, nu.weights)
        assert np.allclose(back.positions, nu.positions)
        assert np.array_equal(back.signs, nu.signs)


class TestWithoutScipy:
    """Only the truncated mixture needs scipy: the package and every other
    command run on numpy alone.  Each check runs in a fresh interpreter,
    as this one already holds scipy through other test modules; "blocked"
    makes every scipy import fail."""

    BLOCKED = "import sys\nsys.modules['scipy'] = None\n"

    @staticmethod
    def python(code, cwd):
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})

    def test_package_import_leaves_scipy_unloaded(self, tmp_path):
        done = self.python("import sys, fastpart, fastpart.cli\n"
                           "print('scipy.special' in sys.modules)", tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_shipped_commands_run_blocked(self, tmp_path):
        gmm, fourier = str(CONFIGS / "gmm3a_global.cfg"), str(CONFIGS / "fourier_spikes.cfg")
        commands = [["run", gmm, "--out-dir", "run"],
                    ["oracle", gmm, "--out-dir", "oracle"],
                    ["certify", gmm, "oracle/oracle_measure.csv"],
                    ["compare", str(CONFIGS / "gmm3a_compare.cfg"), "--out-dir", "compare"],
                    ["run", fourier, "--out-dir", "fourier"]]
        done = self.python(self.BLOCKED + "import json\nfrom fastpart import cli\n"
                           f"print(json.dumps([cli.main(a + ['--quiet']) for a in {commands!r}]))",
                           tmp_path)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(commands), done.stderr

    def test_truncated_mixture_blocked_exits_1_naming_scipy(self, tmp_path):
        text = BASE_GMM.format(k=5, out=tmp_path / "o", trace_every=1)
        cfg = write_cfg(tmp_path, text.replace("n = 300", "n = 300\ntrunc_width = 3.0"))
        done = self.python(self.BLOCKED + "from fastpart import cli\n"
                           f"sys.exit(cli.main(['run', {cfg!r}, '--quiet']))", tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and "scipy" in done.stderr
