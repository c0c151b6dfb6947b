"""The benchmark's workloads, its layer catalogue and the layer-size sweep.

A workload has a ``request`` that the loop in run.py issues back to back
(closed loop) until the time budget is spent, each after
``setup_repeats`` timed calls of its ``setup``.  A request times its
calls with a ``_Clock``, which runs the speed probe (speed.py) after
each timed segment through ``pause(seconds)``; the workload names the
probe kernels that match it in ``probe_kernels``.  A request returns a
``Record``; it raises ``CheckFailed`` when an output is wrong.
Only seeds derived from the workload seed reach the program.
"""
from __future__ import annotations

import configparser
import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fastpart import benchmarks, cli, diagnostics, optimizer, stochastic
from fastpart.measures import CesaroTracker, grid_points, uniform_grid_measure
from fastpart.models.base import GroundTruth
from fastpart.models.gmm import GaussianMixtureModel, sample_mixture_data
from fastpart.optimizer import RunConfig, mass_radii


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Record:
    """What one request measured and produced.  Intervals are (start, end)
    in ``time.perf_counter`` seconds."""

    calls: list[list[tuple[float, float]]]  # segments of each user-visible call
    solves: list[tuple[float, float]]   # each solver run
    evals: int                          # the solver's own evaluation counter
    final_j: list[float]                # exact objective of each final iterate
    fingerprint: bytes                  # outputs with wall_ns stripped
    setups: list[tuple[float, float]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)   # name -> value
    traced: bool = False
    warmup: bool = False                # the run's first request: not timed


def _fmt(x):
    return f"{x:.17g}"


def _result_bytes(res) -> bytes:
    """Trace rows without wall_ns, then the final and Cesaro measures, as
    CSV text."""
    rows = [f"{r.k},{_fmt(r.objective)},{_fmt(r.tv)},{_fmt(r.local_j2)},"
            f"{_fmt(r.local_g2)},{r.evals}" for r in res.trace]
    for m in (res.measure, res.cesaro):
        if m is not None:
            rows += [",".join(_fmt(c) for c in (w, *x))
                     for w, x in zip(m.signed_weights, m.positions)]
    rows.append(res.status)
    return ("\n".join(rows) + "\n").encode()


class _Clock:
    """Wall-time segments of one call, split by speed-probe pauses that
    are not part of any segment."""

    def __init__(self, pause):
        self.pause = pause
        self.segments = []
        self.mark = time.perf_counter()

    def split(self):
        """End the current segment, run the probe, start the next one."""
        now = time.perf_counter()
        self.segments.append((self.mark, now))
        self.pause(now - self.mark)
        self.mark = time.perf_counter()
        return self.segments[-1]


def _timed_run(cfg, model, pause):
    clock = _Clock(pause)
    res = optimizer.run(cfg, model)
    return res, clock.split()


# ----- tiny_seed_sweep -----------------------------------------------------------


class TinySeedSweep:
    """Criterion 1's truncated-mixing problem, one ``run`` per seed.

    A request is a sweep of ``SEEDS_PER_REQUEST`` seeds; each seed's
    ``run`` is one latency sample.  The trace holds the endpoints only.
    """

    name = "tiny_seed_sweep"
    probe_kernels = ("dispatch",)
    setup_repeats = 5
    min_requests = 2
    SEEDS_PER_REQUEST = 10
    LAM = 0.25

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed

    def setup(self):
        truth = GroundTruth(weights=[0.5, 0.5], positions=[-0.4, 0.4])
        data = sample_mixture_data(truth, 0.5, 300, np.random.default_rng(7),
                                   trunc_width=3.0)
        model = GaussianMixtureModel(data, bandwidth=1.0, mixing_scale=0.5,
                                     radius=1.0, trunc_width=3.0)
        model.y_norm_sq
        init = uniform_grid_measure(1.0, 1, 0.5, 1.0)
        radii = mass_radii(model, self.LAM, init)
        # run() checks every iterate's mass against R0 under exactly these
        # conditions; the sweep's mass check relies on that guard
        if not (radii.hypothesis_ok and math.isfinite(radii.R0)):
            raise CheckFailed("mass-bound hypothesis does not hold")
        return model, init, radii

    def request(self, problem, i, pause):
        model, init, radii = problem
        runs, out, evals, finals = [], [], 0, []
        for j in range(self.SEEDS_PER_REQUEST):
            solver_seed = self.seed * 1_000_003 + i * self.SEEDS_PER_REQUEST + j
            cfg = RunConfig(alpha=0.5, eta=1e-3, iterations=2000, lam=self.LAM,
                            init=init, seed=solver_seed, trace_every=2000)
            res, span = _timed_run(cfg, model, pause)
            if res.status != "ok":
                raise CheckFailed(f"seed {solver_seed}: status {res.status}")
            worst = max(r.tv for r in res.trace)
            if worst > radii.R0 + 1e-12:
                raise CheckFailed(f"seed {solver_seed}: mass {worst} > R0 {radii.R0}")
            runs.append(span)
            evals += res.evals
            finals.append(res.trace[-1].objective)
            out.append(_result_bytes(res))
        return Record(calls=[[r] for r in runs], solves=runs, evals=evals,
                      final_j=finals,
                      fingerprint=b"".join(out))


# ----- wide_cloud -----------------------------------------------------------------


class WideCloud:
    """gmm3a with a 1001-particle grid cloud and batches of 64, Cesaro on."""

    name = "wide_cloud"
    probe_kernels = ("arithmetic",)
    setup_repeats = 1
    min_requests = 20
    ITERATIONS = 150

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed

    def setup(self):
        problem = benchmarks.get_benchmark("gmm3a")
        model = benchmarks.build_model(problem)
        model.y_norm_sq
        model.bounds()
        init = uniform_grid_measure(problem.radius, 1, 0.002, problem.init_mass)
        if init.size != 1001:
            raise CheckFailed(f"grid cloud has {init.size} particles, not 1001")
        return model, init, problem.lam

    def request(self, problem, i, pause):
        model, init, lam = problem
        cfg = RunConfig(alpha=0.2, eta=1e-4, iterations=self.ITERATIONS, lam=lam,
                        init=init, seed=self.seed * 1_000_003 + i,
                        batch_schedule=64, cesaro=True,
                        trace_every=self.ITERATIONS)
        res, span = _timed_run(cfg, model, pause)
        if res.status != "ok":
            raise CheckFailed(f"status {res.status}")
        if not all(math.isfinite(v) for r in res.trace
                   for v in (r.objective, r.tv, r.local_j2, r.local_g2)):
            raise CheckFailed("trace holds a non-finite value")
        j0, j_end = res.trace[0].objective, res.trace[-1].objective
        if not j_end < j0:
            raise CheckFailed(f"final J {j_end} is not below initial J {j0}")
        return Record(calls=[[span]], solves=[span], evals=res.evals, final_j=[j_end],
                      fingerprint=_result_bytes(res))


# ----- gmm3a_compare ------------------------------------------------------------------


def _strip_wall(text: str) -> str:
    """Drop the last (wall_ns) column of a trace CSV."""
    return "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                     for line in text.splitlines()) + "\n"


def _cli(argv, pause):
    """fastpart's CLI in-process; returns (exit code, stdout, segments)."""
    buf = io.StringIO()
    clock = _Clock(pause)
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    clock.split()
    return code, buf.getvalue(), clock.segments


class Gmm3aCompare:
    """The shipped compare config through ``compare``, ``oracle``, ``certify``.

    The solver seed of request i comes from the workload seed.  A wrapper
    on ``fastpart.cli.run`` splits the ``compare`` call's clock before and
    after each solver run, so the speed probe runs between them, and the
    request's set-up is the segment before the first run.  Set-up is paid
    inside every ``compare`` call, so ``setup`` is never called on its own.
    """

    name = "gmm3a_compare"
    probe_kernels = ("dispatch", "arithmetic")
    setup_repeats = 0
    min_requests = 3
    CONFIG = Path("configs") / "gmm3a_compare.cfg"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.source = root / self.CONFIG

    def _config(self, solver_seed: int) -> Path:
        parser = configparser.ConfigParser(interpolation=None)
        with open(self.source, encoding="utf-8") as fh:
            parser.read_file(fh)
        parser["solver"]["seed"] = str(solver_seed)
        path = self.workdir / f"compare_{solver_seed}.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        return path

    def request(self, problem, i, pause):
        solver_seed = self.seed * 1_000_003 + i
        cfg = str(self._config(solver_seed))
        out = self.workdir / f"out_{solver_seed}"
        clock, solves = _Clock(pause), []
        run = cli.run   # the tracer's wrapper in a traced request

        def run_between_pauses(*args, **kwargs):
            clock.split()
            try:
                return run(*args, **kwargs)
            finally:
                solves.append(clock.split())

        cli.run = run_between_pauses
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["compare", cfg, "--out-dir", str(out), "--quiet"])
            clock.split()
        finally:
            cli.run = run
        if code != 0:
            raise CheckFailed(f"compare exited {code}")
        if len(solves) != 2:
            raise CheckFailed(f"compare made {len(solves)} solver runs, not 2")

        table = (out / "comparison.csv").read_text(encoding="utf-8")
        threshold = float(table.splitlines()[1].split("threshold=")[1].split()[0])
        rows = {line.split(",")[0]: line.split(",")
                for line in table.splitlines()[2:]}
        traces, extra, evals = {}, {}, 0
        for variant in ("exact", "stochastic"):
            text = (out / f"{variant}_trace.csv").read_text(encoding="utf-8")
            traces[variant] = text
            body = [line.split(",") for line in text.splitlines()[2:]]
            evals += int(body[-1][5])
            hit = next((r for r in body if float(r[1]) <= threshold), None)
            if hit is None or not rows[variant][1]:
                raise CheckFailed(f"{variant} never reached the threshold")
            extra[f"evals_to_threshold_{variant}"] = int(rows[variant][1])
            extra[f"tt_threshold_{variant}_s"] = int(hit[6]) * 1e-9
        if extra["evals_to_threshold_exact"] < 2 * extra["evals_to_threshold_stochastic"]:
            raise CheckFailed("exact baseline needs fewer than 2x the "
                              "stochastic evaluations")

        code, text, _ = _cli(["oracle", cfg, "--out-dir", str(out)], pause)
        if code != 0 or "unconverged" in text:
            raise CheckFailed(f"oracle exited {code}: {text.strip()}")
        measure = out / "oracle_measure.csv"
        code, text, segments = _cli(["certify", cfg, str(measure)], pause)
        if code != 0 or "certified=yes" not in text:
            raise CheckFailed(f"certify exited {code}: {text.strip()}")
        extra["certify_s"] = sum(end - start for start, end in segments)

        blob = "".join([_strip_wall(traces["exact"]), _strip_wall(traces["stochastic"]),
                        table, measure.read_text(encoding="utf-8")]).encode()
        return Record(calls=[clock.segments], solves=solves, evals=evals,
                      final_j=[float(rows["exact"][2])], fingerprint=blob,
                      setups=clock.segments[:1], extra=extra)


WORKLOADS = {w.name: w for w in (TinySeedSweep, Gmm3aCompare, WideCloud)}


# ----- layer catalogue ----------------------------------------------------------------

def _pairs(args, result):
    # minibatch_fields(model, measure, points, lam, batch)
    return {"pairs": len(args[2]) * args[4].size}


def _oracle_counts(args, result):
    # grid_oracle(model, lam, grid_step, ...): the n x n lattice gram
    model, grid_step = args[0], args[2]
    n = len(grid_points(model.radius, model.dim, grid_step))
    return {"iterations": result.iterations, "gram_mb": n * n * 8e-6}


# span name -> [(owner, attribute)] where callers look the name up; counts
LAYERS = [
    ("optimizer.run", [(optimizer, "run"), (cli, "run")], None),
    ("optimizer.step", [(optimizer, "step")], None),
    ("stochastic.draw_batch", [(optimizer, "draw_batch")], None),
    ("stochastic.minibatch_fields", [(optimizer, "minibatch_fields")], _pairs),
    ("stochastic.exact_fields", [(optimizer, "exact_fields")], None),
    ("models.surrogate_fields", [(GaussianMixtureModel, "surrogate_fields")], None),
    ("models.data_fit", [(GaussianMixtureModel, "data_fit")], None),
    ("models.gram_bundle", [(GaussianMixtureModel, "gram_bundle")], None),
    ("models.finalize_positions", [(GaussianMixtureModel, "finalize_positions")], None),
    ("models.contains", [(GaussianMixtureModel, "contains")], None),
    ("models.y_norm_sq", [(GaussianMixtureModel, "y_norm_sq")], None),
    ("models.bounds", [(GaussianMixtureModel, "_bounds")], None),
    ("diagnostics.trace_stats", [(diagnostics, "trace_stats")], None),
    ("diagnostics.grid_oracle", [(diagnostics, "grid_oracle")], _oracle_counts),
    ("diagnostics.kkt_certificate", [(diagnostics, "kkt_certificate")], None),
    ("diagnostics.objective", [(diagnostics, "objective")], None),
    ("measures.CesaroTracker.record", [(CesaroTracker, "record")], None),
    ("measures.cesaro_average", [(optimizer, "cesaro_average")], None),
    ("benchmarks.build_model", [(benchmarks, "build_model")], None),
    ("config.parse_config", [(cli, "parse_config")], None),
    ("config.build_model", [(cli, "build_model")], None),
    ("config.build_run_config", [(cli, "build_run_config")], None),
    ("cli.write_trace", [(cli, "write_trace")], None),
    ("cli.write_measure", [(cli, "write_measure")], None),
]


def install_layers(tracer):
    for name, sites, count in LAYERS:
        for owner, attr in sites:
            tracer.patch(owner, attr, name, count)


# ----- layer-size sweep ------------------------------------------------------------------

SWEEP_P = (5, 101, 1001)
SWEEP_M = (1, 16, 256)


def _per_call_us(fn, budget_s=0.12, min_calls=5):
    """Median wall time of repeated calls, in microseconds."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < end:
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times)) * 1e-3


def layer_sweep(seed: int) -> dict:
    """Direct calls into the estimator layer and trace_stats on gmm3a."""
    problem = benchmarks.get_benchmark("gmm3a")
    model = benchmarks.build_model(problem)
    model.y_norm_sq
    rng = np.random.default_rng(seed)
    out = {}
    for p in SWEEP_P:
        nu = uniform_grid_measure(problem.radius, 1, 2.0 / (p - 1), problem.init_mass)
        pos = nu.positions
        for m in SWEEP_M:
            cell = f"p{p}_m{m}"
            batch = stochastic.draw_batch(model, nu, m, rng)
            us = _per_call_us(lambda: stochastic.minibatch_fields(
                model, nu, pos, problem.lam, batch))
            out[f"sweep.minibatch_fields.{cell}.us"] = (us, "us")
            out[f"sweep.minibatch_fields.{cell}.evals_per_s"] = (
                optimizer.STOCHASTIC_EVALS_PER_POINT * m * p / (us * 1e-6), "1/s")
            us = _per_call_us(lambda: stochastic.draw_batch(model, nu, m, rng))
            out[f"sweep.draw_batch.{cell}.us"] = (us, "us")
        exact_evals = 2 * (p * p * model.cost_kernel + p * model.cost_inner_y)
        for fname, fn in (("exact_fields", lambda: stochastic.exact_fields(
                              model, nu, pos, problem.lam)),
                          ("trace_stats", lambda: diagnostics.trace_stats(
                              model, nu, problem.lam))):
            us = _per_call_us(fn)
            out[f"sweep.{fname}.p{p}.us"] = (us, "us")
            out[f"sweep.{fname}.p{p}.evals_per_s"] = (exact_evals / (us * 1e-6), "1/s")
    return out
