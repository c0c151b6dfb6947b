"""Command-line experiment runner.

Subcommands: ``run`` (one solver configuration, traces to CSV),
``compare`` (several solver variants on one problem plus a summary),
``certify`` (first-order optimality check of a measure file),
``gen-data`` (regenerate a benchmark sample) and ``oracle`` (solve the
grid-restricted problem).  Exit codes: 0 success, 1 runtime failure,
2 configuration or parse error, 3 certification failed.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, diagnostics
from .config import (
    ConfigError,
    benchmark_problem,
    build_init,
    build_model,
    build_run_config,
    on_lattice,
    parse_config,
    read_rows,
)
from .measures import ParticleMeasure, signed_measure
from .optimizer import RunResult, run

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NOT_CERTIFIED = 3


_FMT = "%.17g"  # every float a CSV writes: enough digits to read back its bits


def write_trace(path: Path, result: RunResult, header_note: str) -> None:
    rows = [(r.k, r.objective, r.tv, r.local_j2, r.local_g2, r.evals, r.wall_ns)
            for r in result.trace]
    np.savetxt(path, rows, fmt=_FMT, delimiter=",", comments="", encoding="utf-8",
               header="k,J,tv,local_j2,local_g2,evals,wall_ns\n"
                      f"# fastpart trace {header_note}")


def write_measure(path: Path, measure: ParticleMeasure) -> None:
    header = "weight," + ",".join(f"x{i}" for i in range(measure.dim))
    np.savetxt(path, np.column_stack([measure.signed_weights, measure.positions]),
               fmt=_FMT, delimiter=",", header=header, comments="", encoding="utf-8")


def read_measure(path: Path) -> ParticleMeasure:
    try:
        header = path.read_text(encoding="utf-8").splitlines()[0]
    except (OSError, IndexError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read measure file {path}: {exc}") from exc
    n_cols = len(header.split(","))
    if n_cols < 2 or not header.startswith("weight"):
        raise ConfigError(f"measure file {path} needs a weight,x0,... header")
    raw = read_rows(path, "measure file", "atom", skiprows=1)
    if raw.size == 0:
        # a null measure is a legal certification target
        return ParticleMeasure(np.empty(0), np.empty((0, n_cols - 1)))
    if raw.shape[1] != n_cols:
        raise ConfigError(f"measure file {path} rows do not match its header")
    return signed_measure(raw[:, 0], raw[:, 1:])


def write_data(path: Path, data: np.ndarray, note: str) -> None:
    np.savetxt(path, np.atleast_2d(data), fmt=_FMT, delimiter=",",
               header=f"fastpart data {note}", encoding="utf-8")


def _oracle(cfg, model, quiet: bool):
    """lambda -> ``grid_oracle`` on the [oracle] lattice, solved once per
    lambda for the command that made it, each solve announced unless quiet."""
    @functools.cache
    def solve(lam: float):
        if not quiet:
            print(f"solving grid oracle at lambda={lam:g} grid_step={cfg.oracle_step:g}")
        return on_lattice("oracle", diagnostics.grid_oracle, model, lam, cfg.oracle_step,
                          cfg.oracle_tol, cfg.oracle_max_iter)
    return solve


def _run_configs(cfg, model, specs: dict, oracle) -> dict:
    """Label -> RunConfig, built in label order once every start is built:
    a start is refused before any oracle runs, a run before any is solved."""
    inits = {name: build_init(spec, model) for name, spec in specs.items()}
    return {name: build_run_config(specs[name], model, inits[name], cfg.trace_every,
                                   lambda lam: oracle(lam).measure.tv_norm)
            for name in sorted(specs)}


def _out_dir(args, cfg) -> Path:
    """--out-dir, else [output] dir, made; one it cannot make is a config error."""
    out = Path(args.out_dir or cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from None
    return out


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.trace_every is not None:
        cfg.trace_every = args.trace_every
    model = build_model(cfg)
    oracle = _oracle(cfg, model, args.quiet)
    rc = _run_configs(cfg, model, {"solver": cfg.solver}, oracle)["solver"]
    out = _out_dir(args, cfg)
    result = run(rc, model)
    note = f"seed={rc.seed} mode={rc.mode} status={result.status}"
    write_trace(out / "trace.csv", result, note)
    write_measure(out / "final_measure.csv", result.measure)
    if result.cesaro is not None:
        write_measure(out / "cesaro_measure.csv", result.cesaro)
    if not args.quiet:
        last = result.trace[-1]
        print(f"status={result.status} k={last.k} J={last.objective:.6g} "
              f"tv={last.tv:.6g} evals={last.evals}")
        print(f"wrote {out / 'trace.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = parse_config(args.config)
    if len(cfg.variants) < 2:
        raise ConfigError("compare needs at least two [variant NAME] sections")
    for spec in cfg.variants.values():
        if spec.lam != cfg.solver.lam:
            raise ConfigError(f"key 'lambda' in [{spec.section}] is {spec.lam:g}, but "
                              f"compare scores every variant against the oracle "
                              f"at [solver] lambda {cfg.solver.lam:g}; set it there")
    model = build_model(cfg)
    oracle = _oracle(cfg, model, args.quiet)
    base_init = build_init(cfg.solver, model)
    rcs = _run_configs(cfg, model, cfg.variants, oracle)
    orc = oracle(cfg.solver.lam)  # solved already if a variant's mass asked for it
    out = _out_dir(args, cfg)
    j_init = diagnostics.objective(model, base_init, cfg.solver.lam)
    threshold = orc.objective + cfg.compare_threshold_frac * (j_init - orc.objective)
    if not args.quiet:
        print(f"J*={orc.objective:.6g} J0={j_init:.6g} threshold={threshold:.6g}")

    lines = ["variant,evals_to_threshold,final_J",
             f"# fastpart compare threshold={_FMT % threshold} "
             f"oracle_J={_FMT % orc.objective}"]
    for name, rc in rcs.items():
        result = run(rc, model)
        write_trace(out / f"{name}_trace.csv", result,
                    f"variant={name} seed={rc.seed} mode={rc.mode} status={result.status}")
        hit = next((str(r.evals) for r in result.trace if r.objective <= threshold), "")
        lines.append(f"{name},{hit},{_FMT % result.trace[-1].objective}")
        if not args.quiet:
            print(f"{name}: evals_to_threshold={hit or 'never'} "
                  f"final_J={result.trace[-1].objective:.6g}")
    (out / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    measure = read_measure(Path(args.measure))
    if measure.dim != model.dim:
        raise ConfigError(
            f"measure dimension {measure.dim} does not match model dimension {model.dim}"
        )
    report = on_lattice("certify", diagnostics.kkt_certificate, model, measure,
                        cfg.solver.lam, cfg.certify_step, cfg.certify_mass_threshold)
    ok = report.certified(cfg.certify_tol)
    if not args.quiet:
        print(f"grid_min={report.grid_min:.8g}")
        print(f"support_max_abs={report.support_max_abs:.8g}")
        print(f"grid_step={report.grid_step:.8g}")
        print(f"certified={'yes' if ok else 'no'} (tol={cfg.certify_tol:g})")
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def cmd_gen_data(args) -> int:
    problem = benchmark_problem(args.problem)
    if args.seed < 0:
        raise ConfigError(f"gen-data seed must be an integer >= 0, got {args.seed}")
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ConfigError(f"output path {out.parent} is not a directory")
    if out.is_dir():
        raise ConfigError(f"output path {out} is a directory")
    data = benchmarks.gen_data(problem, args.seed)
    write_data(out, data, f"problem={problem.name} seed={args.seed} "
                          f"n={problem.n_samples}")
    print(f"wrote {len(data)} samples to {out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    # the directory comes after the solve, whose lattice refusal is a config error
    orc = _oracle(cfg, model, args.quiet)(cfg.solver.lam)
    out = _out_dir(args, cfg)
    write_measure(out / "oracle_measure.csv", orc.measure)
    if not args.quiet:
        flag = "" if orc.converged else " (unconverged)"
        print(f"J_star={orc.objective:.12g}{flag}")
        print(f"kkt_residual={orc.kkt_residual:.6g} iterations={orc.iterations}")
        print(f"tv={orc.measure.tv_norm:.12g} atoms={orc.measure.size}")
        print(f"wrote {out / 'oracle_measure.csv'}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastpart",
        description="stochastic conic particle descent for sparse measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments several subcommands share, each declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("config")
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=None)
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", parents=[config, out_dir, quiet],
                           help="run one solver configuration")
    p_run.add_argument("--trace-every", type=_positive_int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", parents=[config, out_dir, quiet],
                           help="run solver variants on one problem")
    p_cmp.set_defaults(func=cmd_compare)

    p_cert = sub.add_parser("certify", parents=[config, quiet],
                            help="check first-order optimality")
    p_cert.add_argument("measure")
    p_cert.set_defaults(func=cmd_certify)

    p_gen = sub.add_parser("gen-data", help="regenerate a benchmark sample")
    p_gen.add_argument("problem")
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("out")
    p_gen.set_defaults(func=cmd_gen_data)

    p_orc = sub.add_parser("oracle", parents=[config, out_dir, quiet],
                           help="solve the grid-restricted problem")
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
