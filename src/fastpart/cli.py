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
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, diagnostics
from .config import (
    ConfigError,
    build_init,
    build_model,
    build_run_config,
    parse_config,
    read_rows,
)
from .measures import ParticleMeasure
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
    signed = raw[:, 0]
    signs = np.where(signed < 0, -1.0, 1.0)
    return ParticleMeasure(np.abs(signed), raw[:, 1:], signs)


def write_data(path: Path, data: np.ndarray, note: str) -> None:
    np.savetxt(path, np.atleast_2d(data), fmt=_FMT, delimiter=",",
               header=f"fastpart data {note}", encoding="utf-8")


def _on_lattice(section: str, scan, *args):
    """``scan(*args)`` on the [section] lattice; a lattice it refuses (one
    beyond physical memory) is a config error."""
    try:
        return scan(*args)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _grid_oracle(cfg, model, lam: float):
    """``grid_oracle`` on the [oracle] lattice."""
    return _on_lattice("oracle", diagnostics.grid_oracle, model, lam, cfg.oracle_step,
                       cfg.oracle_tol, cfg.oracle_max_iter)


def _resolve_tv_star(cfg, spec, model, quiet: bool):
    """The global schedule may ask for the oracle's mass estimate; callers
    build the start first, so a start is refused before the oracle runs."""
    if spec.schedule == "global" and isinstance(spec.tv_star, str):
        if not quiet:
            print(f"computing oracle mass estimate (grid_step={cfg.oracle_step})")
        return _grid_oracle(cfg, model, spec.lam).measure.tv_norm
    return None


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if args.trace_every is not None:
        cfg.trace_every = args.trace_every
    model = build_model(cfg)
    init = build_init(cfg.solver, model)
    tv_star = _resolve_tv_star(cfg, cfg.solver, model, args.quiet)
    rc = build_run_config(cfg.solver, model, init, cfg.trace_every, tv_star)
    result = run(rc, model)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if len(cfg.variants) < 2:
        raise ConfigError("compare needs at least two [variant NAME] sections")
    model = build_model(cfg)
    base_init = build_init(cfg.solver, model)
    # every start is built once, and refused before the oracle runs
    inits = {name: build_init(spec, model) for name, spec in cfg.variants.items()}
    orc = _grid_oracle(cfg, model, cfg.solver.lam)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    j_init = diagnostics.objective(model, base_init, cfg.solver.lam)
    threshold = orc.objective + cfg.compare_threshold_frac * (j_init - orc.objective)
    if not args.quiet:
        print(f"J*={orc.objective:.6g} J0={j_init:.6g} threshold={threshold:.6g}")

    rows = []
    for name in sorted(cfg.variants):
        spec = cfg.variants[name]
        tv_star = _resolve_tv_star(cfg, spec, model, args.quiet)
        rc = build_run_config(spec, model, inits[name], cfg.trace_every, tv_star)
        result = run(rc, model)
        write_trace(out / f"{name}_trace.csv", result,
                    f"variant={name} seed={rc.seed} mode={rc.mode}")
        evals_hit = ""
        for r in result.trace:
            if r.objective <= threshold:
                evals_hit = str(r.evals)
                break
        rows.append((name, evals_hit, result.trace[-1].objective))
        if not args.quiet:
            print(f"{name}: evals_to_threshold={evals_hit or 'never'} "
                  f"final_J={result.trace[-1].objective:.6g}")

    lines = ["variant,evals_to_threshold,final_J",
             f"# fastpart compare threshold={_FMT % threshold} "
             f"oracle_J={_FMT % orc.objective}"]
    for name, evals_hit, final_j in rows:
        lines.append(f"{name},{evals_hit},{_FMT % final_j}")
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
    report = _on_lattice("certify", diagnostics.kkt_certificate, model, measure,
                         cfg.solver.lam, cfg.certify_step, cfg.certify_mass_threshold)
    ok = report.certified(cfg.certify_tol)
    if not args.quiet:
        print(f"grid_min={report.grid_min:.8g}")
        print(f"support_max_abs={report.support_max_abs:.8g}")
        print(f"grid_step={report.grid_step:.8g}")
        print(f"certified={'yes' if ok else 'no'} (tol={cfg.certify_tol:g})")
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def cmd_gen_data(args) -> int:
    try:
        problem = benchmarks.get_benchmark(args.problem)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None
    data = benchmarks.gen_data(problem, args.seed)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        raise ConfigError(f"output directory does not exist: {out.parent}")
    try:
        write_data(out, data, f"problem={problem.name} seed={args.seed} "
                              f"n={problem.n_samples}")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(data)} samples to {out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = parse_config(args.config)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    model = build_model(cfg)
    orc = _grid_oracle(cfg, model, cfg.solver.lam)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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

    p_run = sub.add_parser("run", help="run one solver configuration")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--trace-every", type=_positive_int, default=None)
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run solver variants on one problem")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--out-dir", default=None)
    p_cmp.add_argument("--quiet", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_cert = sub.add_parser("certify", help="check first-order optimality")
    p_cert.add_argument("config")
    p_cert.add_argument("measure")
    p_cert.add_argument("--quiet", action="store_true")
    p_cert.set_defaults(func=cmd_certify)

    p_gen = sub.add_parser("gen-data", help="regenerate a benchmark sample")
    p_gen.add_argument("problem")
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("out")
    p_gen.set_defaults(func=cmd_gen_data)

    p_orc = sub.add_parser("oracle", help="solve the grid-restricted problem")
    p_orc.add_argument("config")
    p_orc.add_argument("--out-dir", default=None)
    p_orc.add_argument("--quiet", action="store_true")
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
