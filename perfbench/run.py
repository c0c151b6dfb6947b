"""fastpart wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Prints a run record and a table of metrics, then as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` measures the end-to-end metrics untraced,
with times scaled to a reference machine speed (speed.py); ``--trace 1``
alternates untraced and traced requests for S seconds, then runs the
layer-size sweep, and reports per-layer metrics.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: on a few shared vCPUs a second thread measures the
# host's scheduler.  BLAS reads the count when numpy loads, so set it
# before any import
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# time the speed probe runs after each call, as a share of the call's
PROBE_SHARE = 0.15

END_TO_END = {  # name -> unit, in BENCHMARK.json order
    "setup_s": "s", "solve_s": "s", "evals_per_s": "1/s", "run_ms_p50": "ms",
    "final_J": "objective", "peak_rss_mb": "MB",
}
# printed but not gated: a gated metric must be reported by every workload
# and be steady; see README.md
EXTRA_UNITS = {"wall_setup_s": "s", "wall_solve_s": "s", "wall_evals_per_s": "1/s",
               "wall_run_ms_p50": "ms", "speed_factor": "ratio", "run_ms_tail": "ms",
               "tt_threshold_stochastic_s": "s", "tt_threshold_exact_s": "s",
               "evals_to_threshold_stochastic": "count",
               "evals_to_threshold_exact": "count", "certify_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_record(args):
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "nproc": NPROC, "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, else the max.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(wl, seconds, probe, tracer=None):
    """Issue requests back to back for ``seconds``, each after a fresh set-up.

    Set-up runs ``wl.setup_repeats`` times before every request, so its
    samples spread over the whole run like the requests' own.  With a
    tracer, every second request (with its set-up) runs traced, so traced
    and untraced requests see the same machine.  The speed probe runs
    once before the first request and then after each call, for
    ``PROBE_SHARE`` of the call's time.  The first request warms up: it
    is checked but not timed.
    Returns (records, failure messages, attempted, peak RSS in MB after
    the first request: the footprint of one request in a fresh process).
    """
    from workloads import CheckFailed, install_layers
    records, failures, attempted, peak_mb = [], [], 0, None

    def pause(call_s):
        probe.pause(PROBE_SHARE * call_s)

    probe.pause(0.1)
    deadline = time.perf_counter() + seconds
    while attempted <= wl.min_requests or time.perf_counter() < deadline:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            install_layers(tracer)
        probe_before = probe.busy_s
        try:
            with tracer.span("bench.request") if traced else contextlib.nullcontext():
                setups, problem = [], None
                for _ in range(wl.setup_repeats):
                    t0 = time.perf_counter()
                    problem = wl.setup()
                    setups.append((t0, time.perf_counter()))
                rec = wl.request(problem, attempted - 1, pause)
            rec.setups += setups
            rec.traced = traced
            rec.warmup = attempted == 1
            records.append(rec)
            if peak_mb is None:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except CheckFailed as exc:
            failures.append(f"check failed: {exc}")
        except Exception as exc:  # the program raised: a failed request
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
                tracer.probe_ns += round((probe.busy_s - probe_before) * 1e9)
    return records, failures, attempted, peak_mb


def end_to_end(wl, records, peak_mb, probe):
    """Metrics over the timed (untraced, not warm-up) records; final_J and
    the fingerprint over the first ``min_requests`` records, traced or
    not.  Each interval is scaled to the reference machine speed by the
    probe (speed.py); the unscaled medians come back as ``wall_*`` extras.
    """
    head = records[:wl.min_requests]
    timed = [r for r in records if not (r.traced or r.warmup)]

    def wall(iv):
        return iv[1] - iv[0]

    def scaled(iv):
        return (iv[1] - iv[0]) * probe.scale(*iv)

    out = {}
    for kind, length in (("wall_", wall), ("", scaled)):
        calls = [sum(map(length, call)) for r in timed for call in r.calls]
        solve = [sum(length(iv) for iv in r.solves) for r in timed]
        out[kind] = {
            "setup_s": statistics.median(length(iv) for r in timed for iv in r.setups),
            "solve_s": statistics.median(solve),
            "evals_per_s": statistics.median(r.evals / s for r, s in zip(timed, solve)),
            "run_ms_p50": statistics.median(calls) * 1e3,
        }
    tail_value, tail_pct, n = tail([sum(map(scaled, call))
                                    for r in timed for call in r.calls])
    metrics = dict(out[""], final_J=statistics.median(j for r in head for j in r.final_j),
                   peak_rss_mb=peak_mb)
    extra = {f"wall_{k}": v for k, v in out["wall_"].items()}
    extra["speed_factor"] = probe.overall()
    extra["run_ms_tail"] = tail_value * 1e3
    extra.update((k, statistics.median(r.extra[k] for r in timed))
                 for k in EXTRA_UNITS if k in timed[0].extra)
    digest = hashlib.sha256(b"".join(r.fingerprint for r in head)).hexdigest()
    return metrics, extra, (tail_pct, n), digest


def per_layer(tracer, overhead):
    from workloads import LAYERS
    selfs = tracer.self_times()
    # traced wall time: the requests that ran traced, with their set-up,
    # less the speed probe's pauses inside them
    root_ns = max(1, sum(end - start for name, start, end, _ in tracer.spans
                         if name == "bench.request") - tracer.probe_ns)
    out = {}
    covered = 0
    for name, _, _ in LAYERS:
        calls, self_ns = selfs.get(name, (0, 0))
        covered += self_ns
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_us"] = (self_ns / calls * 1e-3 if calls else 0.0, "us")
        out[f"{name}.share"] = (self_ns / root_ns, "ratio")
    calls = selfs.get("stochastic.minibatch_fields", (0, 0))[0]
    pairs = tracer.counts.get("stochastic.minibatch_fields.pairs", 0)
    out["stochastic.minibatch_fields.pairs"] = (pairs / calls if calls else 0.0, "count")
    calls = selfs.get("diagnostics.grid_oracle", (0, 0))[0]
    for key, unit in (("iterations", "count"), ("gram_mb", "MB-computed")):
        total = tracer.counts.get(f"diagnostics.grid_oracle.{key}", 0)
        out[f"diagnostics.grid_oracle.{key}"] = (total / calls if calls else 0.0, unit)
    out["trace.covered_frac"] = (covered / root_ns, "ratio")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fastpart").is_dir():
        print(f"error: no fastpart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir, workloads, Tracer, SpeedProbe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, workloads, Tracer, SpeedProbe):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
    for key, value in run_record(args).items():
        print(f"record {key}={value}")

    tracer = Tracer() if args.trace else None
    probe = SpeedProbe(wl.probe_kernels)
    records, failures, attempted, peak_mb = measure(wl, args.seconds, probe, tracer)
    if tracer is not None:
        spans_file = ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.npz"
        tracer.write(spans_file)
        print(f"spans written to {spans_file.relative_to(ROOT)}")

    failed = len(failures)
    for msg in failures:
        print(f"FAILED {msg}")
    if not any(not (r.traced or r.warmup) for r in records):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 0

    metrics, extra, (tail_pct, n), digest = end_to_end(wl, records, peak_mb, probe)
    print(f"fingerprint sha256={digest} (first {wl.min_requests} requests)")
    label = {"run_ms_tail": f"  (p{tail_pct:.1f} of {n} samples)",
             "run_ms_p50": f"  ({n} samples)"}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {END_TO_END[name]}{label.get(name, '')}")
    for name, value in extra.items():
        print(f"metric {name} = {value:.6g} {EXTRA_UNITS[name]}{label.get(name, '')}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} requests)")

    if tracer is None:
        result = {name: {"value": value, "unit": END_TO_END[name]}
                  for name, value in metrics.items()}
    else:
        traced = [sum(end - start for start, end in call)
                  for r in records if r.traced for call in r.calls]
        overhead = (statistics.median(traced) / (extra["wall_run_ms_p50"] * 1e-3) - 1.0
                    if traced else 0.0)
        layers = per_layer(tracer, overhead)
        layers.update(workloads.layer_sweep(args.seed))
        for name, (value, unit) in layers.items():
            print(f"layer {name} = {value:.6g} {unit}")
        result = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in layers.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
