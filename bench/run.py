"""cmlsync benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cmlsync checkout.  The benchmark imports the
package from `src/`, writes one JSON config per step, and then repeats
whole rounds of the workload (every step once, through `cmlsync.cli.main`,
single-threaded) for about S seconds, checking each round's output files.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones: rounds then alternate between untraced and traced, and the
spans of the traced rounds are written to `bench/out/` as JSONL.  See
bench/README.md for the workloads and what each metric measures.
"""
from __future__ import annotations

import os

# One thread everywhere, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 5  # at least; untraced runs also probe after every round

sys.path.insert(0, BENCH_DIR)
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import THETA_STEP, WORKLOADS, site_updates, theta_two_site  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="sweep worker threads (reference runs only)")
    p.add_argument("--probe-setup", action="store_true",
                   help="set up, print the clock, exit (measures setup_s)")
    return p.parse_args(argv)


def import_program():
    """Import cmlsync from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cmlsync", "__init__.py")):
        sys.exit(f"error: no cmlsync sources under {src}; run from the root "
                 f"of a cmlsync checkout")
    sys.path.insert(0, src)
    import cmlsync
    from cmlsync import (cli, density, evt, experiments, observables, theory,
                         ulam)
    if not os.path.abspath(cmlsync.__file__).startswith(src + os.sep):
        sys.exit(f"error: cmlsync imported from {cmlsync.__file__}")
    return {"cli": cli, "density": density, "evt": evt,
            "experiments": experiments, "observables": observables,
            "theory": theory, "ulam": ulam}


def write_call(step, base: str, argv_tail: list[str]) -> tuple:
    """Write the step's JSON config under `base`; returns the call."""
    cfg_path = os.path.join(base, f"{step.tag}.json")
    out_dir = os.path.join(base, step.tag)
    os.makedirs(out_dir, exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(step.config, fh)
    argv = [step.command, "--config", cfg_path, *argv_tail, "--out", out_dir]
    return step, argv, out_dir


def write_configs(workload: str, seed: int, threads: int) -> list[tuple]:
    """One JSON config and one output directory per step."""
    tail = ["--seed", str(seed), "--threads", str(threads)]
    return [write_call(step, os.path.join(OUT, workload), tail)
            for step in WORKLOADS[workload]]


def run_round(cli_main, calls, tracer=None) -> float:
    """Run every step once; returns the round's wall time in seconds."""
    sink = io.StringIO()  # the commands' "wrote ..." lines
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for step, argv, _ in calls:
            rc = (cli_main(argv) if tracer is None
                  else tracer.span("cli.main", cli_main, argv))
            if rc != 0:
                raise RuntimeError(f"cmlsync {' '.join(argv)} exited {rc}")
    return time.perf_counter() - t0


def check_round(calls) -> tuple[list[str], int, int, dict]:
    problems, attempted, failed, errors = [], 0, 0, {}
    for step, _, out_dir in calls:
        v = checks.verify(step, out_dir)
        problems += [f"{step.tag}: {p}" for p in v.problems]
        attempted += v.attempted
        failed += v.failed
        if v.theta is not None:
            errors[step.config["k"]] = abs(v.theta - theta_two_site(
                step.config["gamma"]))
    problems += checks.spectral_order_problems(errors)
    return problems, attempted, failed, errors


def probe_setup(args) -> float:
    """Time from spawning a fresh benchmark process to its first timed
    call: interpreter start, importing cmlsync, writing the configs."""
    t0 = time.perf_counter()  # CLOCK_MONOTONIC: shared by all processes
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--threads", str(args.threads)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


def spectral_error(cli_main) -> tuple[float, list[str]]:
    """|theta_spectral - exact| for THETA_STEP, run once outside the rounds,
    with the problems its checks found (1.0, the largest error, if theta is
    unusable)."""
    call = write_call(THETA_STEP, os.path.join(OUT, "theta"), [])
    run_round(cli_main, [call])
    problems, _, _, errors = check_round([call])
    return errors.get(THETA_STEP.config["k"], 1.0), problems


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(tracer, untraced, traced, traced_spans, args) -> dict:
    """Per-layer metrics (median over traced rounds), the module self-time
    table and the tracing overhead; spans go to bench/out/ as JSONL."""
    fits = {name: [s.seconds * 1e3 for spans in traced_spans for s in spans
                   if s.name == name]
            for name in ("evt.fit_gpd_mle", "evt.fit_gev_mle")}
    per_round = [tracing.layer_metrics(spans, fits) for spans in traced_spans]
    # the self-time table comes from one round, the median traced one, so
    # that its module times and remainder add up to that round's wall time
    mid = sorted(range(len(traced)), key=traced.__getitem__)[
        (len(traced) - 1) // 2]
    wall = traced[mid]
    untraced_wall = statistics.median(untraced)
    self_s = tracing.self_times(traced_spans[mid])
    self_s.pop("bench")
    modules = sorted(self_s)
    summary = {
        "workload": args.workload, "seed": args.seed,
        "traced_wall_s": wall, "untraced_wall_s": untraced_wall,
        "overhead_s": wall - untraced_wall,
        "module_self_s": self_s,
        "remainder_s": wall - sum(self_s.values()),
    }
    base = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    tracer.write_jsonl(base + ".jsonl")
    with open(base + ".json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    for m in modules:
        print(f"# self {m:<12} {self_s[m]:10.4f} s "
              f"{self_s[m] / wall:7.1%}")
    print(f"# traced wall_s {wall:.4f}, untraced {untraced_wall:.4f}, "
          f"overhead {wall - untraced_wall:+.4f} s, remainder outside the "
          f"modules {summary['remainder_s']:.4f} s")
    return {name: metric(statistics.median(r[name] for r in per_round),
                         tracing.UNITS[name])
            for name in tracing.UNITS}


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_program()
    calls = write_configs(args.workload, args.seed, args.threads)
    if args.probe_setup:
        print(time.perf_counter())
        return 0

    cli_main = modules["cli"].main
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}", modules)
    untraced, traced, traced_spans, setup = [], [], [], []
    problems, attempted, failed, errors = [], 0, 0, {}
    start = time.perf_counter()
    while True:
        if args.trace and len(untraced) > len(traced):
            first = len(tracer.spans)
            tracer.install()
            try:
                wall = tracer.span("bench.round", run_round, cli_main, calls,
                                   tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            traced_spans.append(tracer.spans[first:])
        else:
            wall = run_round(cli_main, calls)
            untraced.append(wall)
            # spread over the run, so setup_s sees the same host as the
            # rounds; its time is left out of the measured window
            setup.append(probe_setup(args))
        p, a, f, errors = check_round(calls)
        problems += p
        attempted += a
        failed += f
        done = len(untraced) >= 1 and (len(traced) >= 1 or not args.trace)
        elapsed = time.perf_counter() - start - sum(setup)
        if done and elapsed + wall > args.seconds:
            break
    print(f"# {args.workload} seed={args.seed}: round wall_s untraced "
          f"{[round(t, 4) for t in untraced]}, traced "
          f"{[round(t, 4) for t in traced]}")

    if args.trace:
        metrics = traced_metrics(tracer, untraced, traced, traced_spans,
                                 args)
    else:
        # read before the spectral reference below, which is not the workload
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            * 1024 / 1e6
        while len(setup) < SETUP_PROBES:
            setup.append(probe_setup(args))
        wall_s = statistics.median(untraced)
        updates = sum(site_updates(step) for step, _, _ in calls)
        if THETA_STEP in WORKLOADS[args.workload]:
            theta_err = errors[THETA_STEP.config["k"]]
        else:
            theta_err, p = spectral_error(cli_main)
            problems += p
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "site_updates_per_s": metric(updates / wall_s, "1/s"),
            "theta_abs_err_spectral": metric(theta_err, "1"),
        }
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
