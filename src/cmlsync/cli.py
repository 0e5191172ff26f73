"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments, theory, ulam
from .errors import CmlSyncError, ConfigError
from .lattice import (
    LocalMap,
    MapSpec,
    NoiseSpec,
    TrajectoryConfig,
    export_trajectory_csv,
    simulate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(args) -> dict:
    """Flat key-value JSON file, overridden by --seed/--threads/--out."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.threads is not None:
        raw["threads"] = args.threads
    if args.out is not None:
        raw["out_dir"] = args.out
    return raw


def _experiment_config(raw: dict, **overrides) -> experiments.ExperimentConfig:
    merged = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    merged.pop("out_dir", None)
    return experiments.ExperimentConfig.from_dict(merged)


def _out_dir(raw: dict, default: str) -> str:
    out = raw.get("out_dir") or default
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args, raw) -> int:
    n = int(raw.pop("n", 2))
    gamma = float(raw.pop("gamma", 0.0))
    slope = int(raw.pop("slope", 3))
    length = int(raw.pop("length", 10_000))
    epsilon = float(raw.pop("epsilon", 0.0))
    burn_in = int(raw.pop("burn_in", 1000))
    seed = int(raw.pop("seed", 0))
    out = _out_dir(raw, "simulate_out")
    raw.pop("threads", None)
    raw.pop("out_dir", None)
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    spec = MapSpec(LocalMap.affine_mod1(slope), n, gamma)
    traj = simulate(TrajectoryConfig(spec, length, NoiseSpec(epsilon),
                                     burn_in=burn_in, seed=seed))
    path = os.path.join(out, "trajectory.csv")
    export_trajectory_csv(traj, path)
    print(f"wrote {path} ({length} steps, n={n}, gamma={gamma})")
    return EXIT_OK


def cmd_ei_sweep(args, raw) -> int:
    out = raw.pop("out_dir", None) or "ei_sweep_out"
    config = _experiment_config(raw)
    for warning in config.warnings():
        print(f"warning: {warning}", file=sys.stderr)
    os.makedirs(out, exist_ok=True)
    result = experiments.run_ei_sweep(config)
    path = os.path.join(out, "ei_sweep.csv")
    experiments.export_sweep_csv(result, path)
    print(f"wrote {path} ({len(result.rows)} rows + "
          f"{len(result.aggregates)} aggregates)")
    return EXIT_OK


def cmd_gev_sweep(args, raw) -> int:
    out = raw.pop("out_dir", None) or "gev_sweep_out"
    block_size = int(raw.pop("block_size", 100))
    config = _experiment_config(raw)
    os.makedirs(out, exist_ok=True)
    result = experiments.run_gev_sweep(config, block_size=block_size)
    path = os.path.join(out, "gev_sweep.csv")
    experiments.export_gev_csv(result, path)
    print(f"wrote {path} ({len(result.rows)} rows)")
    return EXIT_OK


def cmd_waiting_times(args, raw) -> int:
    out = raw.pop("out_dir", None) or "waiting_times_out"
    config = _experiment_config(raw)
    summaries = experiments.run_waiting_time_report(config, out)
    path = os.path.join(out, "summary.json")
    with open(path, "w") as fh:
        json.dump(summaries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}/ ({len(summaries)} grid points)")
    return EXIT_OK


def cmd_compound_poisson(args, raw) -> int:
    out = raw.pop("out_dir", None) or "compound_poisson_out"
    accuracy = float(raw.pop("accuracy", 5e-3))
    t = float(raw.pop("t", 1.0))
    ensemble_size = int(raw.pop("ensemble_size", 400))
    raw.setdefault("length", 1_000_000)
    config = _experiment_config(raw)
    os.makedirs(out, exist_ok=True)
    reports = experiments.run_compound_poisson_check(
        config, accuracy=accuracy, t=t, ensemble_size=ensemble_size)
    path = os.path.join(out, "compound_poisson.json")
    with open(path, "w") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for rep in reports:
        print(f"n={rep['n']} gamma={rep['gamma']}: "
              f"TV(compound)={rep['tv_compound_poisson']:.4f} "
              f"TV(poisson)={rep['tv_poisson']:.4f}")
    return EXIT_OK


def cmd_density(args, raw) -> int:
    out = raw.pop("out_dir", None) or "density_out"
    bins = raw.pop("bins", None)
    density_realizations = int(raw.pop("density_realizations", 300))
    iterations_each = int(raw.pop("iterations_each", 10_000))
    config = _experiment_config(raw)
    records = experiments.run_density_figures(
        config, out, bins=None if bins is None else int(bins),
        density_realizations=density_realizations,
        iterations_each=iterations_each)
    path = os.path.join(out, "density_report.json")
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}/ ({len(records)} grids)")
    return EXIT_OK


def cmd_spectral(args, raw) -> int:
    gamma = float(raw.pop("gamma", 0.1))
    slope = int(raw.pop("slope", 3))
    k = int(raw.pop("k", 300))
    nus = raw.pop("nus", [0.04, 0.02, 0.01])
    raw.pop("seed", None)
    raw.pop("threads", None)
    out = _out_dir(raw, "spectral_out")
    raw.pop("out_dir", None)
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    spec = MapSpec(LocalMap.affine_mod1(slope), 2, gamma)
    op = ulam.build_ulam(spec, k)
    estimate = ulam.ei_spectral(op, nus)
    path = os.path.join(out, "spectral.json")
    ulam.export_spectral_report(estimate, path)
    print(f"theta_spectral={estimate.theta:.6f} (k={k}, gamma={gamma})")
    return EXIT_OK


def cmd_theory(args, raw) -> int:
    slope = int(raw.pop("slope", 3))
    n_values = [int(v) for v in raw.pop("n_values", [2, 3, 4, 5])]
    gamma_values = [float(v) for v in
                    raw.pop("gamma_values", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])]
    raw.pop("seed", None)
    raw.pop("threads", None)
    out = _out_dir(raw, "theory_out")
    raw.pop("out_dir", None)
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    rows = theory.theory_table(n_values, gamma_values,
                               LocalMap.affine_mod1(slope))
    path = os.path.join(out, "theory.csv")
    theory.export_theory_sweep_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_reproduce(args, raw) -> int:
    seed = int(raw.pop("seed", 0))
    threads = int(raw.pop("threads", 1))
    out = raw.pop("out_dir", None) or f"reproduce_{args.figure_id}"
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    manifest = experiments.reproduce(args.figure_id, out, seed=seed,
                                     threads=threads)
    print(f"wrote {out}/ ({len(manifest['outputs'])} data files + manifest)")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "ei-sweep": cmd_ei_sweep,
    "gev-sweep": cmd_gev_sweep,
    "waiting-times": cmd_waiting_times,
    "compound-poisson": cmd_compound_poisson,
    "density": cmd_density,
    "spectral": cmd_spectral,
    "theory": cmd_theory,
    "reproduce": cmd_reproduce,
}


def _common_flags(default) -> argparse.ArgumentParser:
    # Subparsers must use SUPPRESS so their defaults don't clobber global
    # flags given before the subcommand name.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=default,
                        help="JSON config file (flat keys)")
    common.add_argument("--seed", type=int, default=default, help="master seed")
    common.add_argument("--threads", type=int, default=default,
                        help="worker threads for sweeps")
    common.add_argument("--out", default=default, help="output directory")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmlsync",
        parents=[_common_flags(None)],
        description="Synchronization statistics of coupled chaotic map "
                    "lattices via extreme value theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub_common = _common_flags(argparse.SUPPRESS)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[sub_common])
        if name == "reproduce":
            p.add_argument("figure_id", choices=experiments.FIGURE_IDS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _load_config(args)
        return _COMMANDS[args.command](args, raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CmlSyncError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
