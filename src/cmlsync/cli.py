"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import experiments, theory, ulam
from .errors import CmlSyncError, ConfigError
from .experiments import int_field, list_field, real_field
from .lattice import (
    LocalMap,
    MapSpec,
    NoiseSpec,
    export_trajectory_csv,
    simulate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(args) -> dict:
    """Flat key-value JSON file, overridden by --seed/--out."""
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
    if args.out is not None:
        raw["out_dir"] = args.out
    return raw


def _output(ns, name: str) -> str:
    """The path of output file `name`, making the output directory."""
    experiments.make_output_dir(ns.out_dir)
    return os.path.join(ns.out_dir, name)


def cmd_simulate(ns) -> int:
    spec = MapSpec(LocalMap.affine_mod1(ns.slope), ns.n, ns.gamma)
    traj = simulate(spec, ns.length, NoiseSpec(ns.epsilon), ns.burn_in,
                    ns.seed)
    path = _output(ns, "trajectory.csv")
    export_trajectory_csv(traj, path)
    print(f"wrote {path} ({ns.length} steps, n={ns.n}, gamma={ns.gamma})")
    return EXIT_OK


def cmd_ei_sweep(ns) -> int:
    for warning in ns.config.warnings():
        print(f"warning: {warning}", file=sys.stderr)
    result = experiments.run_ei_sweep(ns.config)
    path = _output(ns, "ei_sweep.csv")
    experiments.export_sweep_csv(result, path)
    print(f"wrote {path} ({len(result.rows)} rows + "
          f"{len(result.aggregates)} aggregates)")
    return EXIT_OK


def cmd_gev_sweep(ns) -> int:
    result = experiments.run_gev_sweep(ns.config, block_size=ns.block_size)
    path = _output(ns, "gev_sweep.csv")
    experiments.export_gev_csv(result, path)
    print(f"wrote {path} ({len(result.rows)} rows)")
    return EXIT_OK


def cmd_waiting_times(ns) -> int:
    summaries = experiments.run_waiting_time_report(ns.config, ns.out_dir)
    experiments.write_json(_output(ns, "summary.json"), summaries)
    print(f"wrote {ns.out_dir}/ ({len(summaries)} grid points)")
    return EXIT_OK


def cmd_compound_poisson(ns) -> int:
    reports = experiments.run_compound_poisson_check(
        ns.config, accuracy=ns.accuracy, t=ns.t,
        ensemble_size=ns.ensemble_size)
    experiments.write_json(_output(ns, "compound_poisson.json"), reports)
    for rep in reports:
        print(f"n={rep['n']} gamma={rep['gamma']}: "
              f"TV(compound)={rep['tv_compound_poisson']:.4f} "
              f"TV(poisson)={rep['tv_poisson']:.4f}")
    return EXIT_OK


def cmd_density(ns) -> int:
    records = experiments.run_density_figures(
        ns.config, ns.out_dir, bins=ns.bins,
        density_realizations=ns.density_realizations,
        iterations_each=ns.iterations_each)
    experiments.write_json(_output(ns, "density_report.json"), records)
    print(f"wrote {ns.out_dir}/ ({len(records)} grids)")
    return EXIT_OK


def cmd_spectral(ns) -> int:
    spec = MapSpec(LocalMap.affine_mod1(ns.slope), 2, ns.gamma)
    op = ulam.build_ulam(spec, ns.k)
    estimate = ulam.ei_spectral(op, ns.nus)
    path = _output(ns, "spectral.json")
    ulam.export_spectral_report(estimate, path)
    print(f"theta_spectral={estimate.theta:.6f} (k={ns.k}, gamma={ns.gamma})")
    return EXIT_OK


def cmd_theory(ns) -> int:
    rows = theory.theory_table(ns.n_values, ns.gamma_values,
                               LocalMap.affine_mod1(ns.slope))
    path = _output(ns, "theory.csv")
    theory.export_theory_sweep_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_reproduce(ns) -> int:
    manifest = experiments.reproduce(ns.figure_id, ns.out_dir, seed=ns.seed)
    print(f"wrote {ns.out_dir}/ ({len(manifest['outputs'])} data files + "
          f"manifest)")
    return EXIT_OK


def _ulam_bins(name: str, value) -> int:
    k = int_field(name, value, 1)
    if k > ulam._MAX_BINS:
        raise ConfigError(f"{name} must be <= {ulam._MAX_BINS}, got {k}")
    return k


_GAMMA = partial(real_field, low=0.0, high=1.0)

# command: (cmd_*, default output directory, its own keys as
# {key: (check, default)}, and for the five sweep commands the defaults of
# the ExperimentConfig keys they also take; None for the other commands).
# A check is check(key, value) -> value and raises ConfigError.
_COMMANDS = {
    "simulate": (cmd_simulate, "simulate_out", {
        "n": (partial(int_field, minimum=2), 2),
        "gamma": (_GAMMA, 0.0),
        "slope": (partial(int_field, minimum=2), 3),
        "length": (partial(int_field, minimum=1), 10_000),
        "epsilon": (partial(real_field, low=0.0, high=math.inf), 0.0),
        "burn_in": (partial(int_field, minimum=0), 1000),
        "seed": (partial(int_field, minimum=0), 0),
    }, None),
    "ei-sweep": (cmd_ei_sweep, "ei_sweep_out", {}, {}),
    "gev-sweep": (cmd_gev_sweep, "gev_sweep_out", {
        "block_size": (partial(int_field, minimum=1), 100),
    }, {}),
    "waiting-times": (cmd_waiting_times, "waiting_times_out", {}, {}),
    "compound-poisson": (cmd_compound_poisson, "compound_poisson_out", {
        "accuracy": (partial(real_field, low=0.0, high=1.0, open_low=True),
                     5e-3),
        "t": (partial(real_field, low=0.0, high=math.inf, open_low=True), 1.0),
        "ensemble_size": (partial(int_field, minimum=50), 400),
    }, {"length": 1_000_000}),
    "density": (cmd_density, "density_out", {
        "bins": (partial(int_field, minimum=1), None),  # None: 300, or 60 at n = 3
        "density_realizations": (partial(int_field, minimum=1), 300),
        "iterations_each": (partial(int_field, minimum=1), 10_000),
    }, {}),
    "spectral": (cmd_spectral, "spectral_out", {
        "gamma": (_GAMMA, 0.1),
        "slope": (partial(int_field, minimum=2), 3),
        "k": (_ulam_bins, 300),
        "nus": (partial(list_field, item=partial(
            real_field, low=0.0, high=1.0, open_low=True)), (0.04, 0.02, 0.01)),
    }, None),
    "theory": (cmd_theory, "theory_out", {
        "slope": (partial(int_field, minimum=2), 3),
        "n_values": (partial(list_field, item=partial(int_field, minimum=2)),
                     (2, 3, 4, 5)),
        "gamma_values": (partial(list_field, item=_GAMMA),
                         (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)),
    }, None),
    "reproduce": (cmd_reproduce, "reproduce_{figure_id}", {
        "seed": (partial(int_field, minimum=0), 0),
    }, None),
}


def _parse(args) -> argparse.Namespace:
    """The command's checked keys, from its config file and --seed and
    --out.  Unknown keys are config errors; seed is ignored by the commands
    that do not take it, and threads (and --threads) by all of them: every
    command runs on one thread."""
    raw = _load_config(args)
    _, out_dir, keys, sweep = _COMMANDS[args.command]
    figure_id = getattr(args, "figure_id", None)
    out = raw.pop("out_dir", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out_dir must be a path, got {out!r}")
    out_dir = out or out_dir.format(figure_id=figure_id)
    config_keys = set() if sweep is None else set(
        experiments.ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - set(keys) - config_keys - {"seed", "threads"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    ns = argparse.Namespace(out_dir=out_dir, figure_id=figure_id, **{
        key: check(key, raw[key]) if key in raw else default
        for key, (check, default) in keys.items()})
    if sweep is not None:
        ns.config = experiments.ExperimentConfig(
            **{**sweep, **{k: v for k, v in raw.items() if k in config_keys}})
    return ns


def _common_flags(default) -> argparse.ArgumentParser:
    # Subparsers must use SUPPRESS so their defaults don't clobber global
    # flags given before the subcommand name.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=default,
                        help="JSON config file (flat keys)")
    common.add_argument("--seed", type=int, default=default, help="master seed")
    common.add_argument("--threads", type=int, default=default,
                        help="accepted and ignored: commands run on one "
                             "thread")
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
        ns = _parse(args)
        return _COMMANDS[args.command][0](ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CmlSyncError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
