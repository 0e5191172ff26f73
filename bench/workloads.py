"""Workload definitions: the configs each workload hands to `cmlsync`.

A workload is a list of steps; one round of the workload runs every step
once through `cmlsync.cli.main`.  All configs are fixed here except the
master seed, which comes from the benchmark's `--seed` argument.
"""
from __future__ import annotations

from dataclasses import dataclass, field

SLOPE = 3  # the reference local map T(x) = 3x mod 1 (cmlsync's default)
SPECTRAL_GAMMA = 0.3
NUS = [0.04, 0.02, 0.01]


@dataclass(frozen=True)
class Step:
    """One `cmlsync <command> --config <tag>.json` call of a round."""

    command: str
    tag: str
    config: dict
    expect: dict = field(default_factory=dict)  # tolerances for the checks


def theta_global(n: int, gamma: float) -> float:
    """Global-sync extremal index for the flat density: 1 - (3(1-g))^(1-n)."""
    return 1.0 - (SLOPE * (1.0 - gamma)) ** (1 - n)


def theta_two_site(gamma: float) -> float:
    """Two-site extremal index 1 - 1/(3(1-g)); pair sync tracks it for all n."""
    return theta_global(2, gamma)


WORKLOADS: dict[str, list[Step]] = {
    # Many grid points, few realizations, short series: the per-step
    # interpreter overhead of the lattice kernel dominates.  The pair-sync
    # rows also carry the one known failure (q_k on the global strip).
    "sweep-grid": [
        Step("ei-sweep", "grid", {
            "observable": "global_sync", "n_values": [3, 8, 13, 18, 23],
            "gamma_values": [0.0, 0.2, 0.4, 0.6], "epsilons": [0.0],
            "realizations": 3, "length": 3000, "burn_in": 100,
            "quantile": 0.96,
        }, {"suveges_tol": 0.15, "suveges_share": 0.7, "xi_tol": 0.15}),
        Step("ei-sweep", "pair", {
            "observable": "pair_sync", "n_values": [5, 11],
            "gamma_values": [0.3], "epsilons": [0.0, 1e-4, 1e-2],
            "realizations": 3, "length": 3000, "burn_in": 100,
            "quantile": 0.98,
        }, {"pair_tol": 0.15}),
    ],
    # Few grid points, many realizations: wide arrays, so the observables
    # and the estimators (Sueveges, q_k, GPD, GEV) carry most of the time.
    "sweep-wide": [
        Step("ei-sweep", "wide", {
            "observable": "global_sync", "n_values": [2, 3],
            "gamma_values": [0.1, 0.3, 0.5], "epsilons": [0.0],
            "realizations": 60, "length": 4000, "burn_in": 100,
            "quantile": 0.97,
        }, {"suveges_tol": 0.05, "suveges_share": 1.0, "xi_tol": 0.15}),
        Step("gev-sweep", "gev", {
            "observable": "global_sync", "n_values": [2, 3],
            "gamma_values": [0.1, 0.3, 0.5], "epsilons": [0.0],
            "realizations": 12, "length": 4000, "burn_in": 100,
            "block_size": 100,
        }, {"xi_tol": 0.1}),
    ],
    # No sweep estimators: Ulam build and power iteration at two
    # resolutions, then the density histogram kernel and its CSV export.
    "spectral-density": [
        Step("spectral", "k300",
             {"gamma": SPECTRAL_GAMMA, "k": 300, "nus": NUS},
             {"theta_tol": 0.05}),
        Step("spectral", "k600",
             {"gamma": SPECTRAL_GAMMA, "k": 600, "nus": NUS},
             {"theta_tol": 0.05}),
        Step("density", "density", {
            "n_values": [2], "gamma_values": [0.0, 0.3],
            "epsilons": [0.0], "bins": 300, "density_realizations": 100,
            "iterations_each": 5000, "burn_in": 100,
        }, {"flat_z": 6.0}),
    ],
}

# The spectral step whose error is the end-to-end accuracy metric.
THETA_STEP = WORKLOADS["spectral-density"][0]


def grid_points(config: dict) -> list[tuple[int, float, float]]:
    return [(n, g, e) for n in config["n_values"]
            for g in config["gamma_values"] for e in config["epsilons"]]


def site_updates(step: Step) -> int:
    """Lattice site-updates the step's config demands.

    Sweeps: (length + burn_in) x realizations x n per grid point.  Density:
    (iterations_each + burn_in) x density_realizations x n per grid point.
    The spectral build samples cells, which is an implementation choice of
    the program, not a demand of the config, so it counts zero.
    """
    c = step.config
    if step.command in ("ei-sweep", "gev-sweep"):
        per = (c["length"] + c["burn_in"]) * c["realizations"]
    elif step.command == "density":
        per = (c["iterations_each"] + c["burn_in"]) * c["density_realizations"]
    else:
        return 0
    return sum(per * n for n, _, _ in grid_points(c))
