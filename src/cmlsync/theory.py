"""Closed-form predictions used as oracles against the empirical estimators.

These formulas hold under the expansion/coupling hypothesis
gamma < 1 - lambda (lambda the inverse expansion rate of the local map);
operations reject violating inputs.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, HypothesisViolationError
from .lattice import LocalMap

_GRID_SIZE = 10_000  # midpoint nodes per unit length of a branch


def _check_hypothesis(gamma: float, lam: float) -> None:
    if gamma >= 1.0 - lam:
        raise HypothesisViolationError(f"gamma={gamma} >= 1 - lambda={1.0 - lam}")


@dataclass
class SyncIterations:
    """Iteration count needed for synchronization, kept in log10 when huge."""

    log10_m: float
    m: int | None  # exact integer when it fits in a double exactly


def branch_aligned_midpoints(local_map: LocalMap):
    """Midpoint quadrature nodes and weights aligned with branch boundaries.

    The integrands below jump at branch boundaries of T, so each branch gets
    its own uniform midpoint rule.
    """
    bounds = np.asarray(local_map.boundaries)
    nodes = []
    weights = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        m = max(2, int(round(_GRID_SIZE * (b - a))))
        h = (b - a) / m
        nodes.append(a + h * (np.arange(m) + 0.5))
        weights.append(np.full(m, h))
    return np.concatenate(nodes), np.concatenate(weights)


def ei_sync_formula(
    n: int,
    gamma: float,
    local_map: LocalMap,
    density_trace: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Extremal index of global synchronization from the density trace:

        theta_n = 1 - (1-gamma)^{1-n}
                  * int trace(x)/|T'(x)|^{n-1} dx / int trace(x) dx

    ``density_trace`` maps grid points to the invariant density evaluated
    on the diagonal; None means a flat trace (x -> 1), the exact choice for
    the uncoupled reference map and a good proxy when the invariant measure
    stays close to Lebesgue.  Raises `HypothesisViolationError` unless
    gamma < 1 - lambda, lambda the map's `LocalMap.expansion_bound`.
    """
    _check_hypothesis(gamma, local_map.expansion_bound)
    x, w = branch_aligned_midpoints(local_map)
    if density_trace is None:
        trace = np.ones_like(x)
    else:
        trace = np.asarray(density_trace(x), dtype=float)
    if np.any(trace < 0.0) or not np.all(np.isfinite(trace)):
        raise DomainError("density trace must be finite and nonnegative")
    denom = float(np.sum(w * trace))
    if denom <= 0.0:
        raise DomainError("density trace integrates to zero")
    slope = np.abs(local_map.derivative(x))
    numer = float(np.sum(w * trace / slope ** (n - 1)))
    theta = 1.0 - numer / denom / (1.0 - gamma) ** (n - 1)
    return min(max(theta, 0.0), 1.0)


def ei_sync_flat_asymptotic(n: int, gamma: float, lam: float) -> float:
    """Large-n flat-trace approximation: 1 - (lambda/(1-gamma))^{n-1}."""
    _check_hypothesis(gamma, lam)
    return 1.0 - (lam / (1.0 - gamma)) ** (n - 1)


def ei_upper_bound_q0(
    n: int, gamma: float, lam: float, sup_h: float, inf_h: float
) -> tuple[float, bool]:
    """Upper bound on q_0: lambda^{n-1} sup_h / ((1-gamma)^{n-1} inf_h).

    Returns (bound, meaningful); the bound only constrains q_0 when <= 1.
    """
    if inf_h <= 0.0:
        raise DomainError("inf_h must be positive")
    _check_hypothesis(gamma, lam)
    bound = (lam / (1.0 - gamma)) ** (n - 1) * sup_h / inf_h
    return bound, bound <= 1.0


def first_sync_probability(m: float, a_c: float, n: int, theta: float) -> float:
    """P(no global synchronization within m iterations at accuracy a_c).

    tau = m * a_c^{n-1}; the probability of having synchronized by m is the
    complement, see `sync_probability_by`.
    """
    _check_prob_inputs(m, a_c, n)
    if not 0.0 <= theta <= 1.0:
        raise DomainError("theta must lie in [0, 1]")
    return math.exp(-theta * m * a_c ** (n - 1))


def sync_probability_by(m: float, a_c: float, n: int, theta: float) -> float:
    """P(first synchronization happens within m iterations)."""
    return 1.0 - first_sync_probability(m, a_c, n, theta)


def _check_prob_inputs(m: float, a_c: float, n: int) -> None:
    if m < 0:
        raise DomainError("m must be >= 0")
    if not 0.0 < a_c < 1.0:
        raise DomainError("accuracy must lie in (0, 1)")
    if n < 2:
        raise DomainError("n must be >= 2")


def iterations_for_sync(
    p_target: float, a_c: float, n: int, theta: float
) -> SyncIterations:
    """Smallest m with P(synchronized by m) >= p_target.

    m = ceil(-ln(1 - p_target) / (theta * a_c^{n-1})), computed in log10 so
    astronomically large answers stay representable; the exact integer is
    also returned when m < 2^53.
    """
    if not 0.0 < p_target < 1.0:
        raise DomainError("target probability must lie in (0, 1)")
    _check_prob_inputs(1, a_c, n)
    if theta <= 0.0:
        raise DomainError("theta = 0: the system never synchronizes in this model")
    log10_m = (
        math.log10(-math.log1p(-p_target))
        - math.log10(theta)
        - (n - 1) * math.log10(a_c)
    )
    m = None
    if log10_m < 15.9:  # below 2^53, the exact ceiling is trustworthy
        m = int(math.ceil(-math.log1p(-p_target) / (theta * a_c ** (n - 1))))
        log10_m = math.log10(m)
    return SyncIterations(log10_m=log10_m, m=m)


def theory_table(n_values, gamma_values, local_map: LocalMap) -> list[tuple]:
    """Flat-trace `(n, gamma, theta_formula, theta_asymptotic, bound_q0)`
    rows, n outer and gamma inner; bound_q0 takes sup_h = inf_h = 1."""
    lam = local_map.expansion_bound
    return [
        (n, g,
         ei_sync_formula(n, g, local_map),
         ei_sync_flat_asymptotic(n, g, lam),
         ei_upper_bound_q0(n, g, lam, 1.0, 1.0)[0])
        for n in n_values for g in gamma_values
    ]


def export_theory_sweep_csv(rows, path) -> None:
    """Write `n,gamma,theta_theory,theta_asymptotic,bound_q0` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "gamma", "theta_theory", "theta_asymptotic", "bound_q0"])
        for row in rows:
            writer.writerow(row)
