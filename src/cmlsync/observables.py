"""Scalar observables along lattice trajectories.

Three synchronization observables of a lattice state, each of the form
-log(gap) so that large values mean the state is close to a diagonal set:

* global sync:  gap = max pairwise spread, max(x) - min(x)
* local sync:   gap = max nearest-neighbor spread along the chain
* pair sync:    gap = min nearest-neighbor spread (closest adjacent pair)

All gaps use plain interval distances.  A gap of 0 yields +inf, a legal value
treated downstream as an exceedance of every finite threshold.  Evaluators
accept a single state (n,) or a stacked array (..., n).  The observables,
with their closed-form extremal indices, are `OBSERVABLES`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import theory
from .errors import DegenerateSeriesError, DomainError


def _neg_log(gap: np.ndarray):
    with np.errstate(divide="ignore"):
        out = -np.log(gap)
    return out if out.ndim else float(out)


def _sites(state) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.shape[-1] < 2:
        raise DomainError("need at least 2 components")
    return state


def _spread(state) -> np.ndarray:
    """max_{i!=j} |x_i - x_j| = max(x) - min(x).

    Runs over the n columns: one elementwise max and min per site is
    cheaper than a reduction along a short last axis, and max, min and
    subtraction are exact, so the bits are those of ``np.max - np.min``.
    """
    state = _sites(state)
    shape = state.shape[:-1]
    hi = np.maximum(state[..., 0], state[..., 1], out=np.empty(shape))
    lo = np.minimum(state[..., 0], state[..., 1], out=np.empty(shape))
    for i in range(2, state.shape[-1]):
        np.maximum(hi, state[..., i], out=hi)
        np.minimum(lo, state[..., i], out=lo)
    return np.subtract(hi, lo, out=hi)[()]


def _neighbor_gap(combine):
    """combine(|x_{i+1} - x_i|) over the chain of sites.

    ``combine`` is np.maximum or np.minimum, run column by column as in
    `_spread`; subtraction and abs are exact, so the bits are those of the
    reduction of ``abs(diff(x))``.
    """
    def gap(state) -> np.ndarray:
        state = _sites(state)
        out = np.subtract(state[..., 1], state[..., 0],
                          out=np.empty(state.shape[:-1]))
        np.abs(out, out=out)
        step = np.empty_like(out)
        for i in range(2, state.shape[-1]):
            np.subtract(state[..., i], state[..., i - 1], out=step)
            np.abs(step, out=step)
            combine(out, step, out=out)
        return out[()]
    return gap


@dataclass(frozen=True)
class Observable:
    """A sweep observable -log(gap).  ``ei_sites(n)`` is the lattice size
    whose closed-form theta holds at size n; None where the code has none."""

    gap: Callable[[np.ndarray], np.ndarray]
    ei_sites: Callable[[int], int] | None = None

    def value(self, states):
        """-log(gap) of states (..., n); +inf where the gap is 0."""
        return _neg_log(self.gap(states))

    def closed_form_ei(self, n: int, gamma: float, local_map):
        """(theta_theory, theta_asymptotic) from the flat trace, or Nones;
        raises HypothesisViolationError unless gamma < 1 - lambda."""
        if self.ei_sites is None:
            return None, None
        m = self.ei_sites(n)
        return (theory.ei_sync_formula(m, gamma, local_map),
                theory.ei_sync_flat_asymptotic(m, gamma,
                                               local_map.expansion_bound))


OBSERVABLES = {
    "global_sync": Observable(_spread, ei_sites=lambda n: n),
    "local_sync": Observable(_neighbor_gap(np.maximum)),
    # One adjacent pair at a time nears the set, and x_i - x_j is expanded
    # by s(1 - gamma) for every n: the two-site theta holds at any n.
    "pair_sync": Observable(_neighbor_gap(np.minimum), ei_sites=lambda n: 2),
}


def eval_global_sync(state: np.ndarray):
    """-log max_{i!=j} |x_i - x_j| = -log (max - min); +inf on the diagonal."""
    return _neg_log(_spread(state))


def evaluate_series(trajectory: np.ndarray, kind: str) -> np.ndarray:
    """Apply the `OBSERVABLES` record ``kind`` along a trajectory
    (length, ..., n)."""
    if kind not in OBSERVABLES:
        raise DomainError(f"unknown observable kind: {kind}")
    return OBSERVABLES[kind].value(trajectory)


def running_maximum(series) -> np.ndarray:
    """Partial maxima M_k = max(X_0..X_k); nondecreasing, idempotent."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise DegenerateSeriesError("empty series")
    return np.maximum.accumulate(series, axis=0)


def thresholds_from_quantile(block, q: float) -> tuple[np.ndarray, list]:
    """`threshold_from_quantile` of every row of ``block`` (R, length) at once.

    Returns (thresholds, errors): row r's threshold and None, or NaN and the
    `DegenerateSeriesError` of a row with no finite value.  Rows without
    +inf take one ``np.quantile`` along the rows, which gives each row the
    bits of its own call; the others take the quantile of their finite
    values one by one.
    """
    if not 0.0 < q <= 1.0:
        raise DomainError("quantile must lie in (0, 1]")
    block = np.asarray(block, dtype=float)
    finite = np.isfinite(block)
    whole = np.all(finite, axis=1) & (block.shape[1] > 0)
    out = np.full(len(block), np.nan)
    errors = [None] * len(block)
    if whole.all():
        out[:] = np.quantile(block, q, axis=1, method="linear")
    elif whole.any():
        out[whole] = np.quantile(block[whole], q, axis=1, method="linear")
    for r in np.flatnonzero(~whole):
        values = block[r][finite[r]]
        if values.size:
            out[r] = np.quantile(values, q, method="linear")
        else:
            errors[r] = DegenerateSeriesError(
                "all values infinite; no finite quantile")
    return out, errors


def threshold_from_quantile(series, q: float) -> float:
    """Empirical q-quantile of the finite values (linear interpolation).

    +inf entries are excluded here but always count as exceedances when the
    threshold is applied downstream.  The one-row case of
    `thresholds_from_quantile`.
    """
    (u,), (error,) = thresholds_from_quantile(
        np.reshape(np.asarray(series, dtype=float), (1, -1)), q)
    if error is not None:
        raise error
    return float(u)


def exceedance_indicator(series, threshold) -> np.ndarray:
    """Boolean series of exceedances; +inf exceeds any finite threshold.
    A block (R, length) takes its rows' thresholds as ``u[:, None]``."""
    return np.asarray(series, dtype=float) > threshold


def sync_accuracy_from_threshold(u: float) -> float:
    """The strip accuracy nu = e^{-u} matching observable threshold u."""
    return float(np.exp(-u))
