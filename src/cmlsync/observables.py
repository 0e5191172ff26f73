"""Scalar observables along lattice trajectories.

Five observables of a lattice state, each of the form -log(gap) so that large
values mean the state is close to a distinguished set:

* localization: gap = l1 distance to a fixed target configuration
* global sync:  gap = max pairwise spread, max(x) - min(x)
* local sync:   gap = max nearest-neighbor spread (chain or ring)
* pair sync:    gap = min nearest-neighbor spread (closest adjacent pair)
* block sync:   gap = max within-block spread over disjoint index blocks

All gaps use plain interval distances.  A gap of 0 yields +inf, a legal value
treated downstream as an exceedance of every finite threshold.  Evaluators
accept a single state (n,) or a stacked array (..., n).  The sweep
observables, with their closed-form extremal indices, are `OBSERVABLES`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import theory
from .errors import DegenerateSeriesError, DomainError, InvalidBlocksError


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
    """max_{i!=j} |x_i - x_j| = max(x) - min(x)."""
    state = _sites(state)
    return np.max(state, axis=-1) - np.min(state, axis=-1)


def _neighbor_gap(reduce):
    """reduce(|x_{i+1} - x_i|) over a chain; a ring adds |x_n - x_1| (n > 2)."""
    def gap(state, boundary: str = "chain") -> np.ndarray:
        state = _sites(state)
        if boundary not in ("chain", "ring"):
            raise DomainError("boundary must be 'chain' or 'ring'")
        gaps = np.abs(np.diff(state, axis=-1))
        if boundary == "ring" and state.shape[-1] > 2:
            wrap = np.abs(state[..., -1:] - state[..., :1])
            gaps = np.concatenate([gaps, wrap], axis=-1)
        return reduce(gaps, axis=-1)
    return gap


@dataclass(frozen=True)
class Observable:
    """A sweep observable -log(gap).  ``ei_sites(n)`` is the lattice size
    whose closed-form theta holds at size n; None where the code has none."""

    gap: Callable[..., np.ndarray]
    ei_sites: Callable[[int], int] | None = None

    def value(self, states, **kwargs):
        """-log(gap) of states (..., n); +inf where the gap is 0."""
        return _neg_log(self.gap(states, **kwargs))

    def closed_form_ei(self, n: int, gamma: float, local_map):
        """(theta_theory, theta_asymptotic) from the flat trace, or Nones;
        raises HypothesisViolationError unless gamma < 1 - lambda."""
        if self.ei_sites is None:
            return None, None
        m = self.ei_sites(n)
        inputs = theory.TheoryInputs(n=m, gamma=gamma, lam=local_map.expansion_bound)
        return (theory.ei_sync_formula(inputs, local_map),
                theory.ei_sync_flat_asymptotic(m, gamma, inputs.lam))


OBSERVABLES = {
    "global_sync": Observable(_spread, ei_sites=lambda n: n),
    "local_sync": Observable(_neighbor_gap(np.max)),
    # One adjacent pair at a time nears the set, and x_i - x_j is expanded
    # by s(1 - gamma) for every n: the two-site theta holds at any n.
    "pair_sync": Observable(_neighbor_gap(np.min), ei_sites=lambda n: 2),
}


def eval_localization(state: np.ndarray, target: np.ndarray):
    """-log sum_i |x_i - z_i|; +inf iff the state equals the target."""
    state = np.asarray(state, dtype=float)
    target = np.asarray(target, dtype=float)
    if target.shape != state.shape[-1:]:
        raise DomainError("target must have the same number of components")
    return _neg_log(np.sum(np.abs(state - target), axis=-1))


def eval_global_sync(state: np.ndarray):
    """-log max_{i!=j} |x_i - x_j| = -log (max - min); +inf on the diagonal."""
    return _neg_log(_spread(state))


def eval_local_sync(state: np.ndarray, boundary: str = "chain"):
    """-log of the max nearest-neighbor gap.

    ``chain`` uses pairs (i, i+1) only; ``ring`` adds the wrap-around pair.
    """
    return _neg_log(OBSERVABLES["local_sync"].gap(state, boundary))


def eval_pair_sync(state: np.ndarray, boundary: str = "chain"):
    """-log of the MINIMUM nearest-neighbor gap: close-pair synchronization.

    High values mean *some* adjacent pair has synchronized, regardless of the
    rest of the lattice.
    """
    return _neg_log(OBSERVABLES["pair_sync"].gap(state, boundary))


def _check_blocks(blocks, n: int) -> list[np.ndarray]:
    seen: set[int] = set()
    cleaned = []
    for block in blocks:
        idx = np.asarray(block, dtype=int)
        if idx.size < 2:
            raise InvalidBlocksError("every block needs at least 2 indices")
        if np.any(idx < 0) or np.any(idx >= n):
            raise InvalidBlocksError("block index out of range")
        if seen & set(idx.tolist()):
            raise InvalidBlocksError("blocks must be disjoint")
        seen |= set(idx.tolist())
        cleaned.append(idx)
    if not cleaned:
        raise InvalidBlocksError("need at least one block")
    return cleaned


def eval_block_sync(state: np.ndarray, blocks):
    """-log of the max within-block spread; indices outside blocks ignored.

    ``blocks`` is a list of 0-based index collections.
    """
    state = np.asarray(state, dtype=float)
    cleaned = _check_blocks(blocks, state.shape[-1])
    gap = np.zeros(state.shape[:-1])
    for idx in cleaned:
        gap = np.maximum(gap, _spread(state[..., idx]))
    return _neg_log(gap)


def evaluate_series(trajectory: np.ndarray, kind: str, **kwargs) -> np.ndarray:
    """Apply an observable along a trajectory (length, ..., n).

    ``kind`` names an `OBSERVABLES` record (``boundary=`` for the neighbor
    gaps), ``localization`` (``target=``) or ``block_sync`` (``blocks=``).
    """
    if kind in OBSERVABLES:
        return OBSERVABLES[kind].value(trajectory, **kwargs)
    if kind == "localization":
        return eval_localization(trajectory, **kwargs)
    if kind == "block_sync":
        return eval_block_sync(trajectory, **kwargs)
    raise DomainError(f"unknown observable kind: {kind}")


def running_maximum(series) -> np.ndarray:
    """Partial maxima M_k = max(X_0..X_k); nondecreasing, idempotent."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise DegenerateSeriesError("empty series")
    return np.maximum.accumulate(series, axis=0)


def threshold_from_quantile(series, q: float) -> float:
    """Empirical q-quantile of the finite values (linear interpolation).

    +inf entries are excluded here but always count as exceedances when the
    threshold is applied downstream.
    """
    if not 0.0 < q <= 1.0:
        raise DomainError("quantile must lie in (0, 1]")
    series = np.asarray(series, dtype=float)
    finite = series[np.isfinite(series)]
    if finite.size == 0:
        raise DegenerateSeriesError("all values infinite; no finite quantile")
    return float(np.quantile(finite, q, method="linear"))


def exceedance_indicator(series, threshold: float) -> np.ndarray:
    """Boolean series of exceedances; +inf exceeds any finite threshold."""
    return np.asarray(series, dtype=float) > threshold


def sync_accuracy_from_threshold(u: float) -> float:
    """The strip accuracy nu = e^{-u} matching observable threshold u."""
    return float(np.exp(-u))
