"""Ulam discretization of the transfer operator for two-site lattices.

The sampled operator P on the k^2 cells (a, b) commutes bit for bit with
the swap of the two sites, P(sigma i, sigma j) = P(i, j): the lattice map
commutes with it, the midpoint subgrid is the same on both axes and
x + y = y + x in floats.  So the operator is built on the swap sector, the
k(k+1)/2 unordered cells {a, b} with a <= b in ``np.triu_indices(k)``
order; the index of (a, b) is a k - a(a - 1)/2 + (b - a).  Entry (I, J) of
the row-stochastic matrix is the share of cell I's samples whose image lies
in cell J or in its mirror image:

    Q[I, J] = sum over j in orbit(J) of P[I, j].

Vectors hold orbit masses: the mass of {a, b} is that of (a, b) and (b, a)
together.  Q^T acts on orbit masses as P^T acts on symmetric vectors, and
the invariant vector and the open operator's leading vector are symmetric,
so Q has P's leading eigenvalues at half the cells.  Q is stored once, in
CSR: 12 bytes per nonzero (float64 value, int32 column) and 4 per cell;
the power iterations reach Q^T as a view of the same arrays.

The open-system ("hole") variant restricts densities to the complement of
the diagonal strip, a union of orbits, before applying the operator; the
deficit of its leading eigenvalue encodes the extremal index through

    1 - rho = theta * mu(strip) * (1 + o(1)).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, MemoryBudgetError
from .evt import EiEstimate
# step stays importable here: bench/tracing.py wraps ulam.step
from .lattice import (  # noqa: F401
    MapSpec, _lattice_update, _mix, _mix_weights, step)

_MAX_BINS = 2000
_CHUNK_PAIRS = 1 << 14  # sample pairs per build chunk: bounds its temporaries
_MAX_SWEEPS = 100_000  # power-iteration sweeps before ConvergenceError
_TOL = 1e-10  # l1 change of the probability vector between sweeps
_RHO_TOL = 1e-12  # change of the open operator's mass-loss ratio


@dataclass
class UlamOperator:
    """Row-stochastic discretization of the transfer operator (n = 2) on
    the swap sector: cells a <= b, vectors of orbit masses.  ``matrix`` is
    the one stored copy; ``transposed`` views its arrays."""

    spec: MapSpec
    k: int  # bins per axis; k(k+1)/2 cells
    matrix: sparse.csr_matrix
    samples_per_cell: int

    @cached_property
    def transposed(self) -> sparse.csc_matrix:
        """matrix.T: a CSC view of the same data, indices and indptr.

        ``transposed @ v`` is the CSC matvec scipy runs for ``v @ matrix``,
        so the bits are the same; no second copy of the operator is made.
        """
        return self.matrix.T

    @property
    def cells(self) -> int:
        return self.k * (self.k + 1) // 2

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat arrays of (x, y) centers, x <= y, indexed like matrix rows."""
        a, b = np.triu_indices(self.k)
        return (a + 0.5) / self.k, (b + 0.5) / self.k


@dataclass
class PerturbedOperator:
    """Open operator: densities are zeroed on the diagonal-strip cells."""

    base: UlamOperator
    nu: float
    hole_cells: np.ndarray  # flat indices with |cx - cy| <= nu at the center


def build_ulam(spec: MapSpec, k: int, samples_per_cell: int = 81) -> UlamOperator:
    """Construct the swap-sector Ulam matrix by within-cell sampling.

    Samples sit on a stratified sqrt(samples_per_cell)-per-axis midpoint
    subgrid (so samples_per_cell must be a perfect square); entry (I, J) is
    the share of cell I's samples whose image, its coordinates sorted, lies
    in cell J.  Only the k(k+1)/2 cells a <= b are sampled.  The
    deterministic subgrid makes the gamma = 0 operator exact when k is a
    multiple of the local map's branch count.

    A sample's local-map value depends on one coordinate only, so T runs
    once per axis on the k sqrt(samples_per_cell) sample coordinates, and
    the lattice's own mix combines every (x, y) pair of them.  Sorting a
    cell's folded targets puts equal ones in runs; each run is one nonzero,
    indices ascending, its value the sequential sum of ``count`` sample
    weights (what scipy's duplicate summation of the samples gives).  Per
    chunk of rows only the int32 indices and the counts are kept; the
    float64 values are written once the nonzeros are counted: at k = 600
    the build peaks at 1.3 times the 12 bytes per nonzero it returns.
    """
    # imported here: no other command of the package pays for scipy.sparse
    from scipy import sparse

    if spec.n != 2:
        raise DomainError("Ulam construction supports n = 2 only")
    if not 1 <= k <= _MAX_BINS:
        raise MemoryBudgetError(f"k must lie in [1, {_MAX_BINS}]")
    s = int(round(math.sqrt(samples_per_cell)))
    if s * s != samples_per_cell:
        raise DomainError("samples_per_cell must be a perfect square")
    ss = s * s
    rep_x, rep_y = np.triu_indices(k)
    cells = rep_x.size
    # sample coordinates per axis: cell corner plus subgrid offset
    coords = (np.arange(k) / k)[:, None] + ((np.arange(s) + 0.5) / s / k)[None, :]
    # the uncoupled update applies T at every site, here to each coordinate
    local = np.empty_like(coords)
    _lattice_update(spec.local_map, *_mix_weights(MapSpec(spec.local_map, 2, 0.0)),
                    [coords.shape])(coords.reshape(-1), local.reshape(-1))
    keep, share = _mix_weights(spec)
    # value of `count` samples: the sequential sum of `count` weights
    table = np.cumsum(np.full(ss, 1.0 / ss))
    rows_per_chunk = max(1, _CHUNK_PAIRS // ss)
    indptr = np.zeros(cells + 1, dtype=np.int64)
    # per chunk: column indices and sample counts, the latter in the
    # smallest unsigned type that holds ss (one byte up to 255)
    indices, counts_of = [], []
    count_type = np.min_scalar_type(ss)
    for r0 in range(0, cells, rows_per_chunk):
        r1 = min(r0 + rows_per_chunk, cells)
        rows = r1 - r0
        # pairs[site, row, a, b]: sample (a, b) of the row's cell, x then y
        pairs = np.empty((2, rows, s, s))
        pairs[0] = local[rep_x[r0:r1]][:, :, None]
        pairs[1] = local[rep_y[r0:r1]][:, None, :]
        _mix(pairs, pairs[0] + pairs[1], keep, share,
             np.empty(pairs.shape, dtype=bool))
        np.multiply(pairs, k, out=pairs)
        # int32 throughout: with k <= _MAX_BINS every code is below k^2
        target = pairs.astype(np.int32).reshape(2, rows, ss)
        np.minimum(target, k - 1, out=target)
        # code of a sample: its target's orbit representative (min, max),
        # row-major as the sector's indices are; a sorted row holds each
        # target cell as one run, so the runs are the row's nonzeros
        code = np.minimum(target[0], target[1])
        code *= k
        code += np.maximum(target[0], target[1])
        code.sort(axis=1)
        first = np.ones(code.shape, dtype=bool)
        np.not_equal(code[:, 1:], code[:, :-1], out=first[:, 1:])
        starts = np.flatnonzero(first)
        a, b = np.divmod(code.ravel()[starts], k)
        indices.append(a * k - a * (a - 1) // 2 + b - a)
        counts_of.append(np.diff(starts, append=code.size).astype(count_type))
        indptr[r0 + 1:r1 + 1] = np.count_nonzero(first, axis=1)
    np.cumsum(indptr, out=indptr)
    indices = np.concatenate(indices)
    # the values, slice by slice, into the one float64 array scipy keeps
    data = np.empty(indptr[-1])
    end = 0
    for chunk in counts_of:
        np.take(table, chunk - 1, out=data[end:end + chunk.size])
        end += chunk.size
    # scipy narrows indptr (one entry per cell) to the int32 of indices and
    # copies no array of nonzeros
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(cells, cells))
    return UlamOperator(spec=spec, k=k, matrix=matrix, samples_per_cell=ss)


def _start(op: UlamOperator, start: np.ndarray | None) -> np.ndarray:
    """Probability start vector: ``start`` made nonnegative, or the uniform
    measure's orbit masses (2/k^2 off the diagonal, 1/k^2 on it)."""
    if start is None:
        a, b = np.triu_indices(op.k)
        v = np.where(a == b, 1.0, 2.0)
    else:
        v = np.abs(np.asarray(start, float))
    return v / v.sum()


def invariant_density_ulam(op: UlamOperator) -> tuple[np.ndarray, int]:
    """Leading left eigenvector by power iteration, normalized to sum 1,
    and the number of sweeps it took.

    The result is the discrete invariant probability vector of orbit
    masses; divide by the orbit's volume (2/k^2 off the diagonal, 1/k^2 on
    it) for a density per unit volume.
    """
    v = _start(op, None)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        w = op.transposed @ v
        w /= w.sum()  # row-stochastic: guards rounding drift only
        if float(np.abs(w - v).sum()) < _TOL:
            return w, sweeps
        v = w
    raise ConvergenceError("power iteration for the invariant density stalled")


def make_perturbed(op: UlamOperator, nu: float) -> PerturbedOperator:
    """Mark the strip cells |cx - cy| <= nu (by cell center) as the hole."""
    if not 0.0 < nu < 1.0:
        raise DomainError("nu must lie in (0, 1)")
    xs, ys = op.cell_centers()
    gap = np.abs(xs - ys)
    hole = np.flatnonzero(gap <= nu)
    if hole.size >= op.cells:
        raise DomainError("hole covers the whole domain")
    return PerturbedOperator(base=op, nu=nu, hole_cells=hole)


def perturbed_leading_eigenvalue(
    pert: PerturbedOperator, start: np.ndarray | None = None
) -> tuple[float, int]:
    """Leading eigenvalue of the open operator v -> (v restricted to D) P,
    and the number of sweeps it took.

    The per-sweep mass-loss ratio converges to rho, the survival rate of
    densities avoiding the strip.
    """
    op = pert.base
    mask = np.ones(op.cells)
    mask[pert.hole_cells] = 0.0
    v = _start(op, start)
    rho = 0.0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        w = op.transposed @ (v * mask)
        total = float(w.sum())
        if total == 0.0:
            return 0.0, sweeps
        w /= total
        if abs(total - rho) < _RHO_TOL and float(np.abs(w - v).sum()) < _TOL:
            return total, sweeps
        rho, v = total, w
    raise ConvergenceError("power iteration for the open operator stalled")


def strip_mass(pert: PerturbedOperator, invariant: np.ndarray) -> float:
    """mu of the diagonal strip under the discrete invariant measure."""
    return float(np.sum(invariant[pert.hole_cells]))


def _at_zero(nus: list[float], values: list[float]) -> tuple[float, float]:
    """values linearly extrapolated to nu = 0 (the one value of a single
    rung), raw and clamped to [0, 1]."""
    raw = float(np.polyfit(nus, values, 1)[1]) if len(nus) >= 2 else values[0]
    return raw, min(max(raw, 0.0), 1.0)


def ei_spectral(op: UlamOperator, nus) -> EiEstimate:
    """Extremal index from the eigenvalue deficit, with nu-refinement.

    For each strip accuracy nu the raw estimate is (1 - rho)/mu(strip); the
    reported theta extrapolates the ladder linearly to nu = 0 (clamped to
    [0, 1], raw ladder kept in the metadata).  Next to it, ``theta_kl`` is
    the same extrapolation of Keller and Liverani's leading term 1 - q0,
    where q0 = mu(U and P^-1 U)/mu(U) is the share of the strip U's mass
    that one step keeps in U.  The metadata also records each power
    iteration's sweeps.
    """
    nus = sorted({float(nu) for nu in np.atleast_1d(nus)}, reverse=True)
    invariant, sweeps = invariant_density_ulam(op)
    ladder = []
    for nu in nus:
        pert = make_perturbed(op, nu)
        mass = strip_mass(pert, invariant)
        if mass <= 0.0:
            raise DomainError(f"strip mass vanishes at nu={nu}")
        rho, iterations = perturbed_leading_eigenvalue(pert, start=invariant)
        inside = np.zeros(op.cells)
        inside[pert.hole_cells] = 1.0
        stay = (op.matrix @ inside)[pert.hole_cells]
        # np.sum, not a BLAS dot, whose last bit depends on the thread count
        q0 = float(np.sum(invariant[pert.hole_cells] * stay)) / mass
        ladder.append({"nu": nu, "rho": rho, "mu_strip": mass,
                       "theta_hat": (1.0 - rho) / mass, "q0": q0,
                       "theta_kl_hat": 1.0 - q0, "iterations": iterations})
    theta_raw, theta = _at_zero(nus, [row["theta_hat"] for row in ladder])
    _, theta_kl = _at_zero(nus, [row["theta_kl_hat"] for row in ladder])
    return EiEstimate(
        theta,
        "spectral_ulam",
        metadata={
            "k": op.k,
            "gamma": op.spec.gamma,
            "theta_raw": theta_raw,
            "theta_kl": theta_kl,
            "invariant_iterations": sweeps,
            "ladder": ladder,
        },
    )


def export_spectral_report(estimate: EiEstimate, path) -> None:
    with open(path, "w") as fh:
        json.dump(estimate.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
