"""Invariant-density estimation by ensemble histograms (n = 2 or 3).

Trajectory samples are accumulated into a dense n-dimensional histogram,
normalized to a density per unit volume; the diagonal trace averages the
density over a thin tube around (x, ..., x) and feeds the closed-form
extremal-index formula.
"""
from __future__ import annotations

import csv
from itertools import repeat
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MemoryBudgetError
# step_noisy stays importable here: bench/tracing.py wraps density.step_noisy
from .lattice import MapSpec, NoiseSpec, _orbit, _rng_for, step_noisy  # noqa: F401
from .lattice import _MAX_ENSEMBLE_BYTES

_MAX_CELLS = 200_000_000  # int64 counts, ~1.6 GB
_CHUNK_ELEMENTS = 1 << 18  # 2 MB of float64 states per chunk


@dataclass
class DensityHistogram:
    """Dense histogram of lattice states on [0,1)^n."""

    n: int
    bins_per_axis: int
    counts: np.ndarray  # shape (bins,)*n, int64
    total_samples: int

    @property
    def density(self) -> np.ndarray:
        """Normalized density per unit volume; integrates to 1."""
        cell_volume = (1.0 / self.bins_per_axis) ** self.n
        return self.counts / (self.total_samples * cell_volume)

    def merge(self, other: "DensityHistogram") -> "DensityHistogram":
        if (self.n, self.bins_per_axis) != (other.n, other.bins_per_axis):
            raise DomainError("histogram shapes differ")
        return DensityHistogram(
            self.n,
            self.bins_per_axis,
            self.counts + other.counts,
            self.total_samples + other.total_samples,
        )


@dataclass
class DiagonalTrace:
    """Estimated density along the diagonal, averaged over a tube."""

    grid: np.ndarray  # uniform grid of x values (bin centers)
    values: np.ndarray
    band_width: float  # tube half-width

    def as_function(self):
        """Piecewise-linear interpolant usable as a density trace."""
        grid, values = self.grid, self.values
        return lambda x: np.interp(x, grid, values)


def estimate_density(
    spec: MapSpec,
    realizations: int,
    iterations_each: int,
    bins: int,
    seed: int,
    noise: NoiseSpec = NoiseSpec(0.0),
    burn_in: int = 1000,
) -> DensityHistogram:
    """Ensemble histogram of the invariant density; deterministic given seed.

    All realizations advance in lock-step; per-realization partial histograms
    would merge to the same counts (accumulation is a plain sum).
    """
    n = spec.n
    if n not in (2, 3):
        raise DomainError("density estimation supports n = 2 or 3 only")
    if bins**n > _MAX_CELLS:
        raise MemoryBudgetError(f"{bins}^{n} cells exceed the memory budget")
    # the orbit streams through one reused buffer of _CHUNK_ELEMENTS states
    per_chunk = max(1, min(iterations_each, _CHUNK_ELEMENTS // (realizations * n)))
    need = (per_chunk + 1) * realizations * n * 8  # the buffer and the starts
    if need > _MAX_ENSEMBLE_BYTES:
        raise MemoryBudgetError(f"{realizations} realizations of {n} sites "
                                f"need {need / 1e9:.2f} GB, over the budget")
    rng = _rng_for(seed)
    states = rng.uniform(0.0, 1.0, size=(realizations, n))
    counts = np.zeros(bins**n, dtype=np.int64)
    strides = bins ** np.arange(n - 1, -1, -1)
    chunk = np.empty((per_chunk, realizations, n))
    skip = burn_in
    for start in range(0, iterations_each, per_chunk):
        m = min(per_chunk, iterations_each - start)
        block = _orbit(spec, states, m, noise, rng, skip, out=chunk[:m])
        idx = np.minimum((block * bins).astype(np.int64), bins - 1)
        np.add.at(counts, (idx @ strides).ravel(), 1)
        states, skip = block[-1], 1
    return DensityHistogram(
        n=n,
        bins_per_axis=bins,
        counts=counts.reshape((bins,) * n),
        total_samples=realizations * iterations_each,
    )


def diagonal_trace(hist: DensityHistogram, band: float | None = None) -> DiagonalTrace:
    """Average the normalized density over {x: max_i |x_i - x| <= band}.

    Default band: 2 bin widths.  Raises if the band is narrower than one bin.
    """
    bins = hist.bins_per_axis
    bin_width = 1.0 / bins
    if band is None:
        band = 2.0 * bin_width
    if band < bin_width:
        raise DomainError("band must be at least one bin width")
    half = int(band * bins)  # cells with |center - x| <= band on each side
    density = hist.density
    centers = (np.arange(bins) + 0.5) * bin_width
    values = np.empty(bins)
    for i in range(bins):
        lo, hi = max(0, i - half), min(bins, i + half + 1)
        block = density[(slice(lo, hi),) * hist.n]
        if block.size == 0:
            raise DomainError("empty diagonal tube")
        values[i] = float(np.mean(block))
    return DiagonalTrace(grid=centers, values=values, band_width=band)


def trace_oscillation(trace_narrow: DiagonalTrace, trace_wide: DiagonalTrace) -> float:
    """Finite-difference proxy for the diagonal oscillation of the density.

    Compares traces at two band widths (the wide one should be about twice
    the narrow one); a diagnostic, not a proof of bounded oscillation.
    """
    if trace_wide.band_width <= trace_narrow.band_width:
        raise DomainError("second trace must use the wider band")
    if trace_narrow.grid.shape != trace_wide.grid.shape:
        raise DomainError("traces must share a grid")
    return float(
        np.max(np.abs(trace_narrow.values - trace_wide.values))
        / trace_narrow.band_width
    )


def export_density_csv(hist: DensityHistogram, path) -> None:
    """Write `bin_index_1,...,bin_index_n,density` rows, in C order with
    `%.17g` densities and csv's \\r\\n line ends."""
    density = hist.density
    # one plane of the first axis at a time keeps the Python rows few
    rest = [c.ravel().tolist() for c in np.indices(density.shape[1:])]
    row = ",".join(["%d"] * hist.n + ["%.17g"]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"bin_index_{i + 1}" for i in range(hist.n)]
                          + ["density"]) + "\r\n")
        for i, plane in enumerate(density):
            fh.writelines(map(row.__mod__, zip(
                repeat(i), *rest, plane.ravel().tolist())))


def export_trace_csv(trace: DiagonalTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "trace_value"])
        for x, v in zip(trace.grid, trace.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])
