"""Invariant-density estimation by ensemble histograms (n = 2 or 3).

Trajectory samples are accumulated into a dense n-dimensional histogram,
normalized to a density per unit volume; the diagonal trace averages the
density over a thin tube around (x, ..., x) and feeds the closed-form
extremal-index formula.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
# step_noisy stays importable here: bench/tracing.py wraps density.step_noisy
from .lattice import (  # noqa: F401
    GridPoint, MapSpec, NoiseSpec, _check_budget, _check_points, _pass_bytes,
    lockstep_gaps, step_noisy)


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


@dataclass
class DiagonalTrace:
    """Estimated density along the diagonal, averaged over a tube."""

    grid: np.ndarray  # uniform grid of x values (bin centers)
    values: np.ndarray

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

    One `lockstep_gaps` pass advances all realizations, with the start
    states and kicks of `simulate_ensemble` at ``seed``, and folds each
    chunk of the orbit into the counts in place, so the counts are the
    one histogram-sized array it holds.  The counts and the folded pass
    together must fit `lattice._MAX_ENSEMBLE_BYTES`, which is checked
    before anything is allocated.  The pass's ``gap`` maps a state to the
    flat index of its cell, which that budget keeps far below 2^53, so it
    is exact in float64.
    """
    n = spec.n
    if n not in (2, 3):
        raise DomainError("density estimation supports n = 2 or 3 only")
    point = GridPoint(n, spec.gamma, noise.epsilon, seed, realizations)
    _check_points(spec.local_map, [point], iterations_each, burn_in)
    _check_budget(8 * bins**n + _pass_bytes([point], iterations_each, True),
                  f"histogram of {bins}^{n} cells over {realizations} "
                  f"realizations")
    counts = np.zeros(bins**n, dtype=np.int64)
    strides = bins ** np.arange(n - 1, -1, -1)

    def cells(chunk):
        return np.minimum((chunk * bins).astype(np.int64), bins - 1) @ strides

    def fold(codes, start):
        # in place: a bincount of counts.size would double the histogram
        np.add.at(counts, codes.ravel().astype(np.int64), 1)

    lockstep_gaps(spec.local_map, [point], iterations_each, burn_in, cells,
                  fold)
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
    # cells with |center - x| <= band on each side; a band of k bin widths,
    # k * (1 / bins), can land a hair below k when multiplied back
    half = int(band * bins + 1e-9)
    density = hist.density
    centers = (np.arange(bins) + 0.5) * bin_width
    values = np.empty(bins)
    for i in range(bins):
        lo, hi = max(0, i - half), min(bins, i + half + 1)
        block = density[(slice(lo, hi),) * hist.n]
        if block.size == 0:
            raise DomainError("empty diagonal tube")
        values[i] = float(np.mean(block))
    return DiagonalTrace(grid=centers, values=values)


def export_density_csv(hist: DensityHistogram, path) -> None:
    """Write `bin_index_1,...,bin_index_n,density` rows, in C order with
    `%.17g` densities and csv's \\r\\n line ends."""
    density = hist.density
    # a histogram holds few distinct densities: format each one once
    values, which = np.unique(density, return_inverse=True)
    text = np.array(["%.17g\r\n" % v for v in values.tolist()], dtype=object)
    # "j,...," of each cell of a plane of the first axis
    prefix = np.array(["".join(map("%d,".__mod__, cell))
                       for cell in np.ndindex(density.shape[1:])], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"bin_index_{i + 1}" for i in range(hist.n)]
                          + ["density"]) + "\r\n")
        for i, plane in enumerate(which.reshape(len(density), -1)):
            head = "%d," % i
            fh.write(head + head.join((prefix + text[plane]).tolist()))


def export_trace_csv(trace: DiagonalTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "trace_value"])
        for x, v in zip(trace.grid, trace.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])
