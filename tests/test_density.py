"""Histogram density estimation and diagonal-trace extraction."""
import csv
import tracemalloc

import numpy as np
import pytest

from cmlsync import lattice
from cmlsync.density import (
    DensityHistogram,
    DiagonalTrace,
    diagonal_trace,
    estimate_density,
    export_density_csv,
    export_trace_csv,
)
from cmlsync.errors import DomainError, MemoryBudgetError
from cmlsync.lattice import MapSpec, NoiseSpec, simulate_ensemble


@pytest.fixture(scope="module")
def hist_flat(tripling):
    # Uncoupled tripling preserves Lebesgue, so the 2d density is flat.
    spec = MapSpec(tripling, 2, 0.0)
    return estimate_density(spec, realizations=50, iterations_each=2000,
                            bins=20, seed=7, burn_in=100)


class TestEstimateDensity:
    def test_deterministic(self, tripling):
        spec = MapSpec(tripling, 2, 0.3)
        a = estimate_density(spec, 5, 200, 10, seed=3, burn_in=10)
        b = estimate_density(spec, 5, 200, 10, seed=3, burn_in=10)
        assert np.array_equal(a.counts, b.counts)

    def test_mass_conservation(self, hist_flat):
        assert hist_flat.counts.sum() == hist_flat.total_samples
        cell_volume = (1.0 / hist_flat.bins_per_axis) ** hist_flat.n
        assert float(hist_flat.density.sum() * cell_volume) == pytest.approx(1.0)

    def test_uncoupled_density_is_flat(self, hist_flat):
        # Every cell should be near density 1 up to sampling noise.
        density = hist_flat.density
        mean_count = hist_flat.total_samples / density.size
        rel_err = 4.0 / np.sqrt(mean_count)  # 4 sigma per cell
        assert np.all(np.abs(density - 1.0) < rel_err)

    def test_three_dimensional(self, tripling):
        spec = MapSpec(tripling, 3, 0.2)
        hist = estimate_density(spec, 10, 300, 8, seed=5, burn_in=50)
        assert hist.counts.shape == (8, 8, 8)
        assert hist.counts.sum() == 3000

    def test_rejects_large_n(self, tripling):
        with pytest.raises(DomainError):
            estimate_density(MapSpec(tripling, 4, 0.1), 1, 10, 4, seed=0)

    def test_memory_budget(self, tripling):
        with pytest.raises(MemoryBudgetError):
            estimate_density(MapSpec(tripling, 3, 0.1), 1, 10, 1000, seed=0)
        with pytest.raises(MemoryBudgetError):  # 2 x 16 GB of states
            estimate_density(MapSpec(tripling, 2, 0.1), 10**9, 10, 10, seed=0)

    def test_fold_holds_one_histogram(self, tripling):
        # 1200^2 int64 counts are 11.5 MB; the pass itself holds under 2 MB
        spec = MapSpec(tripling, 2, 0.3)
        tracemalloc.start()
        try:
            hist = estimate_density(spec, 50, 400, 1200, seed=1, burn_in=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.counts.sum() == 50 * 400
        assert peak < 1.25 * hist.counts.nbytes

    def test_noise_changes_counts(self, tripling):
        spec = MapSpec(tripling, 2, 0.3)
        a = estimate_density(spec, 5, 200, 10, seed=3, burn_in=10)
        b = estimate_density(spec, 5, 200, 10, seed=3, burn_in=10,
                             noise=NoiseSpec(1e-2))
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    def test_counts_are_the_ensemble_cells(self, tripling, n, eps):
        # the pass's chunks resume the orbit: a length of two chunks and a
        # part of one, from burn-in 0
        spec, r, bins = MapSpec(tripling, n, 0.3), 8, 9
        length = 2 * (lattice._CHUNK_ELEMENTS // (r * n)) + 3
        hist = estimate_density(spec, r, length, bins, seed=5,
                                noise=NoiseSpec(eps), burn_in=0)
        orbit = simulate_ensemble(spec, r, length, 5, NoiseSpec(eps), 0)
        cells = np.minimum((orbit * bins).astype(np.int64), bins - 1)
        codes = cells @ (bins ** np.arange(n - 1, -1, -1))
        expect = np.bincount(codes.ravel(), minlength=bins**n)
        assert np.array_equal(hist.counts, expect.reshape((bins,) * n))
        assert hist.total_samples == r * length


class TestDiagonalTrace:
    def test_flat_density_flat_trace(self, hist_flat):
        trace = diagonal_trace(hist_flat)
        assert trace.grid.shape == trace.values.shape == (20,)
        assert np.all(np.abs(trace.values - 1.0) < 0.1)

    def test_band_validation(self, hist_flat):
        with pytest.raises(DomainError):
            diagonal_trace(hist_flat, band=0.01)  # narrower than one bin

    @pytest.mark.parametrize("bins", [49, 60, 98])
    def test_tube_width_in_cells(self, bins):
        # at 49 and 98 bins, 2 * (1 / bins) * bins is a hair below 2
        counts = np.arange(bins * bins, dtype=np.int64).reshape(bins, bins)**2
        hist = DensityHistogram(2, bins, counts, int(counts.sum()))
        i = bins // 2
        for band, half in ((None, 2), (1.0 / bins, 1), (2.0 / bins, 2)):
            trace = diagonal_trace(hist, band)
            tube = hist.density[i - half:i + half + 1, i - half:i + half + 1]
            assert trace.values[i] == np.mean(tube)

    def test_as_function_interpolates(self, hist_flat):
        f = diagonal_trace(hist_flat).as_function()
        x = np.linspace(0.0, 1.0, 33)
        out = np.asarray(f(x))
        assert out.shape == x.shape
        assert np.all(np.abs(out - 1.0) < 0.15)

    def test_trace_feeds_formula(self, hist_flat, tripling):
        # A near-flat estimated trace should reproduce the flat closed form.
        from cmlsync.theory import TheoryInputs, ei_sync_formula

        f = diagonal_trace(hist_flat).as_function()
        with_trace = ei_sync_formula(
            TheoryInputs(n=2, gamma=0.0, lam=1 / 3, density_trace=f), tripling
        )
        flat = ei_sync_formula(TheoryInputs(n=2, gamma=0.0, lam=1 / 3), tripling)
        assert with_trace == pytest.approx(flat, abs=0.01)


class TestExports:
    def test_density_csv(self, hist_flat, tmp_path):
        path = tmp_path / "density.csv"
        export_density_csv(hist_flat, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_index_1", "bin_index_2", "density"]
        assert len(rows) == 1 + 20 * 20
        total = sum(float(r[2]) for r in rows[1:]) * (1.0 / 20) ** 2
        assert total == pytest.approx(1.0)

    @pytest.mark.parametrize("n, bins", [(2, 7), (3, 4)])
    def test_density_csv_matches_row_writer(self, tmp_path, n, bins):
        counts = np.random.default_rng(n).integers(0, 9, size=(bins,) * n)
        hist = DensityHistogram(n, bins, counts, int(counts.sum()))
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as fh:  # one csv row per bin
            writer = csv.writer(fh)
            writer.writerow([f"bin_index_{i + 1}" for i in range(n)]
                            + ["density"])
            for idx in np.ndindex(hist.density.shape):
                writer.writerow(list(idx) + [f"{hist.density[idx]:.17g}"])
        path = tmp_path / "density.csv"
        export_density_csv(hist, path)
        assert path.read_bytes() == oracle.read_bytes()

    def test_trace_csv(self, hist_flat, tmp_path):
        trace = diagonal_trace(hist_flat)
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "trace_value"]
        assert len(rows) == 21
        xs = [float(r[0]) for r in rows[1:]]
        assert xs == pytest.approx(list(trace.grid))
