"""Transfer-operator discretization: construction, spectra, open-system EI."""
import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from cmlsync import ulam
from cmlsync.errors import DomainError, MemoryBudgetError
from cmlsync.lattice import LocalMap, MapSpec, step
from cmlsync.ulam import (
    build_ulam,
    ei_spectral,
    export_spectral_report,
    invariant_density_ulam,
    make_perturbed,
    perturbed_leading_eigenvalue,
    strip_mass,
)


# ---------------------------------------------------------------------------
# Bit-identity oracle: the sampled build written plainly.  Every subgrid point
# goes through lattice.step, each chunk of rows becomes a scipy COO -> CSR
# block (which sums the duplicate samples), and the blocks are summed.  The
# full reference has a row per cell (a, b); the folded one, which build_ulam
# must match, a row per cell a <= b, each target (tx, ty) sorted first.
# ---------------------------------------------------------------------------

def sector_index(a, b, k):
    return a * k - a * (a - 1) // 2 + (b - a)


def _coo_build(spec, k, samples_per_cell, row_x, row_y, column, size,
               chunk_cells=97):
    s = int(round(np.sqrt(samples_per_cell)))
    base = (np.arange(s) + 0.5) / s
    ox, oy = np.meshgrid(base, base, indexing="ij")
    offsets = np.column_stack([ox.ravel(), oy.ravel()])
    matrix = None
    for start in range(0, size, chunk_cells):
        flat = np.arange(start, min(start + chunk_cells, size))
        corners = np.column_stack([row_x[flat], row_y[flat]]) / k
        pts = (corners[:, None, :] + offsets[None, :, :] / k).reshape(-1, 2)
        img = step(pts, spec)
        tx = np.minimum((img[:, 0] * k).astype(np.int64), k - 1)
        ty = np.minimum((img[:, 1] * k).astype(np.int64), k - 1)
        rows = np.repeat(flat, s * s)
        block = sparse.coo_matrix(
            (np.full(rows.size, 1.0 / (s * s)), (rows, column(tx, ty))),
            shape=(size, size),
        ).tocsr()
        matrix = block if matrix is None else matrix + block
    return matrix


def full_reference_build(spec, k, samples_per_cell):
    row_x, row_y = np.divmod(np.arange(k * k), k)
    return _coo_build(spec, k, samples_per_cell, row_x, row_y,
                      lambda tx, ty: tx * k + ty, k * k)


def reference_build(spec, k, samples_per_cell):
    row_x, row_y = np.triu_indices(k)
    return _coo_build(
        spec, k, samples_per_cell, row_x, row_y,
        lambda tx, ty: sector_index(np.minimum(tx, ty), np.maximum(tx, ty), k),
        row_x.size)


def same_csr(a, b) -> bool:
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.tobytes() == b.data.tobytes())


# Not full-branch: uneven branches, one of them decreasing, so cells straddle
# wraps where no k lines up with them.
SKEW = LocalMap((0.0, 0.35, 1.0), (3.0, -2.5), (0.2, 0.9))
LOCAL_MAPS = st.one_of(st.integers(2, 5).map(LocalMap.affine_mod1),
                       st.just(SKEW))
BINS = st.integers(1, 40)
GAMMAS = st.one_of(st.just(0.0), st.floats(0.0, 0.95, exclude_max=True))
# 256 and 289 samples need counts wider than one byte
SAMPLES = st.sampled_from([1, 4, 9, 81, 256, 289])


def full_grid_ladder(matrix, k, nus, tol=1e-13):
    """(rho, mu(strip)) per nu from power iterations on the full k^2 grid,
    with the hole |cx - cy| <= nu by cell center."""
    def power(mask, v):
        for _ in range(100_000):
            w = (v * mask) @ matrix
            total = w.sum()
            w /= total
            if np.abs(w - v).sum() < tol:
                return total, w
            v = w
        raise AssertionError("full-grid power iteration stalled")

    c = (np.arange(k) + 0.5) / k
    gap = np.abs(np.repeat(c, k) - np.tile(c, k))
    _, pi = power(np.ones(k * k), np.full(k * k, 1.0 / (k * k)))
    out = []
    for nu in nus:
        hole = gap <= nu
        rho, _ = power(np.where(hole, 0.0, 1.0), pi)
        out.append((rho, pi[hole].sum()))
    return out


class _RowVectorProduct:
    """Stands in for `UlamOperator.transposed`: ``self @ v`` is
    ``v @ matrix``, the product the power iterations took before."""

    def __init__(self, matrix):
        self.matrix = matrix

    def __matmul__(self, v):
        return v @ self.matrix


@pytest.fixture(scope="module")
def op_uncoupled(tripling):
    # k = 9 is a multiple of the branch count, so the gamma = 0 operator
    # built from midpoint subgrids is exact.
    return build_ulam(MapSpec(tripling, 2, 0.0), k=9)


@pytest.fixture(scope="module")
def op_coupled(tripling):
    return build_ulam(MapSpec(tripling, 2, 0.3), k=60)


class TestBuild:
    def test_skew_expansion_bound(self):
        assert SKEW.expansion_bound == 0.4  # 1 / min(|3.0|, |-2.5|)

    def test_row_stochastic(self, op_uncoupled, op_coupled):
        for op in (op_uncoupled, op_coupled):
            sums = np.asarray(op.matrix.sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, atol=1e-12)

    def test_uncoupled_rows_exact(self, op_uncoupled):
        # Each cell (a, b) of the uncoupled 2d tripling map covers exactly
        # the 9 image cells (3a + i, 3b + j) mod 9 with weight 1/9 each; a
        # row of the sector holds those weights folded onto cells u <= v.
        k = op_uncoupled.k
        dense = op_uncoupled.matrix.toarray()
        for row, (a, b) in zip(dense, zip(*np.triu_indices(k))):
            expected = np.zeros_like(row)
            for i in range(3):
                for j in range(3):
                    u, v = (3 * a + i) % k, (3 * b + j) % k
                    expected[sector_index(min(u, v), max(u, v), k)] += 1.0 / 9.0
            assert np.array_equal(row != 0, expected != 0)
            assert np.allclose(row, expected, rtol=0.0, atol=1e-15)

    def test_deterministic_rebuild(self, tripling):
        spec = MapSpec(tripling, 2, 0.3)
        a = build_ulam(spec, k=15)
        b = build_ulam(spec, k=15)
        assert (a.matrix != b.matrix).nnz == 0

    @settings(max_examples=80, deadline=None)
    @given(LOCAL_MAPS, BINS, GAMMAS, SAMPLES, st.integers(1, 1 << 13))
    @example(LocalMap.affine_mod1(3), 12, 0.3, 81, 1 << 14)
    @example(LocalMap.affine_mod1(3), 13, 0.3, 81, 1)
    @example(LocalMap.affine_mod1(2), 7, 0.0, 9, 50)
    @example(SKEW, 31, 0.6, 81, 1 << 14)
    @example(LocalMap.affine_mod1(2), 1, 0.0, 289, 1 << 13)  # count 289
    @example(SKEW, 17, 0.3, 256, 1 << 13)
    def test_matches_reference(self, local_map, k, gamma, spc, chunk_pairs):
        # chunk_pairs down to 1 puts every row in a chunk of its own
        spec = MapSpec(local_map, 2, gamma)
        with mock.patch.object(ulam, "_CHUNK_PAIRS", chunk_pairs):
            got = build_ulam(spec, k, samples_per_cell=spc).matrix
        assert same_csr(got, reference_build(spec, k, spc))

    @settings(max_examples=80, deadline=None)
    @given(LOCAL_MAPS, BINS, GAMMAS, SAMPLES)
    @example(SKEW, 31, 0.6, 81)
    @example(LocalMap.affine_mod1(2), 7, 0.0, 9)
    def test_full_reference_commutes_with_swap(self, local_map, k, gamma, spc):
        # The fold is exact: the full matrix is P(sigma i, sigma j) = P(i, j),
        # bit for bit, for the swap sigma of (a, b) and (b, a).
        full = full_reference_build(MapSpec(local_map, 2, gamma), k, spc)
        a, b = np.divmod(np.arange(k * k), k)
        swap = b * k + a
        swapped = full[swap][:, swap].tocsr()
        swapped.sort_indices()
        assert same_csr(swapped, full)

    @pytest.mark.parametrize("k", [60, 61])
    def test_matches_reference_in_default_chunks(self, tripling, k):
        spec = MapSpec(tripling, 2, 0.3)
        assert same_csr(build_ulam(spec, k).matrix, reference_build(spec, k, 81))

    def test_build_peak_and_one_stored_copy(self, tripling):
        # k = 200 is not a multiple of the branch count, so cells straddle
        # the branch ends and their images spread over the whole axis
        spec = MapSpec(tripling, 2, 0.3)
        build_ulam(spec, k=3)  # scipy.sparse fully loaded before tracing
        tracemalloc.start()
        try:
            op = build_ulam(spec, k=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = op.matrix
        assert m.nnz == m.data.size == m.indices.size == m.indptr[-1]
        assert peak < 1.6 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(op.transposed, name),
                                    getattr(m, name))

    def test_input_validation(self, tripling):
        with pytest.raises(DomainError):
            build_ulam(MapSpec(tripling, 3, 0.1), k=9)
        with pytest.raises(MemoryBudgetError):
            build_ulam(MapSpec(tripling, 2, 0.1), k=5000)
        with pytest.raises(DomainError):
            build_ulam(MapSpec(tripling, 2, 0.1), k=9, samples_per_cell=10)


class TestSpectra:
    def test_uncoupled_invariant_flat(self, op_uncoupled):
        # Lebesgue measure in orbit masses: 2/k^2 off the diagonal, 1/k^2 on it
        pi, _ = invariant_density_ulam(op_uncoupled)
        k = op_uncoupled.k
        a, b = np.triu_indices(k)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pi, np.where(a == b, 1.0, 2.0) / k**2, atol=1e-12)

    def test_coupled_invariant_probability(self, op_coupled):
        pi, _ = invariant_density_ulam(op_coupled)
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(pi >= 0.0)

    def test_transposed_is_built_once_and_sorted(self, op_coupled):
        t = op_coupled.transposed
        assert t is op_coupled.transposed
        assert t.has_sorted_indices
        assert (t != op_coupled.matrix.T).nnz == 0

    @pytest.mark.parametrize("name", ["op_uncoupled", "op_coupled"])
    def test_power_iterations_match_row_vector_form(self, request, name):
        op = request.getfixturevalue(name)
        old = dataclasses.replace(op)
        old.transposed = _RowVectorProduct(op.matrix)
        (pi, sweeps), (pi_old, sweeps_old) = (invariant_density_ulam(op),
                                              invariant_density_ulam(old))
        assert pi.tobytes() == pi_old.tobytes() and sweeps == sweeps_old
        for nu in (0.05, 0.02):
            # (rho, sweeps) of each
            rho = perturbed_leading_eigenvalue(make_perturbed(op, nu), start=pi)
            rho_old = perturbed_leading_eigenvalue(make_perturbed(old, nu),
                                                   start=pi_old)
            assert rho == rho_old


    @pytest.mark.parametrize("k", [9, 30, 31])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6])
    def test_sector_matches_full_grid(self, tripling, gamma, k):
        # The swap sector keeps the full operator's rho and strip mass.
        spec = MapSpec(tripling, 2, gamma)
        nus = [0.25, 0.12, 0.05]
        ladder = ei_spectral(build_ulam(spec, k), nus).metadata["ladder"]
        full = full_grid_ladder(full_reference_build(spec, k, 81), k, nus)
        for rung, (rho, mu) in zip(ladder, full):
            assert abs(rung["rho"] - rho) <= 1e-9
            assert abs(rung["mu_strip"] - mu) <= 1e-9


class TestPerturbed:
    def test_hole_geometry(self, op_coupled):
        pert = make_perturbed(op_coupled, 0.05)
        xs, ys = op_coupled.cell_centers()
        gap = np.abs(xs - ys)
        assert np.all(gap[pert.hole_cells] <= 0.05)
        assert np.all(np.delete(gap, pert.hole_cells) > 0.05)

    def test_nu_validation(self, op_coupled):
        with pytest.raises(DomainError):
            make_perturbed(op_coupled, 0.0)
        with pytest.raises(DomainError):
            make_perturbed(op_coupled, 0.999)  # hole covers the domain

    def test_leading_eigenvalue_below_one(self, op_coupled):
        pi, _ = invariant_density_ulam(op_coupled)
        pert = make_perturbed(op_coupled, 0.05)
        rho, _ = perturbed_leading_eigenvalue(pert, start=pi)
        assert 0.0 < rho < 1.0
        # Mass deficit should be on the order of the strip measure.
        mu = strip_mass(pert, pi)
        assert 0.0 < mu < 0.25
        assert (1.0 - rho) / mu == pytest.approx(0.6, abs=0.4)


class TestEiSpectral:
    def test_uncoupled_matches_closed_form(self, tripling):
        # theta_2 at gamma = 0 is 1 - 1/3 = 2/3; the nu-ladder extrapolation
        # carries a small positive residual at moderate k.
        op = build_ulam(MapSpec(tripling, 2, 0.0), k=300)
        est = ei_spectral(op, [0.04, 0.02, 0.01])
        assert est.method == "spectral_ulam"
        assert 0.60 <= est.theta <= 0.78
        ladder = est.metadata["ladder"]
        assert [row["nu"] for row in ladder] == [0.04, 0.02, 0.01]
        for row in ladder:
            assert 0.0 < row["rho"] < 1.0
            assert 0.0 < row["theta_hat"] <= 1.2

    def test_benchmark_ladder(self, tripling):
        # k = 300, gamma = 0.3 and the ladder of the spectral-density
        # benchmark: theta_kl as measured for ROADMAP item 3, and every power
        # iteration converges far below its `_MAX_SWEEPS` cap.
        op = build_ulam(MapSpec(tripling, 2, 0.3), k=300)
        est = ei_spectral(op, [0.04, 0.02, 0.01])
        assert est.metadata["theta_kl"] == pytest.approx(0.5367, abs=5e-5)
        assert est.metadata["invariant_iterations"] < 100
        for row in est.metadata["ladder"]:
            assert row["iterations"] < 100
            assert row["theta_kl_hat"] == 1.0 - row["q0"]

    def test_single_nu_no_extrapolation(self, op_coupled):
        est = ei_spectral(op_coupled, [0.03])
        ladder = est.metadata["ladder"]
        assert len(ladder) == 1
        assert est.metadata["theta_raw"] == pytest.approx(ladder[0]["theta_hat"])
        assert est.metadata["theta_kl"] == ladder[0]["theta_kl_hat"]


class TestExports:
    def test_spectral_report_json(self, op_coupled, tmp_path):
        est = ei_spectral(op_coupled, [0.04, 0.02])
        path = tmp_path / "report.json"
        export_spectral_report(est, path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["method"] == "spectral_ulam"
        assert data["theta"] == pytest.approx(est.theta)
        assert data["theta_kl"] == est.metadata["theta_kl"]
        assert data["invariant_iterations"] >= 1
        assert len(data["ladder"]) == 2
        for row in data["ladder"]:
            assert set(row) == {"nu", "rho", "mu_strip", "theta_hat", "q0",
                                "theta_kl_hat", "iterations"}
