"""Transfer-operator discretization: construction, spectra, open-system EI."""
import csv
import dataclasses
import json
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
    export_operator_csv,
    export_spectral_report,
    invariant_density_ulam,
    make_perturbed,
    perturbed_leading_eigenvalue,
    strip_mass,
)


# ---------------------------------------------------------------------------
# Bit-identity oracle: the sampled build written plainly.  Every subgrid point
# goes through lattice.step, each chunk of cells becomes a scipy COO -> CSR
# block (which sums the duplicate samples), and the blocks are summed.
# ---------------------------------------------------------------------------

def reference_build(spec, k, samples_per_cell, chunk_cells=97):
    s = int(round(np.sqrt(samples_per_cell)))
    cells = k * k
    base = (np.arange(s) + 0.5) / s
    ox, oy = np.meshgrid(base, base, indexing="ij")
    offsets = np.column_stack([ox.ravel(), oy.ravel()])
    matrix = None
    for start in range(0, cells, chunk_cells):
        flat = np.arange(start, min(start + chunk_cells, cells))
        corners = np.column_stack([flat // k, flat % k]) / k
        pts = (corners[:, None, :] + offsets[None, :, :] / k).reshape(-1, 2)
        img = step(pts, spec)
        tx = np.minimum((img[:, 0] * k).astype(np.int64), k - 1)
        ty = np.minimum((img[:, 1] * k).astype(np.int64), k - 1)
        rows = np.repeat(flat, s * s)
        block = sparse.coo_matrix(
            (np.full(rows.size, 1.0 / (s * s)), (rows, tx * k + ty)),
            shape=(cells, cells),
        ).tocsr()
        matrix = block if matrix is None else matrix + block
    return matrix


def same_csr(a, b) -> bool:
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.tobytes() == b.data.tobytes())


# Not full-branch: uneven branches, one of them decreasing, so cells straddle
# wraps where no k lines up with them.
SKEW = LocalMap((0.0, 0.35, 1.0), (3.0, -2.5), (0.2, 0.9), 0.4)


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
    def test_row_stochastic(self, op_uncoupled, op_coupled):
        for op in (op_uncoupled, op_coupled):
            sums = np.asarray(op.matrix.sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, atol=1e-12)

    def test_uncoupled_rows_exact(self, op_uncoupled):
        # Each cell of the uncoupled 2d tripling map covers exactly 9 image
        # cells with weight 1/9 each.
        dense = op_uncoupled.matrix.toarray()
        for row in dense:
            nz = row[row > 0]
            assert nz.size == 9
            assert np.allclose(nz, 1.0 / 9.0, atol=1e-15)

    def test_deterministic_rebuild(self, tripling):
        spec = MapSpec(tripling, 2, 0.3)
        a = build_ulam(spec, k=15)
        b = build_ulam(spec, k=15)
        assert (a.matrix != b.matrix).nnz == 0

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.integers(2, 5).map(LocalMap.affine_mod1), st.just(SKEW)),
           st.integers(1, 40),
           st.one_of(st.just(0.0), st.floats(0.0, 0.95, exclude_max=True)),
           st.sampled_from([1, 4, 9, 81]),
           st.integers(1, 1 << 13))
    @example(LocalMap.affine_mod1(3), 12, 0.3, 81, 1 << 14)
    @example(LocalMap.affine_mod1(3), 13, 0.3, 81, 1)
    @example(LocalMap.affine_mod1(2), 7, 0.0, 9, 50)
    @example(SKEW, 31, 0.6, 81, 1 << 14)
    def test_matches_reference(self, local_map, k, gamma, spc, chunk_pairs):
        # chunk_pairs down to 1 puts every row in a chunk of its own
        spec = MapSpec(local_map, 2, gamma)
        with mock.patch.object(ulam, "_CHUNK_PAIRS", chunk_pairs):
            got = build_ulam(spec, k, samples_per_cell=spc).matrix
        assert same_csr(got, reference_build(spec, k, spc))

    @pytest.mark.parametrize("k", [60, 61])
    def test_matches_reference_in_default_chunks(self, tripling, k):
        spec = MapSpec(tripling, 2, 0.3)
        assert same_csr(build_ulam(spec, k).matrix, reference_build(spec, k, 81))

    def test_input_validation(self, tripling):
        with pytest.raises(DomainError):
            build_ulam(MapSpec(tripling, 3, 0.1), k=9)
        with pytest.raises(MemoryBudgetError):
            build_ulam(MapSpec(tripling, 2, 0.1), k=5000)
        with pytest.raises(DomainError):
            build_ulam(MapSpec(tripling, 2, 0.1), k=9, samples_per_cell=10)


class TestSpectra:
    def test_uncoupled_invariant_flat(self, op_uncoupled):
        pi = invariant_density_ulam(op_uncoupled)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pi, 1.0 / op_uncoupled.cells, atol=1e-12)

    def test_coupled_invariant_probability(self, op_coupled):
        pi = invariant_density_ulam(op_coupled)
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
        pi, pi_old = invariant_density_ulam(op), invariant_density_ulam(old)
        assert pi.tobytes() == pi_old.tobytes()
        for nu in (0.05, 0.02):
            rho = perturbed_leading_eigenvalue(make_perturbed(op, nu), start=pi)
            rho_old = perturbed_leading_eigenvalue(make_perturbed(old, nu),
                                                   start=pi_old)
            assert rho == rho_old


class TestPerturbed:
    def test_hole_geometry(self, op_coupled):
        pert = make_perturbed(op_coupled, 0.05)
        xs, ys = op_coupled.cell_centers()
        gap = np.abs(xs - ys)
        assert np.all(gap[pert.hole_cells] <= 0.05)
        assert np.all(gap[pert.boundary_cells] > 0.05)
        assert np.all(gap[pert.boundary_cells] <= 0.05 + 1.0 / op_coupled.k)

    def test_nu_validation(self, op_coupled):
        with pytest.raises(DomainError):
            make_perturbed(op_coupled, 0.0)
        with pytest.raises(DomainError):
            make_perturbed(op_coupled, 0.999)  # hole covers the domain

    def test_leading_eigenvalue_below_one(self, op_coupled):
        pi = invariant_density_ulam(op_coupled)
        pert = make_perturbed(op_coupled, 0.05)
        rho = perturbed_leading_eigenvalue(pert, start=pi)
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

    def test_single_nu_no_extrapolation(self, op_coupled):
        est = ei_spectral(op_coupled, [0.03])
        ladder = est.metadata["ladder"]
        assert len(ladder) == 1
        assert est.metadata["theta_raw"] == pytest.approx(ladder[0]["theta_hat"])


class TestExports:
    def test_operator_csv(self, op_uncoupled, tmp_path):
        path = tmp_path / "op.csv"
        export_operator_csv(op_uncoupled, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "col", "value"]
        assert len(rows) == 1 + op_uncoupled.matrix.nnz
        mass = sum(float(r[2]) for r in rows[1:])
        assert mass == pytest.approx(op_uncoupled.cells)

    def test_spectral_report_json(self, op_coupled, tmp_path):
        est = ei_spectral(op_coupled, [0.04, 0.02])
        path = tmp_path / "report.json"
        export_spectral_report(est, path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["method"] == "spectral_ulam"
        assert data["theta"] == pytest.approx(est.theta)
        assert len(data["ladder"]) == 2
