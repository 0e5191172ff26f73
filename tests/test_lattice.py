import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmlsync import lattice
from cmlsync.density import estimate_density
from cmlsync.errors import DomainError, MemoryBudgetError
from cmlsync.observables import OBSERVABLES
from cmlsync.lattice import (
    _NOISE_BLOCK_STEPS,
    GridPoint,
    LocalMap,
    MapSpec,
    NoiseSpec,
    _rng_for,
    coupling_det,
    coupling_matrix,
    export_trajectory_csv,
    lockstep_gaps,
    simulate,
    simulate_ensemble,
    step,
    step_noisy,
)


class TestLocalMap:
    def test_tripling_values(self, tripling):
        assert tripling(0.1) == pytest.approx(0.3)
        assert tripling(0.5) == pytest.approx(0.5)  # 1.5 mod 1
        assert tripling(0.9) == pytest.approx(0.7)

    def test_branch_boundary_right_closed(self, tripling):
        # a point exactly on a boundary belongs to the branch starting there
        assert tripling(1.0 / 3.0) == pytest.approx(3 * (1.0 / 3.0) - 1.0)
        assert tripling(0.0) == 0.0

    def test_derivative_constant(self, tripling):
        x = np.linspace(0.01, 0.99, 57)
        assert np.all(tripling.derivative(x) == 3.0)

    def test_output_in_unit_interval(self, tripling):
        x = np.random.default_rng(0).uniform(0, 1, 10_000)
        y = tripling(x)
        assert np.all((y >= 0.0) & (y < 1.0))

    def test_invalid_slope(self):
        with pytest.raises(DomainError):
            LocalMap.affine_mod1(1)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_expansion_bound_is_inverse_slope(self, s):
        assert LocalMap.affine_mod1(s).expansion_bound.hex() == (1.0 / s).hex()

    def test_expansion_bound_of_uneven_map(self):
        assert UNEVEN.expansion_bound == 0.4  # 1 / min(2.5, 4.0)

    @pytest.mark.parametrize("slopes", [(2.0, 1.0), (-1.0, 3.0), (0.5, 2.0),
                                        (0.0, 2.0)])
    def test_rejects_branch_without_expansion(self, slopes):
        with pytest.raises(DomainError):
            LocalMap((0.0, 0.5, 1.0), slopes, (0.0, 0.5))

    def test_rejects_out_of_range_argument(self, tripling):
        for x in (-0.1, 1.0, np.nan, np.array([0.5, np.nan])):
            with pytest.raises(DomainError):
                tripling(x)
            with pytest.raises(DomainError):
                tripling.derivative(x)


class TestStep:
    def test_shape_and_range(self, spec2, rng):
        x = rng.uniform(0, 1, (100, 2))
        y = step(x, spec2)
        assert y.shape == (100, 2)
        assert np.all((y >= 0.0) & (y < 1.0))

    def test_gamma_zero_is_uncoupled(self, tripling, rng):
        spec = MapSpec(tripling, 3, 0.0)
        x = rng.uniform(0, 1, 3)
        assert step(x, spec) == pytest.approx([tripling(v) for v in x])

    def test_diagonal_invariant(self, tripling):
        spec = MapSpec(tripling, 4, 0.35)
        x = np.full(4, 0.271828)
        y = step(x, spec)
        assert np.ptp(y) == 0.0

    def test_rejects_out_of_range_state(self, spec2):
        with pytest.raises(DomainError):
            step(np.array([0.5, 1.0]), spec2)
        with pytest.raises(DomainError):
            step(np.array([0.5, np.nan]), spec2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 8),
        st.floats(0.0, 0.95),
        st.floats(0.0, 0.999999),
    )
    def test_diagonal_invariance_property(self, n, gamma, v):
        spec = MapSpec(LocalMap.affine_mod1(3), n, gamma)
        y = step(np.full(n, v), spec)
        assert np.ptp(y) == 0.0


class TestNoise:
    def test_zero_noise_matches_deterministic(self, spec2, rng):
        x = rng.uniform(0, 1, (50, 2))
        y = step_noisy(x, spec2, NoiseSpec(0.0), rng)
        assert np.array_equal(y, step(x, spec2))

    def test_noise_bounded(self, spec2):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (2000, 2))
        det = step(x, spec2)
        noisy = step_noisy(x, spec2, NoiseSpec(1e-3), np.random.default_rng(3))
        shift = np.minimum(np.abs(noisy - det), 1.0 - np.abs(noisy - det))
        assert np.all(shift <= 5e-4 + 1e-15)
        assert np.all((noisy >= 0.0) & (noisy < 1.0))

    def test_negative_intensity_rejected(self):
        for eps in (-0.1, np.nan, np.inf):
            with pytest.raises(DomainError):
                NoiseSpec(eps)


class TestCoupling:
    def test_matrix_rows_sum_to_one(self):
        c = coupling_matrix(6, 0.4)
        assert np.allclose(c.sum(axis=1), 1.0)
        assert np.allclose(c, c.T)

    def test_det_matches_brute_force(self):
        for n in range(2, 9):
            for gamma in np.linspace(0.0, 0.9, 10):
                assert coupling_det(n, gamma) == pytest.approx(
                    np.linalg.det(coupling_matrix(n, gamma)), abs=1e-10
                )

    def test_gamma_one_excluded(self):
        with pytest.raises(DomainError):
            coupling_matrix(3, 1.0)


class TestSimulate:
    def test_deterministic_given_seed(self, spec2):
        assert np.array_equal(simulate(spec2, 500, seed=9),
                              simulate(spec2, 500, seed=9))

    def test_burn_in_equals_tail_of_longer_run(self, spec2):
        a = simulate(spec2, 300, burn_in=100, seed=4)
        b = simulate(spec2, 400, burn_in=0, seed=4)
        assert np.array_equal(a, b[100:])

    def test_ensemble_shape_and_determinism(self, spec2):
        e1 = simulate_ensemble(spec2, 4, 200, seed=8, burn_in=50)
        e2 = simulate_ensemble(spec2, 4, 200, seed=8, burn_in=50)
        assert e1.shape == (200, 4, 2)
        assert np.array_equal(e1, e2)
        # different realizations differ
        assert not np.array_equal(e1[:, 0, :], e1[:, 1, :])

    def test_export_round_trips_doubles(self, spec2, tmp_path):
        traj = simulate(spec2, 20, seed=1)
        path = tmp_path / "t.csv"
        export_trajectory_csv(traj, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
        assert np.array_equal(back, traj)


class TestMapSpec:
    def test_invalid_sizes(self, tripling):
        with pytest.raises(DomainError):
            MapSpec(tripling, 1, 0.1)
        with pytest.raises(DomainError):
            MapSpec(tripling, 3, -0.2)

    def test_ei_hypothesis_flag(self, tripling):
        assert MapSpec(tripling, 2, 0.5).ei_hypothesis_ok
        assert not MapSpec(tripling, 2, 0.7).ei_hypothesis_ok


# ---------------------------------------------------------------------------
# Bit-identity oracle: a plain per-step loop over LocalMap.__call__ with the
# mix and the noise written out.  The lattice kernel must match it bit for bit.
# ---------------------------------------------------------------------------

def ref_step(state, spec):
    y = spec.local_map(state)
    out = (1.0 - spec.gamma) * y + (spec.gamma / spec.n) * np.sum(
        y, axis=-1, keepdims=True
    )
    return np.where(out >= 1.0, out - 1.0, out)


def ref_step_noisy(state, spec, noise, rng):
    det = ref_step(state, spec)
    if noise.epsilon == 0.0:
        return det
    omega = rng.uniform(-0.5, 0.5, size=det.shape)
    out = np.mod(det + noise.epsilon * omega, 1.0)
    return np.where(out >= 1.0, 0.0, out)


def ref_orbit(spec, states, length, noise, rng, burn_in):
    for _ in range(burn_in):
        states = ref_step_noisy(states, spec, noise, rng)
    out = np.empty((length,) + states.shape)
    out[0] = states
    for k in range(1, length):
        states = ref_step_noisy(states, spec, noise, rng)
        out[k] = states
    return out


def ref_density(spec, realizations, iterations, bins, seed, noise, burn_in):
    rng = _rng_for(seed)
    states = rng.uniform(0.0, 1.0, size=(realizations, spec.n))
    for _ in range(burn_in):
        states = ref_step_noisy(states, spec, noise, rng)
    counts = np.zeros(bins**spec.n, dtype=np.int64)
    strides = bins ** np.arange(spec.n - 1, -1, -1)
    for _ in range(iterations):
        idx = np.minimum((states * bins).astype(np.int64), bins - 1)
        np.add.at(counts, idx @ strides, 1)
        states = ref_step_noisy(states, spec, noise, rng)
    return counts.reshape((bins,) * spec.n)


def kernel_orbit(spec, states, length, burn_in, draw=None):
    """The (length, R, n) orbit of the (R, n) ``states`` under the lock-step
    kernel's time loop, with the kicks ``draw(steps)`` returns."""
    update = lattice._lattice_update(spec.local_map,
                                     *lattice._mix_weights(spec),
                                     [states.shape])
    out = np.empty((length, states.size))
    lattice._advance(update, states.reshape(-1), burn_in, draw, out,
                     states.size)
    return out.reshape((length,) + states.shape)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# A piecewise-affine map that is not full-branch: the kernel's branch lookup.
UNEVEN = LocalMap((0.0, 0.4, 1.0), (2.5, 4.0), (0.0, 0.3))

slopes = st.integers(2, 9)
sizes = st.integers(2, 23)
gammas = st.floats(0.0, 0.95, exclude_max=True)
epsilons = st.sampled_from([0.0, 1e-4, 1e-2])
burn_ins = st.sampled_from([0, 1, 7, 99, _NOISE_BLOCK_STEPS - 1])
lengths = st.sampled_from([1, 2, 41, _NOISE_BLOCK_STEPS - 1, _NOISE_BLOCK_STEPS,
                           _NOISE_BLOCK_STEPS + 1, 2 * _NOISE_BLOCK_STEPS + 3])


# few rows, or a block wide enough for the kernel's column sums
realizations = st.one_of(st.integers(1, 4), st.integers(5, 200))


def boundary_values(local_map: LocalMap) -> list[float]:
    """Every branch boundary in [0, 1) and its two float neighbours."""
    vals = {np.nextafter(1.0, 0.0)}
    for b in local_map.boundaries[:-1]:
        vals.update((b, np.nextafter(b, 0.0), np.nextafter(b, 1.0)))
    return sorted(v for v in vals if 0.0 <= v < 1.0)


class TestKernelOracle:
    def test_full_branch_detection(self):
        assert LocalMap.affine_mod1(5)._full_branch_slope == 5
        assert UNEVEN._full_branch_slope is None

    @pytest.mark.parametrize("n", range(2, 8))
    def test_column_adds_are_the_reduce(self, n):
        # the kernel sums the sites of a block of n < 8 column by column:
        # numpy's pairwise sum adds fewer than 8 terms left to right
        y = np.random.default_rng(n).random((4000, n))
        y[::7] **= 40  # tiny next to large terms, where order would show
        y[1::7, 0] = np.nextafter(1.0, 0.0)
        total = y[:, 0] + y[:, 1]
        for j in range(2, n):
            total += y[:, j]
        assert same_bits(total, np.add.reduce(y, axis=-1))

    @settings(max_examples=60, deadline=None)
    @given(slopes, sizes, gammas, epsilons, realizations, lengths,
           burn_ins, st.integers(0, 2**32))
    # either side of the column-sum rule (n < 8 and R >= 16 (n - 2))
    @example(3, 2, 0.3, 0.0, 1, 41, 7, 1)
    @example(3, 3, 0.3, 1e-2, 15, 41, 7, 2)
    @example(3, 3, 0.3, 1e-2, 16, 41, 7, 2)
    @example(5, 7, 0.6, 0.0, 79, 41, 0, 3)
    @example(5, 7, 0.6, 0.0, 80, 41, 0, 3)
    @example(2, 8, 0.45, 1e-4, 200, 41, 1, 4)
    def test_simulate_ensemble(self, slope, n, gamma, eps, r, length, burn_in,
                               seed):
        spec = MapSpec(LocalMap.affine_mod1(slope), n, gamma)
        rng = _rng_for(seed)
        expect = ref_orbit(spec, rng.uniform(0.0, 1.0, size=(r, n)), length,
                           NoiseSpec(eps), rng, burn_in)
        got = simulate_ensemble(spec, r, length, seed, NoiseSpec(eps), burn_in)
        assert same_bits(got, expect)

    @settings(max_examples=40, deadline=None)
    @given(slopes, sizes, gammas, epsilons, lengths, burn_ins,
           st.integers(0, 2**32))
    def test_simulate(self, slope, n, gamma, eps, length, burn_in, seed):
        spec = MapSpec(LocalMap.affine_mod1(slope), n, gamma)
        rng = _rng_for(seed)
        expect = ref_orbit(spec, rng.uniform(0.0, 1.0, size=n), length,
                           NoiseSpec(eps), rng, burn_in)
        got = simulate(spec, length, NoiseSpec(eps), burn_in, seed)
        assert same_bits(got, expect)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(slopes.map(LocalMap.affine_mod1), st.just(UNEVEN)),
           sizes, gammas, st.data())
    def test_step_at_branch_boundaries(self, local_map, n, gamma, data):
        spec = MapSpec(local_map, n, gamma)
        vals = boundary_values(local_map)
        x = np.array(data.draw(st.lists(st.sampled_from(vals), min_size=3 * n,
                                        max_size=3 * n))).reshape(3, n)
        assert same_bits(step(x, spec), ref_step(x, spec))
        assert same_bits(step(x[0], spec), ref_step(x[0], spec))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(slopes.map(LocalMap.affine_mod1), st.just(UNEVEN)),
           sizes, gammas, epsilons, st.data())
    def test_orbit_from_branch_boundaries(self, local_map, n, gamma, eps, data):
        spec = MapSpec(local_map, n, gamma)
        vals = boundary_values(local_map)
        x0 = np.array(data.draw(st.lists(st.sampled_from(vals), min_size=n,
                                         max_size=n))).reshape(1, n)
        expect = ref_orbit(spec, x0, 60, NoiseSpec(eps), _rng_for(3), 0)
        rng = _rng_for(3)
        draw = None if eps == 0.0 else (
            lambda steps: eps * rng.uniform(-0.5, 0.5, size=(steps, n)))
        assert same_bits(kernel_orbit(spec, x0, 60, 0, draw), expect)

    def test_step_on_every_boundary_grid(self):
        for slope in range(2, 10):
            local_map = LocalMap.affine_mod1(slope)
            vals = np.array(boundary_values(local_map))
            x = np.stack(np.meshgrid(vals, vals), axis=-1).reshape(-1, 2)
            for gamma in (0.0, 0.3, 0.9):
                spec = MapSpec(local_map, 2, gamma)
                assert same_bits(step(x, spec), ref_step(x, spec))

    def test_mix_round_up_guard(self):
        # Diagonal states just below a boundary map to 1 - 2^-53 at every
        # site; for some gamma the mix then rounds up to exactly 1.0.
        fired = 0
        for slope in range(2, 10):
            local_map = LocalMap.affine_mod1(slope)
            below = [np.nextafter(b, 0.0) for b in local_map.boundaries[1:]]
            for n in (2, 3, 5):
                x = np.repeat(np.array(below)[:, None], n, axis=1)
                for gamma in np.linspace(0.0, 0.95, 400):
                    spec = MapSpec(local_map, n, gamma)
                    y = local_map(x)
                    mix = (1.0 - gamma) * y + (gamma / n) * y.sum(-1, keepdims=True)
                    fired += int(np.any(mix >= 1.0))
                    got = step(x, spec)
                    assert same_bits(got, ref_step(x, spec))
                    assert np.all((got >= 0.0) & (got < 1.0))
        assert fired > 0

    def test_noise_wrap_guard(self, spec2):
        # A kick of -1e-300 on a state at 0 gives mod(-1e-300, 1) == 1.0.
        class TinyKicks:
            def uniform(self, low, high, size):
                return np.full(size, -1e-300 / 1e-2)

        x = np.zeros((2, 2))
        noise = NoiseSpec(1e-2)
        got = step_noisy(x, spec2, noise, TinyKicks())
        assert same_bits(got, ref_step_noisy(x, spec2, noise, TinyKicks()))
        assert np.all(got == 0.0)
        orbit = kernel_orbit(spec2, x, 5, 2, lambda steps: noise.epsilon
                             * TinyKicks().uniform(-0.5, 0.5, (steps, 4)))
        assert same_bits(orbit, ref_orbit(spec2, x, 5, noise, TinyKicks(), 2))
        assert np.all(orbit == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 9), st.sampled_from([2, 3]), gammas, epsilons,
           st.integers(1, 5), st.integers(1, 90), burn_ins,
           st.sampled_from([4, 64, 1 << 18]), st.integers(0, 2**32))
    def test_estimate_density(self, slope, n, gamma, eps, r, iterations,
                              burn_in, chunk_elements, seed):
        spec = MapSpec(LocalMap.affine_mod1(slope), n, gamma)
        expect = ref_density(spec, r, iterations, 7, seed, NoiseSpec(eps),
                             burn_in)
        # small chunks make the pass resume the orbit many times
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_CHUNK_ELEMENTS", chunk_elements)
            got = estimate_density(spec, r, iterations, 7, seed,
                                   NoiseSpec(eps), burn_in)
        assert np.array_equal(got.counts, expect)

    def test_ensemble_budget_raises_before_allocating(self, spec2):
        # 1000 realizations x 10^6 steps x 2 sites: 16 GB of states
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError):
                simulate_ensemble(spec2, 1000, 10**6, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6


# ---------------------------------------------------------------------------
# The lock-step pass against one simulate_ensemble per grid point
# ---------------------------------------------------------------------------

SPREAD = OBSERVABLES["global_sync"].gap
PASS_CHUNK_ELEMENTS = 96  # a few steps per chunk, so the pass resumes often


def mixed_with_zero(nonzero):
    """Lists holding 0.0 and at least one nonzero value, in any order."""
    return st.lists(nonzero, min_size=1, max_size=2, unique=True).flatmap(
        lambda xs: st.permutations([0.0] + xs))


class TestLockstepPass:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4),
           st.lists(st.integers(2, 12), min_size=1, max_size=3),
           mixed_with_zero(st.sampled_from([0.1, 0.3, 0.45, 0.6])),
           mixed_with_zero(st.sampled_from([1e-4, 1e-2, 0.3])),
           st.integers(1, 5), st.integers(0, 2**32), st.integers(0, 2),
           st.integers(0, 3))
    # 2-3 sizes with n >= 8, and equal-n runs that are not contiguous
    @example(3, [3, 8, 3], [0.0, 0.3], [0.0, 1e-2], 2, 7, 1, 3)
    @example(2, [2, 12, 5], [0.45, 0.0], [1e-4, 0.0], 3, 8, 2, 2)
    def test_matches_simulate_ensemble(self, slope, ns, gammas, epsilons, r,
                                       seed, burn_in_at, length_at):
        local_map = LocalMap.affine_mod1(slope)
        points = [GridPoint(n, g, e, seed + i, r)
                  for i, (n, g, e) in enumerate(
                      (n, g, e) for n in ns for g in gammas for e in epsilons)]
        widest = max(r * n for r, n in lattice._blocks(points))
        per_chunk = max(1, PASS_CHUNK_ELEMENTS // widest)
        burn_in = [0, per_chunk // 2 + 1, per_chunk + 3][burn_in_at]
        length = [1, per_chunk, per_chunk + 1, 3 * per_chunk + 2][length_at]
        folded = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_CHUNK_ELEMENTS", PASS_CHUNK_ELEMENTS)
            series, finals = lockstep_gaps(local_map, points, length,
                                           burn_in, SPREAD)
            none, again = lockstep_gaps(
                local_map, points, length, burn_in, SPREAD,
                lambda values, start: folded.append((start, values.copy())))
        expect = [simulate_ensemble(MapSpec(local_map, p.n, p.gamma), r,
                                    length, p.seed, NoiseSpec(p.epsilon),
                                    burn_in)
                  for p in points]
        assert same_bits(series, np.concatenate([SPREAD(e).T for e in expect]))
        assert len(finals) == len(points)
        assert all(same_bits(f, e[-1]) for f, e in zip(finals, expect))
        # folding sees the same values, chunk by chunk, and keeps no series
        assert none is None
        assert all(same_bits(f, a) for f, a in zip(finals, again))
        assert [start for start, _ in folded] == list(
            range(0, length, per_chunk))
        assert same_bits(np.concatenate([v for _, v in folded]), series.T)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4),
           st.lists(st.tuples(st.integers(2, 9), realizations,
                              st.sampled_from([0.0, 0.3, 0.6]),
                              st.sampled_from([0.0, 1e-2])),
                    min_size=1, max_size=4),
           st.integers(0, 2**32), st.sampled_from([0, 3]),
           st.sampled_from([1, 5, 40]))
    # blocks of 180 and 36 rows as in the benchmark's wide sweeps, a block
    # either side of the column-sum rule, and n >= 8 on the reduce
    @example(3, [(2, 60, 0.3, 0.0), (2, 120, 0.6, 0.0), (3, 180, 0.3, 0.0),
                 (2, 36, 0.3, 0.0), (3, 36, 0.6, 0.0)], 1, 0, 5)
    @example(2, [(4, 31, 0.3, 1e-2), (5, 48, 0.6, 0.0), (9, 200, 0.3, 0.0),
                 (4, 32, 0.0, 0.0)], 2, 3, 40)
    def test_wide_and_narrow_blocks(self, slope, specs, seed, burn_in,
                                    length):
        local_map = LocalMap.affine_mod1(slope)
        points = [GridPoint(n, g, e, seed + i, r)
                  for i, (n, r, g, e) in enumerate(specs)]
        series, finals = lockstep_gaps(local_map, points, length, burn_in,
                                       SPREAD)
        expect = [simulate_ensemble(MapSpec(local_map, p.n, p.gamma),
                                    p.realizations, length, p.seed,
                                    NoiseSpec(p.epsilon), burn_in)
                  for p in points]
        assert same_bits(series, np.concatenate([SPREAD(e).T for e in expect]))
        assert all(same_bits(f, e[-1]) for f, e in zip(finals, expect))

    def test_split_passes_cuts_between_groups(self, monkeypatch):
        groups = [[GridPoint(n, g, 0.0, 11 * i + j, 3)
                   for j, g in enumerate((0.0, 0.4))]
                  for i, n in enumerate((3, 8, 3, 5))]
        length = 40
        points = [p for g in groups for p in g]
        assert lattice.split_passes(groups, length) == [groups]
        # room for the largest group alone, not for two of them
        budget = max(lattice._pass_bytes(g, length, False) for g in groups)
        monkeypatch.setattr(lattice, "_MAX_ENSEMBLE_BYTES", budget)
        runs = lattice.split_passes(groups, length)
        assert len(runs) == len(groups)
        assert [g for run in runs for g in run] == groups
        # a group too large alone is a run of its own, refused by the pass
        monkeypatch.setattr(lattice, "_MAX_ENSEMBLE_BYTES", budget - 1)
        assert lattice.split_passes(groups, length) == [[g] for g in groups]
        with pytest.raises(MemoryBudgetError, match="lock-step pass"):
            lockstep_gaps(LocalMap.affine_mod1(3), points, length, 0, SPREAD)

    def test_budget_counts_the_whole_pass(self, tripling, monkeypatch):
        # two points that each fit the budget, but not together
        points = [GridPoint(2, 0.1, 0.0, 0, 500), GridPoint(3, 0.2, 0.0, 1, 500)]
        length = 2000
        budget = max(lattice._pass_bytes([p], length, False) for p in points)
        assert lattice._pass_bytes(points, length, False) > budget
        monkeypatch.setattr(lattice, "_MAX_ENSEMBLE_BYTES", budget)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError, match="lock-step pass"):
                lockstep_gaps(tripling, points, length, 0, SPREAD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("points, length, folded", [
        # one block of 40 000 sites, one step per chunk
        ([GridPoint(2, 0.3, 0.0, 1, 20_000)], 20, True),
        ([GridPoint(2, 0.3, 0.0, 1, 20_000)], 20, False),
        # the benchmark's wide sweep: column sums in both blocks
        ([GridPoint(n, g, 0.0, i, 60) for n in (2, 3)
          for i, g in enumerate((0.1, 0.3, 0.5))], 400, False),
        # many narrow noisy blocks: a block of kicks spans every site
        ([GridPoint(n, 0.3, e, i, 3) for i, (n, e) in enumerate(
            [(n, e) for n in range(2, 12) for e in (0.0, 1e-3)])], 300, True),
        ([GridPoint(n, 0.3, 1e-2, i, 500) for i, n in enumerate((2, 3))],
         50, False),
    ])
    def test_peak_within_pass_bytes(self, tripling, points, length, folded):
        gap = OBSERVABLES["global_sync"].value  # what sweeps pass
        fold = (lambda values, start: None) if folded else None
        tracemalloc.start()
        try:
            lockstep_gaps(tripling, points, length, 10, gap, fold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= lattice._pass_bytes(points, length, folded)

    def test_budget_raises_before_allocating(self, tripling):
        # 1000 rows x 10^6 steps of series: 8 GB, though the states are small
        points = [GridPoint(2, 0.1, 0.0, 0, 1000)]
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError, match="lock-step pass"):
                lockstep_gaps(tripling, points, 10**6, 0, SPREAD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_rejects_bad_points(self, tripling):
        with pytest.raises(DomainError):
            lockstep_gaps(tripling, [], 10, 0, SPREAD)
        with pytest.raises(DomainError):
            lockstep_gaps(tripling, [GridPoint(2, 1.0, 0.0, 0, 1)], 10, 0,
                          SPREAD)
        with pytest.raises(DomainError):
            lockstep_gaps(tripling, [GridPoint(2, 0.1, -1.0, 0, 1)], 10, 0,
                          SPREAD)
        with pytest.raises(DomainError):
            lockstep_gaps(tripling, [GridPoint(1, 0.1, 0.0, 0, 1)], 10, 0,
                          SPREAD)
        # no realizations, alone, next to a good point, or fewer than none
        for points in ([GridPoint(2, 0.1, 0.0, 0, 0)],
                       [GridPoint(2, 0.1, 0.0, 0, 3),
                        GridPoint(3, 0.1, 1e-2, 1, 0)],
                       [GridPoint(2, 0.1, 0.0, 0, -2)]):
            with pytest.raises(DomainError, match="realization"):
                lockstep_gaps(tripling, points, 10, 0, SPREAD)
        for r in (0, -1):
            with pytest.raises(DomainError, match="realization"):
                simulate_ensemble(MapSpec(tripling, 2, 0.1), r, 10, 0)
