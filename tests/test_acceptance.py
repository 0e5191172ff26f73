"""End-to-end acceptance checks for the synchronization-statistics toolkit.

Each test prints one `ACCEPTANCE <k> <name>: PASS|FAIL` line (visible even
under pytest's capture) and then asserts.  All random protocols run from the
frozen master seed below, with per-point seeds derived deterministically.
"""
import math

import numpy as np
import pytest

from cmlsync.density import diagonal_trace, estimate_density
from cmlsync.evt import (
    compound_poisson_pmf,
    fit_gpd_mle,
    poisson_pmf,
    suveges_ei,
)
from cmlsync.experiments import _point_seed, reproduce
from cmlsync.lattice import (
    GridPoint,
    LocalMap,
    MapSpec,
    coupling_det,
    coupling_matrix,
    lockstep_gaps,
    simulate_ensemble,
    step,
)
from cmlsync.observables import (
    OBSERVABLES,
    eval_global_sync,
    evaluate_series,
    exceedance_indicator,
    running_maximum,
    threshold_from_quantile,
)
from cmlsync.theory import ei_sync_formula, iterations_for_sync
from cmlsync.ulam import build_ulam, ei_spectral

SEED = 2026
TRIPLING = LocalMap.affine_mod1(3)
GAMMAS = tuple(round(0.1 * i, 1) for i in range(7))


@pytest.fixture
def report(capsys):
    def _report(number, name, ok, detail=""):
        line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line)
        assert ok, f"{line} {detail}"

    return _report


def theta_exact(n, gamma):
    return 1.0 - (3.0 * (1.0 - gamma)) ** (1 - n)


def theta_asymptotic(n, gamma):
    return 1.0 - ((1.0 / 3.0) / (1.0 - gamma)) ** (n - 1)


def grid_points(grid, realizations, tag):
    """A lock-step pass's points for (n, gamma, eps) triples, each seeded
    from (tag, n, gamma, eps)."""
    return [GridPoint(n, gamma, eps,
                      _point_seed(SEED, tag, n, int(round(gamma * 10)),
                                  int(round(eps * 10**8))),
                      realizations)
            for n, gamma, eps in grid]


def point_means(grid, thetas, realizations):
    """The mean of each grid point's consecutive ``realizations`` thetas."""
    return {key: float(np.mean(thetas[i * realizations:
                                      (i + 1) * realizations]))
            for i, key in enumerate(grid)}


def mean_suveges(grid, *, length=10_000, realizations=10, q=0.98,
                 observable="global_sync", tag=0):
    """Mean Süveges estimate per (n, gamma, eps) of ``grid``, every point's
    ensemble in one lock-step pass."""
    series, _ = lockstep_gaps(TRIPLING, grid_points(grid, realizations, tag),
                              length, 1000, OBSERVABLES[observable].value)
    thetas = []
    for row in series:
        u = threshold_from_quantile(row, q)
        ind = exceedance_indicator(row, u)
        thetas.append(suveges_ei(ind, q).theta)
    return point_means(grid, thetas, realizations)


def mean_suveges_fixed_accuracy(grid, nu, *, length, realizations, tag):
    """Mean Süveges estimate per (n, gamma, eps) of ``grid`` at a fixed
    synchronization accuracy nu, every point's ensemble in one lock-step
    pass that keeps only the pair-sync exceedance indicator."""
    u = -math.log(nu)
    ind = np.empty((len(grid) * realizations, length), dtype=bool)

    def fold(values, start):
        ind[:, start:start + len(values)] = (values > u).T

    lockstep_gaps(TRIPLING, grid_points(grid, realizations, tag), length,
                  1000, OBSERVABLES["pair_sync"].value, fold)
    thetas = []
    for row in ind:
        n_exc = int(row.sum())
        if n_exc == 0:
            thetas.append(1.0)  # no exceedances: no clustering observed
            continue
        q_emp = 1.0 - n_exc / row.size
        thetas.append(suveges_ei(row, q_emp).theta)
    return point_means(grid, thetas, realizations)


def test_01_two_site_ei_curve(report):
    got = mean_suveges([(2, gamma, 0.0) for gamma in GAMMAS], tag=1)
    worst = 0.0
    for (_, gamma, _), theta in got.items():
        worst = max(worst, abs(theta - theta_exact(2, gamma)))
    report(1, "two-site EI curve vs closed form", worst <= 0.07,
           f"(worst deviation {worst:.4f}, tolerance 0.07)")


def test_02_three_site_ei_curve(report):
    assert theta_exact(3, 0.1) == pytest.approx(0.8628, abs=5e-4)
    got = mean_suveges([(3, gamma, 0.0) for gamma in GAMMAS], tag=2)
    worst = 0.0
    for (_, gamma, _), theta in got.items():
        worst = max(worst, abs(theta - theta_exact(3, gamma)))
    report(2, "three-site EI curve vs closed form", worst <= 0.07,
           f"(worst deviation {worst:.4f}, tolerance 0.07)")


def test_03_asymptotic_ei_surface(report):
    got = mean_suveges([(n, gamma, 0.0) for n in range(3, 24)
                        for gamma in GAMMAS],
                       realizations=3, q=0.995, tag=3)
    hits = total = 0
    for (n, gamma, _), theta in got.items():
        hits += abs(theta - theta_asymptotic(n, gamma)) <= 0.1
        total += 1
    frac = hits / total
    report(3, "large-lattice asymptotic EI surface", frac >= 0.9,
           f"({hits}/{total} grid points within 0.1)")


def test_04_gumbel_shape_parameter(report):
    worst = 0.0
    for observable in ("global_sync", "pair_sync"):
        for n in (3, 5, 7, 10):
            for gamma in (0.0, 0.2, 0.4):
                spec = MapSpec(TRIPLING, n, gamma)
                seed = _point_seed(SEED, 4, n, int(round(gamma * 10)),
                                   observable == "pair_sync")
                ens = simulate_ensemble(spec, 10, 10_000, seed, burn_in=1000)
                xis = []
                for r in range(10):
                    series = evaluate_series(ens[:, r, :], observable)
                    u = threshold_from_quantile(series, 0.98)
                    tail = series[(series > u) & np.isfinite(series)]
                    xis.append(fit_gpd_mle(tail, threshold=u).xi)
                worst = max(worst, abs(float(np.mean(xis))))
    report(4, "exceedance tails are exponential (shape ~ 0)", worst <= 0.1,
           f"(worst |mean xi| {worst:.4f}, tolerance 0.1)")


def test_05_neighbor_sync_n_independence(report):
    ns = range(3, 24, 2)
    got = mean_suveges([(n, gamma, 0.0) for n in ns for gamma in GAMMAS],
                       observable="pair_sync", tag=5)
    worst_spread = worst_track = 0.0
    for gamma in GAMMAS:
        thetas = [got[n, gamma, 0.0] for n in ns]
        worst_spread = max(worst_spread, max(thetas) - min(thetas))
        worst_track = max(
            worst_track,
            max(abs(t - theta_exact(2, gamma)) for t in thetas),
        )
    ok = worst_spread <= 0.1 and worst_track <= 0.1
    report(5, "neighbor-sync EI independent of lattice size", ok,
           f"(spread {worst_spread:.4f}, tracking error {worst_track:.4f})")


def test_06_noise_destroys_clusters(report):
    nu = 1.5e-4
    pairs = [(n, gamma) for n in (3, 13, 23) for gamma in (0.0, 0.3, 0.6)]
    got = mean_suveges_fixed_accuracy(
        [(n, gamma, eps) for n, gamma in pairs for eps in (0.0, 1e-4, 1e-2)],
        nu, length=200_000, realizations=5, tag=6)
    worst_noisy = 1.0
    worst_recovery = 0.0
    for n, gamma in pairs:
        clean, low, high = (got[n, gamma, eps] for eps in (0.0, 1e-4, 1e-2))
        worst_noisy = min(worst_noisy, high)
        worst_recovery = max(worst_recovery, abs(low - clean))
    ok = worst_noisy >= 0.9 and worst_recovery <= 0.1
    report(6, "noise removes clustering, weak noise preserves it", ok,
           f"(min noisy theta {worst_noisy:.4f}, recovery dev "
           f"{worst_recovery:.4f})")


def test_07_sync_time_calculator(report):
    small = iterations_for_sync(0.5, 0.01, 3, 0.86)
    large = iterations_for_sync(0.5, 0.01, 100, 1.0)
    ok = (small.m is not None and 7500 <= small.m <= 8500
          and 195.0 <= large.log10_m <= 205.0)
    report(7, "synchronization-time calculator", ok,
           f"(m={small.m}, log10 m={large.log10_m:.2f})")


def test_08_poisson_pmf_value(report):
    got = poisson_pmf(5.0, 5)
    report(8, "Poisson pmf spot value", abs(got - 0.17547) <= 1e-5,
           f"(got {got:.6f})")


def test_09_spectral_empirical_theory_consistency(report):
    empirical = mean_suveges([(2, gamma, 0.0) for gamma in (0.1, 0.3, 0.5)],
                             tag=9)
    worst = 0.0
    for gamma in (0.1, 0.3, 0.5):
        spec = MapSpec(TRIPLING, 2, gamma)
        spectral = ei_spectral(build_ulam(spec, k=900),
                               [0.04, 0.02, 0.01]).theta
        hist = estimate_density(
            spec, realizations=200, iterations_each=5_000, bins=300,
            seed=_point_seed(SEED, 9, int(round(gamma * 10))),
        )
        trace = diagonal_trace(hist).as_function()
        formula = ei_sync_formula(2, gamma, TRIPLING, trace)
        triple = (spectral, formula, empirical[2, gamma, 0.0])
        worst = max(worst, max(triple) - min(triple))
    report(9, "spectral / formula / empirical EI agreement", worst <= 0.07,
           f"(worst pairwise gap {worst:.4f}, tolerance 0.07)")


def test_10_coupling_determinant_identity(report):
    worst = 0.0
    for n in range(2, 9):
        for gamma in np.linspace(0.0, 0.95, 20):
            brute = float(np.linalg.det(coupling_matrix(n, float(gamma))))
            worst = max(worst, abs(coupling_det(n, float(gamma)) - brute))
    report(10, "coupling determinant identity", worst <= 1e-10,
           f"(worst deviation {worst:.2e})")


def test_11_compound_poisson_properties(report):
    worst_norm = worst_reduction = 0.0
    for t in (0.5, 1.0, 5.0, 20.0):
        for p in np.arange(0.0, 0.91, 0.1):
            total = sum(compound_poisson_pmf(t, float(p), k)
                        for k in range(400))
            worst_norm = max(worst_norm, abs(total - 1.0))
    for t in (0.5, 1.0, 5.0, 20.0):
        for k in range(50):
            worst_reduction = max(
                worst_reduction,
                abs(compound_poisson_pmf(t, 0.0, k) - poisson_pmf(t, k)),
            )
    ok = worst_norm <= 1e-10 and worst_reduction <= 1e-14
    report(11, "compound-Poisson pmf properties", ok,
           f"(normalization {worst_norm:.2e}, Poisson reduction "
           f"{worst_reduction:.2e})")


def test_12_property_suites(report, tmp_path):
    cases = 10_000
    rng = np.random.default_rng(SEED)
    ok = True
    details = []

    # Diagonal states stay diagonal under the coupled step.
    for n in (2, 5, 23):
        spec = MapSpec(TRIPLING, n, float(rng.uniform(0.0, 0.9)))
        states = np.repeat(rng.uniform(0.0, 1.0, size=(cases, 1)), n, axis=1)
        imgs = step(states, spec)
        if float(np.max(imgs.max(axis=1) - imgs.min(axis=1))) > 1e-9:
            ok = False
            details.append("diagonal invariance")
            break

    # Observable exceedance sets match direct gap comparisons.
    states = rng.uniform(0.0, 1.0, size=(cases, 4))
    series = np.array([eval_global_sync(s) for s in states])
    u = 1.5
    gaps = states.max(axis=1) - states.min(axis=1)
    keep = np.abs(gaps - math.exp(-u)) > 1e-12
    if not np.array_equal((series > u)[keep], (gaps < math.exp(-u))[keep]):
        ok = False
        details.append("exceedance-set equivalence")

    # Running maximum is idempotent.
    block = rng.standard_normal(size=(cases, 25))
    once = np.array([running_maximum(row) for row in block])
    twice = np.array([running_maximum(row) for row in once])
    if not np.array_equal(once, twice):
        ok = False
        details.append("running-max idempotence")

    # Histograms conserve mass sample-for-sample.
    hist = estimate_density(MapSpec(TRIPLING, 2, 0.4), 10, cases // 10, 25,
                            seed=SEED, burn_in=50)
    cell_volume = (1.0 / 25) ** 2
    if hist.counts.sum() != cases or \
            abs(float(hist.density.sum() * cell_volume) - 1.0) > 1e-12:
        ok = False
        details.append("histogram mass conservation")

    # Derived per-point seeds are deterministic and collision-free.
    seeds = [_point_seed(SEED, i, i % 7) for i in range(cases)]
    if seeds != [_point_seed(SEED, i, i % 7) for i in range(cases)] or \
            len(set(seeds)) != cases:
        ok = False
        details.append("seed derivation")

    # A reproduced figure is byte-identical across runs.
    m1 = reproduce("global_Poisson", str(tmp_path / "a"), seed=SEED)
    m2 = reproduce("global_Poisson", str(tmp_path / "b"), seed=SEED)
    for name in m1["outputs"] + ["manifest.json"]:
        with open(tmp_path / "a" / name, "rb") as fa, \
                open(tmp_path / "b" / name, "rb") as fb:
            if fa.read() != fb.read():
                ok = False
                details.append(f"byte reproducibility ({name})")
                break

    report(12, "randomized property suites", ok and m1 == m2,
           f"(failed: {', '.join(details) or 'none'})")
