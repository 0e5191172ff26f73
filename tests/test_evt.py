import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from cmlsync import evt
from cmlsync.errors import (
    CmlSyncError,
    DomainError,
    FitError,
    InsufficientVisitsError,
)
from cmlsync.brent import brentq_rows, fminbound_rows
from cmlsync.evt import (
    _gev_nll,
    _gev_pwm_init,
    _gpd_nll,
    compound_poisson_pmf,
    compound_poisson_pmf_array,
    extract_clusters,
    fit_gev_mle,
    fit_gev_rows,
    fit_gpd_mle,
    fit_gpd_rows,
    poisson_pmf,
    qk_return_estimator,
    qk_rows,
    strip_indicator,
    suveges_ei,
    suveges_rows,
    waiting_time_epdf,
)


class TestGevFit:
    def test_recovers_gumbel_sample(self):
        y = stats.gumbel_r.rvs(loc=2.0, scale=0.5, size=4000,
                               random_state=101)
        fit = fit_gev_mle(y)
        assert abs(fit.xi) < 0.05
        assert fit.mu == pytest.approx(2.0, abs=0.05)
        assert fit.sigma == pytest.approx(0.5, abs=0.05)
        assert fit.sigma > 0

    def test_location_scale_equivariance(self):
        y = stats.genextreme.rvs(c=-0.2, size=3000, random_state=7)
        base = fit_gev_mle(y)
        shifted = fit_gev_mle(3.0 * y + 1.0)
        assert shifted.xi == pytest.approx(base.xi, abs=1e-3)
        assert shifted.mu == pytest.approx(3.0 * base.mu + 1.0, abs=1e-2)
        assert shifted.sigma == pytest.approx(3.0 * base.sigma, abs=1e-2)

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_gev_mle(np.arange(10.0))

    @pytest.mark.parametrize("c, seed", [(-0.3, 1), (0.0, 2), (0.2, 3),
                                         (0.4, 4)])
    def test_likelihood_at_least_scipy(self, c, seed):
        y = stats.genextreme.rvs(c=c, loc=1.0, scale=0.7, size=300,
                                 random_state=seed)
        shape, loc, scale = stats.genextreme.fit(y)  # scipy's c is -xi
        fit = fit_gev_mle(y)
        assert fit.log_likelihood >= -_gev_nll(np.array([-shape, loc, scale]),
                                               y) - 1e-8

    @pytest.mark.parametrize("c, seed", [(-0.3, 5), (0.25, 6)])
    def test_score_vanishes(self, c, seed):
        y = stats.genextreme.rvs(c=c, size=200, random_state=seed)
        fit = fit_gev_mle(y)
        x = np.array([fit.xi, fit.mu, fit.sigma])
        assert -_gev_nll(x, y) == fit.log_likelihood
        for j in range(3):
            h = np.zeros(3)
            h[j] = 1e-6 * (1.0 if j == 0 else fit.sigma)
            score = (_gev_nll(x + h, y) - _gev_nll(x - h, y)) / (2 * h[j])
            assert abs(score * h[j] / 1e-6) < 1e-5 * y.size

    def test_gumbel_start_at_zero_shape_converges(self):
        y = np.sort(stats.gumbel_r.rvs(size=200, random_state=9))
        # move the largest value until the PWM ratio is Gumbel's log 2 / log 3
        n, j = y.size, np.arange(1, y.size + 1)
        b0 = y.mean()
        b1 = np.sum((j - 1) / (n - 1) * y) / n
        b2 = np.sum((j - 1) * (j - 2) / ((n - 1) * (n - 2)) * y) / n
        r = math.log(2) / math.log(3)
        y[-1] += n * (r * (3 * b2 - b0) - (2 * b1 - b0)) / (1 - 2 * r)
        x0 = _gev_pwm_init(y[None])[0]
        assert x0[0] == 0.0
        fit = fit_gev_mle(y)
        assert math.isfinite(fit.log_likelihood)
        assert fit.log_likelihood >= -_gev_nll(x0, y)
        assert fit.xi != 0.0 and abs(fit.xi) < 0.2


class TestGpdFit:
    def test_exponential_excesses_have_zero_shape(self):
        z = stats.expon.rvs(scale=2.0, size=5000, random_state=11)
        fit = fit_gpd_mle(z)
        assert abs(fit.xi) < 0.05
        assert fit.sigma == pytest.approx(2.0, abs=0.1)

    def test_threshold_is_location(self):
        z = stats.expon.rvs(scale=1.0, size=2000, random_state=3) + 5.0
        fit = fit_gpd_mle(z, threshold=5.0)
        assert fit.mu == 5.0

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            fit_gpd_mle(np.array([1.0, -0.5] * 30))

    @pytest.mark.parametrize("c, seed", [(-0.4, 1), (-0.1, 2), (0.0, 3),
                                         (0.3, 4), (0.8, 5)])
    def test_likelihood_at_least_scipy(self, c, seed):
        z = stats.genpareto.rvs(c=c, scale=2.0, size=300, random_state=seed)
        shape, _, scale = stats.genpareto.fit(z, floc=0)
        fit = fit_gpd_mle(z)
        assert fit.log_likelihood >= -_gpd_nll(np.array([shape, scale]),
                                               z) - 1e-8

    @pytest.mark.parametrize("c, seed", [(-0.3, 6), (0.4, 7)])
    def test_score_vanishes(self, c, seed):
        z = stats.genpareto.rvs(c=c, size=200, random_state=seed)
        fit = fit_gpd_mle(z)
        x = np.array([fit.xi, fit.sigma])
        assert -_gpd_nll(x, z) == fit.log_likelihood
        for j in range(2):
            h = np.zeros(2)
            h[j] = 1e-6 * (1.0 if j == 0 else fit.sigma)
            score = (_gpd_nll(x + h, z) - _gpd_nll(x - h, z)) / (2 * h[j])
            assert abs(score * h[j] / 1e-6) < 1e-5 * z.size

    @pytest.mark.parametrize("c", [-1.5, -2.0])
    def test_optimum_at_xi_minus_one_raises(self, c):
        # below xi = -1 the likelihood grows without bound toward the upper
        # endpoint, so over xi > -1 it peaks at the xi = -1 end
        z = stats.genpareto.rvs(c=c, size=200, random_state=5)
        with pytest.raises(FitError, match="peaks at an end"):
            fit_gpd_mle(z)


def scalar_rows(funcs):
    """The row function whose row r is the scalar function funcs[r]."""
    def f(x, rows):
        return np.array([funcs[r](float(v)) for r, v in zip(rows, x)])
    return f


def row_of(f, r):
    """Row r of the row function ``f``, as the scalar function scipy takes."""
    return lambda x: float(f(np.array([x]), np.array([r]))[0])


def bounded_scipy(func, a, b, maxiter=500):
    res = optimize.minimize_scalar(func, bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-10, "maxiter": maxiter})
    return float(res.x), float(res.fun), res.success


class TestBrentPorts:
    """`brentq_rows` and `fminbound_rows` are per-row ports of scipy's
    brentq and bounded minimize_scalar, which stay the reference here: each
    row of a batch gives what scipy gives on that row's function alone."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-0.45, 0.6), st.integers(30, 400),
                              st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=4))
    def test_match_scipy_on_gpd_fits(self, samples):
        # record what fit_gpd_rows hands each solver, then hand each row's
        # function to scipy
        values = []
        for xi, size, seed in samples:
            u = np.random.default_rng(seed).uniform(size=size)
            z = -np.log1p(-u)  # the xi = 0 law, exponential
            values.append(np.expm1(xi * z) / xi if abs(xi) > 1e-6 else z)
        calls = {"brentq_rows": [], "fminbound_rows": []}

        def spy(solver):
            def run(*args, **kwargs):
                out = solver(*args, **kwargs)
                # a copy: the fit goes on to add its own errors to the list
                calls[solver.__name__].append((args, kwargs, copy.deepcopy(out)))
                return out
            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evt, "brentq_rows", spy(brentq_rows))
            mp.setattr(evt, "fminbound_rows", spy(fminbound_rows))
            evt.fit_gpd_rows(np.concatenate(values), [v.size for v in values],
                             np.zeros(len(values)))
        assert sum(len(a[1]) for a, _, _ in calls["brentq_rows"]) == len(values)
        for (f, xa, xb), kwargs, (roots, errors) in calls["brentq_rows"]:
            for r in range(len(xa)):
                try:
                    expect = optimize.brentq(row_of(f, r), xa[r], xb[r], **kwargs)
                except (ValueError, RuntimeError):
                    assert isinstance(errors[r], FitError)
                    assert math.isnan(roots[r])
                else:
                    assert errors[r] is None
                    assert roots[r] == expect
        for (f, lo, hi), kwargs, found in calls["fminbound_rows"]:
            assert kwargs == {"xatol": 1e-10}
            for r in range(len(lo)):
                assert tuple(a[r] for a in found) == bounded_scipy(
                    row_of(f, r), lo[r], hi[r])

    def test_brentq_same_sign_bracket_raises(self):
        funcs = [lambda x: x * x + 1.0, lambda x: x - 0.25]
        roots, errors = brentq_rows(scalar_rows(funcs), [-1.0, 0.0],
                                     [1.0, 1.0], xtol=1e-12)
        assert isinstance(errors[0], FitError)
        assert "same sign" in str(errors[0]) and math.isnan(roots[0])
        assert errors[1] is None
        assert roots[1] == optimize.brentq(funcs[1], 0.0, 1.0, xtol=1e-12)

    def test_brentq_iteration_cap_raises(self):
        def f(x):
            return math.exp(x) - 2.0

        def g(x):  # its root is an end of the bracket: no step is taken
            return x

        with pytest.raises(RuntimeError):
            optimize.brentq(f, 0.0, 2.0, maxiter=1)
        roots, errors = brentq_rows(scalar_rows([f, g]), [0.0, 0.0],
                                     [2.0, 1.0], xtol=2e-12, maxiter=1)
        assert isinstance(errors[0], FitError)
        assert "did not converge in 1 steps" in str(errors[0])
        assert math.isnan(roots[0])
        assert errors[1] is None
        assert roots[1] == optimize.brentq(g, 0.0, 1.0, maxiter=1) == 0.0
        # rows that need different numbers of steps, each as scipy
        funcs = [f, lambda x: x - 0.3, math.cos]
        ends = [(0.0, 2.0), (0.0, 1.0), (1.0, 2.0)]
        roots, errors = brentq_rows(scalar_rows(funcs), *zip(*ends),
                                     xtol=2e-12)
        assert errors == [None] * 3
        for root, func, (a, b) in zip(roots, funcs, ends):
            assert root == optimize.brentq(func, a, b)

    def test_brentq_nan_raises(self):
        def f(x):  # finite at the ends only
            return x - 0.3 if x in (0.0, 1.0) else math.nan

        funcs = [f, lambda x: math.nan, lambda x: x - 0.3]
        roots, errors = brentq_rows(scalar_rows(funcs), [0.0] * 3, [1.0] * 3,
                                     xtol=1e-12)
        for r in (0, 1):
            assert isinstance(errors[r], FitError) and "NaN" in str(errors[r])
            assert math.isnan(roots[r])
        assert errors[2] is None
        assert roots[2] == optimize.brentq(funcs[2], 0.0, 1.0, xtol=1e-12)

    def test_fminbound_cap_and_nan_are_not_ok(self):
        def bowl(x):
            return (x - 0.3) ** 2

        def other(x):
            return (x - 0.7) ** 2 + 1.0

        for cap in (1, 2, 3, 5):
            x, fx, ok = fminbound_rows(scalar_rows([bowl, other]), [0.0, 0.0],
                                        [1.0, 1.0], 1e-10, cap)
            for r, func in enumerate([bowl, other]):
                expect = bounded_scipy(func, 0.0, 1.0, cap)
                assert not ok[r] and not expect[2]
                assert x[r] == expect[0]
        # a NaN row is not ok; the rows beside it run on and match scipy
        funcs = [bowl, lambda x: math.nan, other]
        x, fx, ok = fminbound_rows(scalar_rows(funcs), np.zeros(3),
                                    np.ones(3), 1e-10)
        assert not ok[1] and x[1] == bounded_scipy(funcs[1], 0.0, 1.0)[0]
        for r in (0, 2):
            assert ok[r]
            assert (x[r], fx[r], ok[r]) == bounded_scipy(funcs[r], 0.0, 1.0)


def outcome(call, *args):
    """What a one-row call gives: its fit's fields with every float as its
    bits, or its error's type and message."""
    try:
        fit = call(*args)
    except CmlSyncError as exc:
        return type(exc), str(exc)
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(fit))


def batch_outcome(fit, error):
    return (type(error), str(error)) if error is not None else tuple(
        v.hex() if isinstance(v, float) else v
        for v in dataclasses.astuple(fit))


def excess_row(kind, seed, size):
    """Excesses of one kind, ``size`` of them before the kind cuts them."""
    rng = np.random.default_rng(seed)
    z = rng.standard_exponential(size)
    if kind == "few":  # fewer than 30: FitError
        z = z[:rng.integers(0, 30)]
    elif kind == "equal":  # DegenerateSeriesError
        z = np.full(size, 0.5)
    elif kind == "ties":  # several excesses equal to the largest
        z[rng.choice(size, rng.integers(2, 5), replace=False)] = z.max()
    elif kind == "inf":  # +inf exceedances, which the fit drops
        z[rng.uniform(size=size) < 0.2] = np.inf
    elif kind == "below":  # DomainError
        z[rng.integers(size)] = -0.25
    elif kind == "heavy":  # xi far below -1: the likelihood peaks at an end
        z = 1.0 - rng.uniform(size=size) ** 0.4
    return z


class TestRowBatches:
    """Every row of a mixed batch gets, bit for bit, what the one-row call
    gives on that row alone: the same estimate, or the same error."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["plain", "few", "equal", "ties", "inf", "below",
                         "heavy"]),
        st.integers(0, 2**32 - 1), st.sampled_from([30, 31, 64, 120]),
        st.sampled_from([0.0, 0.5, 3.25])), min_size=1, max_size=8))
    def test_gpd_rows_match_one_row_fits(self, rows):
        values = [excess_row(kind, seed, size) + u
                  for kind, seed, size, u in rows]
        thresholds = [u for *_, u in rows]
        fits, errors = fit_gpd_rows(np.concatenate(values),
                                    [v.size for v in values], thresholds)
        for v, u, fit, error in zip(values, thresholds, fits, errors):
            assert (fit is None) != (error is None)
            assert batch_outcome(fit, error) == outcome(fit_gpd_mle, v, u)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["plain", "inf", "few", "equal"]),
        st.floats(-0.4, 0.4), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=8))
    def test_gev_rows_match_one_row_fits(self, rows):
        maxima = []
        for kind, c, seed in rows:
            rng = np.random.default_rng(seed)
            y = stats.genextreme.rvs(c=c, loc=1.0, scale=0.5, size=40,
                                     random_state=rng)
            if kind == "inf":  # dropped: a row of fewer finite maxima
                y[rng.choice(40, rng.integers(1, 10), replace=False)] = np.inf
            elif kind == "few":
                y[rng.choice(40, rng.integers(11, 40), replace=False)] = np.inf
            elif kind == "equal":
                y[:] = 2.5
            maxima.append(y)
        fits, errors = fit_gev_rows(np.array(maxima))
        for y, fit, error in zip(maxima, fits, errors):
            assert (fit is None) != (error is None)
            assert batch_outcome(fit, error) == outcome(fit_gev_mle, y)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 0.3), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=6),
           st.integers(0, 300), st.sampled_from([0.5, 0.9, 0.98]),
           st.integers(0, 3), st.integers(1, 150))
    def test_suveges_and_qk_rows_match_one_row_calls(self, rows, length, q,
                                                     k_max, min_visits):
        ind = np.array([np.random.default_rng(seed).uniform(size=length) < p
                        for p, seed in rows]).reshape(len(rows), length)
        ind[0, :length // 2] = True  # a long run
        thetas, n_exc, flags = suveges_rows(ind, q)
        q_rows, tails, qk_thetas, visits, errors = qk_rows(ind, k_max,
                                                           min_visits)
        for r, row in enumerate(ind):
            est = suveges_ei(row, q)
            assert (thetas[r].hex(), int(n_exc[r]), flags[r]) == (
                est.theta.hex(), est.metadata["exceedances"], est.flag)
            try:
                q_one, est = qk_return_estimator(row, k_max, min_visits)
            except InsufficientVisitsError as exc:
                assert isinstance(errors[r], InsufficientVisitsError)
                assert str(errors[r]) == str(exc)
                continue
            assert errors[r] is None
            assert q_rows[r].tobytes() == q_one.tobytes()
            assert (qk_thetas[r].hex(), tails[r].hex(), int(visits[r])) == (
                est.theta.hex(), est.metadata["truncation_tail"].hex(),
                est.metadata["visits"])


class TestClusters:
    def test_hand_case(self):
        ind = np.array([0, 1, 1, 0, 1, 0, 1, 1, 1, 0], dtype=bool)
        stats_ = extract_clusters(ind)
        assert stats_.exceedance_count == 6
        assert stats_.cluster_count == 2
        assert sorted(stats_.cluster_sizes) == [2, 3]
        assert list(stats_.waiting_times) == [1, 2, 2, 1, 1]

    def test_epdf_normalization_hand_value(self):
        class S:
            waiting_times = np.array([1, 1, 2])

        epdf = waiting_time_epdf(S())
        assert epdf == {1: pytest.approx(2 / 3), 2: pytest.approx(1 / 3)}

    def test_epdf_single_value(self):
        class S:
            waiting_times = np.array([4])

        assert waiting_time_epdf(S()) == {4: 1.0}

    def test_geometric_epdf_log_linear(self):
        rng = np.random.default_rng(17)
        w = rng.geometric(0.2, size=200_000)

        class S:
            waiting_times = w

        epdf = waiting_time_epdf(S())
        ks = np.array(sorted(k for k in epdf if k <= 20))
        slope = np.polyfit(ks, np.log([epdf[k] for k in ks]), 1)[0]
        assert slope == pytest.approx(math.log(1 - 0.2), abs=0.01)


class TestSuveges:
    def test_isolated_bernoulli_exceedances(self):
        rng = np.random.default_rng(23)
        ind = rng.uniform(size=100_000) < 0.02
        est = suveges_ei(ind, 0.98)
        assert est.theta >= 0.95

    def test_every_step_exceeds(self):
        est = suveges_ei(np.ones(1000, dtype=bool), 0.98)
        assert est.theta == 0.0
        assert est.flag == "saturated"

    def test_no_exceedances(self):
        est = suveges_ei(np.zeros(1000, dtype=bool), 0.98)
        assert est.theta == 1.0
        assert est.flag == "no_clusters"

    def test_clustered_series_lower_theta(self):
        rng = np.random.default_rng(5)
        # geometric clusters of mean size 2: theta ~ 0.5
        ind = np.zeros(200_000, dtype=bool)
        t = 0
        while t < ind.size:
            if rng.uniform() < 0.01:
                size = rng.geometric(0.5)
                ind[t:t + size] = True
                t += size + 1
            else:
                t += 1
        est = suveges_ei(ind, 1.0 - ind.mean())
        assert est.theta == pytest.approx(0.5, abs=0.05)


def reference_suveges(ind, q):
    """Sueveges' theta and flag from the inter-exceedance times themselves."""
    positions = np.flatnonzero(ind)
    if positions.size <= 1:
        return 1.0, "no_clusters"
    gaps_minus_one = np.diff(positions) - 1
    n_c = int(np.count_nonzero(gaps_minus_one))
    s = (1.0 - q) * float(np.sum(gaps_minus_one))
    if n_c == 0:
        return 0.0, "saturated"
    a = s + (positions.size - 1) + n_c
    theta = (a - math.sqrt(a * a - 8.0 * n_c * s)) / (2.0 * s)
    return min(max(theta, 0.0), 1.0), None


def reference_qk(ind, k_max):
    """q_k from each usable visit's gap to the next visit, or None without
    a usable visit."""
    positions = np.flatnonzero(ind)
    usable = positions[positions + k_max + 1 <= ind.size - 1]
    if not usable.size:
        return None
    q = np.zeros(k_max + 1)
    for t in usable:
        later = positions[positions > t]
        if later.size and later[0] - t <= k_max + 1:
            q[later[0] - t - 1] += 1.0
    return q / usable.size, usable.size


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 400),
       st.floats(0.0, 0.6), st.sampled_from([0.5, 0.9, 0.98]),
       st.integers(0, 6))
def test_row_forms_match_gap_references(seed, length, p, q, k_max):
    ind = np.random.default_rng(seed).uniform(size=length) < p
    est = suveges_ei(ind, q)
    assert (est.theta, est.flag) == reference_suveges(ind, q)
    reference = reference_qk(ind, k_max)
    if reference is None:
        return
    expect, visits = reference
    got, est = qk_return_estimator(ind, k_max, min_visits=1)
    assert got.tobytes() == expect.tobytes()
    assert est.metadata["visits"] == visits
    assert est.theta == min(max(1.0 - float(np.sum(expect)), 0.0), 1.0)


class TestQkEstimator:
    def test_no_quick_return_gives_one(self, spec2):
        # visits spaced far beyond k_max
        traj = np.full((20_000, 2), 0.5)
        traj[:, 1] = 0.9
        for t in range(0, 20_000, 200):
            traj[t, 1] = 0.5 + 1e-6
        q, est = qk_return_estimator(strip_indicator(traj, 1e-4), k_max=50,
                                     min_visits=50)
        assert np.all(q == 0.0)
        assert est.theta == 1.0

    def test_always_inside_gives_zero(self):
        traj = np.full((5000, 2), 0.25)
        q, est = qk_return_estimator(strip_indicator(traj, 1e-3),
                                     min_visits=50)
        assert q[0] == 1.0
        assert est.theta == 0.0

    def test_insufficient_visits(self):
        traj = np.column_stack([np.linspace(0, 0.999, 500),
                                np.linspace(0.5, 0.9, 500)])
        with pytest.raises(InsufficientVisitsError):
            qk_return_estimator(strip_indicator(traj, 1e-9))

    @pytest.mark.parametrize("ind", [np.zeros(0, bool), np.ones(3, bool),
                                     np.zeros(50, bool)],
                             ids=["empty", "within_k_max", "all_false"])
    def test_no_usable_visit_is_insufficient(self, ind):
        # min_visits = 0 asks for no visits, but theta would be 0 / 0; at
        # k_max = 2 a series of length 3 has no visit with a full window
        with pytest.raises(InsufficientVisitsError):
            qk_return_estimator(ind, k_max=2, min_visits=0)
        *_, visits, errors = qk_rows(ind.reshape(1, -1), 2, 0)
        assert visits[0] == 0
        assert isinstance(errors[0], InsufficientVisitsError)

    def test_strip_indicator_matches_gap(self, rng):
        traj = rng.uniform(0, 1, (100, 3))
        ind = strip_indicator(traj, 0.2)
        gaps = traj.max(axis=1) - traj.min(axis=1)
        assert np.array_equal(ind, gaps <= 0.2)


class TestPmfs:
    def test_poisson_example(self):
        assert poisson_pmf(5.0, 5) == pytest.approx(0.17547, abs=1e-5)

    def test_poisson_normalizes(self):
        total = sum(poisson_pmf(7.0, k) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_compound_reduces_to_poisson(self):
        for k in range(100):
            assert abs(compound_poisson_pmf(4.0, 0.0, k)
                       - poisson_pmf(4.0, k)) <= 1e-14

    def test_compound_k1_closed_form(self):
        t, p = 2.0, 0.3
        expected = math.exp(-t * (1 - p)) * (1 - p) ** 2 * t
        assert compound_poisson_pmf(t, p, 1) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_compound_normalizes_on_grid(self):
        for t in (0.5, 1.0, 5.0, 20.0):
            for p in np.arange(0.0, 0.95, 0.1):
                total = float(np.sum(compound_poisson_pmf_array(t, p, 3000)))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_compound_array_matches_scalar(self):
        # every k up to 50, then a geometric ladder to the grid's K = 3000
        ks = np.unique(np.concatenate([
            np.arange(50), np.geomspace(50, 2999, 60).astype(int)]))
        for t in (0.5, 1.0, 5.0, 20.0):
            for p in np.arange(0.0, 0.95, 0.1):
                probs = compound_poisson_pmf_array(t, p, 3000)
                for k in ks:
                    oracle = compound_poisson_pmf(t, p, int(k))
                    if oracle > 1e-280:
                        assert probs[k] == pytest.approx(oracle, rel=1e-9)

    def test_compound_array_survives_large_rate(self):
        # e^{-t(1-p)} = e^{-1400} underflows; the terms near the mean do not
        t, p = 2000.0, 0.3
        probs = compound_poisson_pmf_array(t, p, 5000)
        assert probs[0] == compound_poisson_pmf(t, p, 0) == 0.0
        for k in (1500, 2000, 2500):
            oracle = compound_poisson_pmf(t, p, k)
            assert oracle > 0.0
            assert probs[k] == pytest.approx(oracle, rel=1e-9)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-10)

    def test_pmfs_match_gammaln_logsumexp(self):
        # math.lgamma and scipy's gammaln may differ in the last bit, and an
        # exponent off by a few ulps of its largest term moves the pmf by as
        # many ulps, relative
        def oracle(t, p, k):
            if k == 0 or p == 0.0:
                return math.exp(k * math.log(t) - t * (1.0 - p)
                                - special.gammaln(k + 1))
            j = np.arange(1, k + 1)
            log_terms = (special.gammaln(k) - special.gammaln(j)
                         - special.gammaln(k - j + 1) + (k - j) * math.log(p)
                         + 2.0 * j * math.log1p(-p) + j * math.log(t)
                         - special.gammaln(j + 1))
            return math.exp(-t * (1.0 - p) + special.logsumexp(log_terms))

        eps = math.ulp(1.0)
        for t in (0.25, 1.0, 5.0, 50.0):
            for p in (0.0, 0.1, 0.5, 0.95):
                for k in range(120):
                    expect = oracle(t, p, k)
                    if expect < 1e-280:
                        continue
                    scale = 1.0 + t + k * abs(math.log(t)) + math.lgamma(k + 1)
                    got = [compound_poisson_pmf(t, p, k)]
                    if p == 0.0:
                        got.append(poisson_pmf(t, k))
                    for value in got:
                        assert abs(value - expect) <= 4 * eps * scale * expect

    def test_compound_mean_is_rescaled_time(self):
        # cluster sizes are geometric(1-p) with mean 1/(1-p); the Poisson
        # cluster-count intensity t(1-p) gives total mean t
        t, p = 3.0, 0.4
        mean = sum(k * compound_poisson_pmf(t, p, k) for k in range(2000))
        assert mean == pytest.approx(t, rel=1e-9)
