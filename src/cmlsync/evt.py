"""Extreme-value statistics: GEV/GPD fitting, extremal-index estimators,
cluster statistics, and the compound Poisson visit-count law.

The extremal index theta in (0, 1] corrects the exponential law for
clustering of exceedances; 1/theta is the mean cluster size.  Two empirical
estimators are provided, both reading one exceedance indicator: the Sueveges
closed-form maximum-likelihood estimator on inter-exceedance times, and a
direct return-time estimator that measures the first-return distribution to
the exceedance set.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import observables
from .errors import (
    DegenerateSeriesError,
    DomainError,
    FitError,
    InsufficientVisitsError,
)

_XI_GUMBEL_EPS = 1e-6
_NEWTON_MAXITER = 100
_NEWTON_XTOL = 1e-10  # Newton step, in the solver's O(1) units
_FD_STEP = 1e-7       # forward-difference step of the GEV Hessian
_GPD_LAM_MAX = 700.0  # log1p(t max z) stays below exp overflow
_BRENT_RTOL = 4 * math.ulp(1.0)  # scipy's default rtol for brentq


@dataclass
class EvtFitResult:
    """Fitted GEV or GPD parameters.

    For GPD fits ``mu`` is the (fixed) threshold, not an estimated
    parameter.
    """

    xi: float
    mu: float
    sigma: float
    log_likelihood: float
    n_samples: int
    family: str = "gev"

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "xi": self.xi,
            "mu": self.mu,
            "sigma": self.sigma,
            "log_likelihood": self.log_likelihood,
            "samples": self.n_samples,
        }


@dataclass
class ClusterStats:
    """Exceedance structure of a binary indicator series.

    Clusters are maximal runs of >= 2 consecutive exceedances; waiting times
    are the gaps between consecutive exceedance positions.
    """

    exceedance_count: int
    cluster_count: int
    cluster_sizes: list[int]
    waiting_times: np.ndarray


@dataclass
class EiEstimate:
    """An extremal-index value with its provenance."""

    theta: float
    method: str  # suveges | return_time_qk | theoretical_formula | spectral_ulam
    uncertainty: float | None = None
    flag: str | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise DomainError("theta must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        out = {"method": self.method, "theta": self.theta}
        if self.uncertainty is not None:
            out["uncertainty"] = self.uncertainty
        if self.flag is not None:
            out["flag"] = self.flag
        out.update(self.metadata)
        return out


# ---------------------------------------------------------------------------
# GEV / GPD
# ---------------------------------------------------------------------------

def _gev_nll(params: np.ndarray, y: np.ndarray) -> float:
    xi, mu, sigma = params
    if sigma <= 0.0:
        return np.inf
    z = (y - mu) / sigma
    if abs(xi) < _XI_GUMBEL_EPS:
        return y.size * math.log(sigma) + float(np.sum(z) + np.sum(np.exp(-z)))
    t = 1.0 + xi * z
    if np.any(t <= 0.0):
        return np.inf
    logt = np.log(t)
    return y.size * math.log(sigma) + float(
        (1.0 + 1.0 / xi) * np.sum(logt) + np.sum(np.exp(-logt / xi))
    )


def _gev_pwm_init(y: np.ndarray) -> np.ndarray:
    """Probability-weighted-moments starting point (Hosking's approximation)."""
    ys = np.sort(y)
    n = ys.size
    j = np.arange(1, n + 1)
    b0 = ys.mean()
    b1 = float(np.sum((j - 1) / (n - 1) * ys)) / n
    b2 = float(np.sum((j - 1) * (j - 2) / ((n - 1) * (n - 2)) * ys)) / n
    c = (2 * b1 - b0) / (3 * b2 - b0) - math.log(2) / math.log(3)
    k = 7.8590 * c + 2.9554 * c * c  # Hosking's k = -xi
    if abs(k) < 1e-8:
        sigma = (2 * b1 - b0) / math.log(2)
        mu = b0 - 0.5772156649015329 * sigma
        return np.array([0.0, mu, max(sigma, 1e-12)])
    g = math.gamma(1.0 + k)
    sigma = (2 * b1 - b0) * k / (g * (1.0 - 2.0 ** (-k)))
    mu = b0 + sigma * (g - 1.0) / k
    return np.array([-k, mu, max(sigma, 1e-12)])


def _log1p_excess(u: np.ndarray) -> np.ndarray:
    """((1 + u) log1p(u) - u) / u^2, by its series 1/2 - u/6 + u^2/12 - ...
    where |u| < 1e-3 and the direct form would cancel."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = ((1.0 + u) * np.log1p(u) - u) / (u * u)
    series = 0.5 - u * (1 / 6 - u * (1 / 12 - u * (1 / 20 - u / 30)))
    return np.where(np.abs(u) < 1e-3, series, direct)


def _gev_score(params: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient in (xi, mu, sigma) of the GEV negative log-likelihood that
    `_gev_nll` evaluates; NaN outside the support.

    It is continuous through xi = 0 and free of the cancellation of
    log(1 + xi z) / xi: inside its Gumbel band `_gev_nll` differs from this
    likelihood by O(|xi|) < 1e-6 relative.
    """
    xi, mu, sigma = params
    if sigma <= 0.0:
        return np.full(3, np.nan)
    z = (y - mu) / sigma
    u = xi * z
    if np.any(u <= -1.0):
        return np.full(3, np.nan)
    t = 1.0 + u
    s = np.exp(-z) if xi == 0.0 else np.exp(-np.log1p(u) / xi)
    r = (s - 1.0 - xi) / t
    d_xi = float(np.sum(z * (1.0 + (s - 1.0) * z * _log1p_excess(u)) / t))
    return np.array([d_xi, float(np.sum(r)) / sigma,
                     (y.size + float(np.sum(z * r))) / sigma])


def _gev_newton(x: np.ndarray, f: float, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Damped Newton descent on `_gev_nll` from (x, f = nll(x)).

    The Hessian is the forward difference of `_gev_score`, in units where
    xi, mu / sigma and sigma / sigma are O(1); where it is not positive
    definite its eigenvalues enter by magnitude, so every step descends.  The
    step is halved until it stays in the support and meets the Armijo test,
    up to the rounding error of `_gev_nll`, whose log(1 + xi z) loses digits
    in proportion to 1 / |xi|.
    """
    eps = np.finfo(float).eps
    for _ in range(_NEWTON_MAXITER):
        scale = np.array([1.0, x[2], x[2]])
        g = _gev_score(x, y) * scale
        hess = np.column_stack([
            (_gev_score(x + _FD_STEP * e, y) * scale - g) / _FD_STEP
            for e in np.eye(3) * scale])
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(hess))):
            raise FitError("GEV score is not finite on the Newton path")
        evals, evecs = np.linalg.eigh(0.5 * (hess + hess.T))
        evals = np.maximum(np.abs(evals), 1e-12 * np.max(np.abs(evals)))
        step = -evecs @ ((evecs.T @ g) / evals)
        if np.max(np.abs(step)) <= _NEWTON_XTOL:
            return x, f
        slope = float(g @ step)
        alpha = 1.0
        while True:
            x_new = x + alpha * step * scale
            f_new = _gev_nll(x_new, y)
            noise = 8 * eps * (abs(f) + y.size / max(abs(x_new[0]), _XI_GUMBEL_EPS))
            if f_new <= f + 1e-4 * alpha * slope + noise:
                break
            alpha *= 0.5
            if alpha < 1e-12:
                raise FitError("GEV Newton line search found no descent")
        x, f = x_new, f_new
    raise FitError(f"GEV Newton iteration did not converge in {_NEWTON_MAXITER} steps")


def fit_gev_mle(block_maxima, min_samples: int = 30) -> EvtFitResult:
    """GEV fit by maximum likelihood: damped Newton steps on the analytic
    score (`_gev_newton`) from the probability-weighted-moments start."""
    y = np.asarray(block_maxima, dtype=float)
    y = y[np.isfinite(y)]
    if y.size < min_samples:
        raise FitError(f"need at least {min_samples} finite samples, got {y.size}")
    if np.ptp(y) == 0.0:
        raise DegenerateSeriesError("all block maxima equal; GEV fit degenerate")
    x0 = _gev_pwm_init(y)
    init_nll = _gev_nll(x0, y)
    if not np.isfinite(init_nll):
        x0 = np.array([0.0, float(np.mean(y)), float(np.std(y)) or 1.0])
        init_nll = _gev_nll(x0, y)
    x, nll = _gev_newton(x0, init_nll, y)
    if not np.isfinite(nll):
        raise FitError("GEV likelihood is not finite at the optimum")
    if nll > init_nll + 1e-8:
        raise FitError("optimizer ended below the PWM starting likelihood")
    xi, mu, sigma = x
    return EvtFitResult(
        xi=float(xi), mu=float(mu), sigma=float(sigma),
        log_likelihood=-float(nll), n_samples=y.size, family="gev",
    )


def _gpd_nll(params: np.ndarray, z: np.ndarray) -> float:
    xi, sigma = params
    if sigma <= 0.0:
        return np.inf
    if abs(xi) < _XI_GUMBEL_EPS:
        return z.size * math.log(sigma) + float(np.sum(z)) / sigma
    t = 1.0 + xi * z / sigma
    if np.any(t <= 0.0):
        return np.inf
    return z.size * math.log(sigma) + (1.0 + 1.0 / xi) * float(np.sum(np.log(t)))


def _gpd_profile(lam: float, w: np.ndarray, top: int) -> tuple[float, float]:
    """(xi, sigma / max z) on Grimshaw's profile curve at lam = log1p(t max z).

    For fixed t = xi / sigma the GPD likelihood peaks at xi(t) = mean
    log1p(t z) and sigma = xi / t.  ``w`` holds the excesses below the
    largest, over the largest, and ``top`` counts those equal to it; their
    log1p(t z) is lam itself, which stays exact as t z -> -1 (xi -> -inf).
    """
    n = w.size + top
    if lam == 0.0:  # the exponential limit t -> 0
        return 0.0, (float(np.sum(w)) + top) / n
    tm = math.expm1(lam)
    xi = (top * lam + float(np.sum(np.log1p(tm * w)))) / n
    return xi, xi / tm


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float = _BRENT_RTOL,
            maxiter: int = 100) -> float:
    """Root of ``f`` between ``xa`` and ``xb`` by Brent's method.

    A line-for-line port of ``scipy.optimize.brentq`` (scipy's
    ``optimize/Zeros/brentq.c``, BSD-3-Clause): the same operations in the
    same order, so it returns the same float.  Where scipy raises
    ValueError (ends of one sign, a NaN value) or RuntimeError (no
    convergence in ``maxiter`` steps), this raises `FitError`.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise FitError(f"root search: the function is NaN at {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise FitError("root search: f(a) and f(b) have the same sign")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise FitError(f"root search did not converge in {maxiter} steps")


def _fminbound(func, a: float, b: float, xatol: float,
               maxiter: int = 500) -> tuple[float, float, bool]:
    """Minimum of ``func`` on the finite interval [a, b] by Brent's bounded
    method; returns (x, func(x), ok).

    A port of scipy's ``optimize._optimize._minimize_scalar_bounded``
    (BSD-3-Clause), which ``minimize_scalar(method="bounded")`` runs, with
    ``math`` in place of its numpy scalar calls: it returns the same floats
    as ``res.x`` and ``res.fun``, and ``ok`` is ``res.success``, False when
    ``maxiter`` evaluations are spent or a value is NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    ok = True
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            ok = False
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        ok = False
    return xf, fx, ok


def fit_gpd_mle(values, threshold: float | None = None,
                min_samples: int = 30) -> EvtFitResult:
    """GPD fit on excesses over a threshold, by a bounded 1-D search.

    ``values`` are exceedances; if ``threshold`` is None they are taken to be
    excesses already (threshold 0).  The scale is profiled out in
    t = xi / sigma (Grimshaw 1993, Technometrics 35), which leaves the
    profile negative log-likelihood n (log sigma + 1 + xi) to minimise by
    Brent's method in lam = log1p(t max z), over the region xi(t) > -1 up
    to Grimshaw's bound t < 2 (mean z - min z) / min z^2 on every root of
    the likelihood equation.  Below xi = -1 the likelihood is unbounded and
    the MLE irregular (Smith 1985), so an optimum at either end of that
    interval raises `FitError`.
    """
    u = 0.0 if threshold is None else float(threshold)
    z = np.asarray(values, dtype=float) - u
    z = z[np.isfinite(z)]
    if np.any(z < 0.0):
        raise DomainError("exceedances must not fall below the threshold")
    z = z[z > 0.0]
    if z.size < min_samples:
        raise FitError(f"need at least {min_samples} positive excesses, got {z.size}")
    mean = float(np.mean(z))
    var = float(np.var(z))
    if var == 0.0:
        raise DegenerateSeriesError("all excesses equal; GPD fit degenerate")
    # method-of-moments starting point
    xi0 = 0.5 * (1.0 - mean * mean / var)
    sigma0 = 0.5 * mean * (mean * mean / var + 1.0)
    x0 = np.array([xi0, max(sigma0, 1e-12)])
    init_nll = _gpd_nll(x0, z)
    if not np.isfinite(init_nll):
        x0 = np.array([0.0, mean])
        init_nll = _gpd_nll(x0, z)

    z_max = float(np.max(z))
    w = z[z < z_max] / z_max
    top = z.size - w.size
    n = z.size

    def profile_nll(lam: float) -> float:
        xi, s = _gpd_profile(lam, w, top)
        return math.log(s) + 1.0 + xi

    lo = _brentq(lambda lam: _gpd_profile(lam, w, top)[0] + 1.0, -n / top, 0.0,
                 xtol=1e-12)
    w_min = float(np.min(z)) / z_max
    log_t_bound = math.log(2.0 * (mean / z_max - w_min)) - 2.0 * math.log(w_min)
    hi = min(float(np.logaddexp(0.0, log_t_bound)), _GPD_LAM_MAX)
    lam, f_min, ok = _fminbound(profile_nll, lo, hi, xatol=1e-10)
    if not ok:
        raise FitError("GPD profile search hit its evaluation cap or a NaN")
    if not f_min < min(profile_nll(lo), profile_nll(hi)):
        raise FitError("GPD likelihood peaks at an end of the xi > -1 region")
    xi, s = _gpd_profile(lam, w, top)
    sigma = s * z_max
    nll = _gpd_nll(np.array([xi, sigma]), z)
    if not np.isfinite(nll):
        raise FitError("GPD likelihood is not finite at the optimum")
    if nll > init_nll + 1e-8:
        raise FitError("optimizer ended below the moment starting likelihood")
    return EvtFitResult(
        xi=float(xi), mu=u, sigma=float(sigma),
        log_likelihood=-float(nll), n_samples=n, family="gpd",
    )


# ---------------------------------------------------------------------------
# Cluster statistics and extremal-index estimators
# ---------------------------------------------------------------------------

def extract_clusters(indicator) -> ClusterStats:
    """Run-based declustering: clusters are maximal runs of >= 2 exceedances."""
    ind = np.asarray(indicator, dtype=bool)
    if ind.size == 0:
        raise DegenerateSeriesError("empty indicator series")
    positions = np.flatnonzero(ind)
    n_exc = positions.size
    if n_exc == 0:
        return ClusterStats(0, 0, [], np.empty(0, dtype=int))
    waiting = np.diff(positions)
    # run lengths of consecutive exceedances
    sizes = []
    run = 1
    for gap in waiting:
        if gap == 1:
            run += 1
        else:
            if run >= 2:
                sizes.append(run)
            run = 1
    if run >= 2:
        sizes.append(run)
    return ClusterStats(n_exc, len(sizes), sizes, waiting)


def suveges_ei(indicator, q: float) -> EiEstimate:
    """Sueveges' closed-form MLE of the extremal index at quantile q.

    Works on the inter-exceedance times T_i: with S_i = T_i - 1 and
    N_c = #{S_i > 0}, the estimator is

        theta = (sum (1-q) S_i + (N-1) + N_c
                 - sqrt((sum (1-q) S_i + (N-1) + N_c)^2
                        - 8 N_c sum (1-q) S_i)) / (2 sum (1-q) S_i).

    Degenerate cases: fewer than two exceedances gives theta = 1 with a
    'no-clusters' flag; an indicator that is one solid run gives theta = 0
    with a 'saturated' flag.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("quantile must lie in (0, 1)")
    ind = np.asarray(indicator, dtype=bool)
    positions = np.flatnonzero(ind)
    n_exc = positions.size
    meta = {"quantile": q, "exceedances": int(n_exc)}
    if n_exc <= 1:
        return EiEstimate(1.0, "suveges", flag="no_clusters", metadata=meta)
    gaps_minus_one = np.diff(positions) - 1
    n_c = int(np.count_nonzero(gaps_minus_one))
    s = (1.0 - q) * float(np.sum(gaps_minus_one))
    if n_c == 0:
        # all gaps equal 1: one solid cluster, full memory
        return EiEstimate(0.0, "suveges", flag="saturated", metadata=meta)
    a = s + (n_exc - 1) + n_c
    theta = (a - math.sqrt(a * a - 8.0 * n_c * s)) / (2.0 * s)
    theta = min(max(theta, 0.0), 1.0)
    return EiEstimate(theta, "suveges", metadata=meta)


def waiting_time_epdf(stats: ClusterStats) -> dict[int, float]:
    """Normalized histogram of waiting times between exceedances."""
    wt = np.asarray(stats.waiting_times, dtype=int)
    if wt.size == 0:
        raise DegenerateSeriesError("no waiting times available")
    values, counts = np.unique(wt, return_counts=True)
    total = counts.sum()
    return {int(v): float(c) / total for v, c in zip(values, counts)}


def export_epdf_csv(epdf: dict[int, float], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["waiting_time", "probability"])
        for value in sorted(epdf):
            writer.writerow([value, f"{epdf[value]:.17g}"])


def strip_indicator(trajectory: np.ndarray, accuracy: float) -> np.ndarray:
    """True where the state lies in the diagonal strip of half-width accuracy."""
    return observables.OBSERVABLES["global_sync"].gap(trajectory) <= accuracy


def qk_return_estimator(
    indicator: np.ndarray,
    k_max: int = 0,
    min_visits: int = 100,
) -> tuple[np.ndarray, EiEstimate]:
    """Empirical first-return distribution to the set ``indicator`` marks
    (the sweep's ``series > u``, or `strip_indicator`'s diagonal strip).

    q_k is the fraction of visits whose first return takes exactly k+1
    steps; theta = 1 - sum_{k <= k_max} q_k.  The default k_max = 0 gives
    theta = 1 - q_0: the diagonal is invariant, so a cluster is a run of
    consecutive visits, while at sweep quantiles chance returns within a
    longer window would add about k_max times the set's measure.  Visits too
    close to the end of the series to observe a k_max-step window are
    discarded.  The mass of visits with no return within k_max steps is
    reported as ``truncation_tail`` (it is part of theta by construction).
    """
    ind = np.asarray(indicator, dtype=bool)
    positions = np.flatnonzero(ind)
    # a visit needs k_max + 1 subsequent steps for its window to be observable
    usable = positions[positions + k_max + 1 <= ind.size - 1]
    if usable.size < min_visits:
        raise InsufficientVisitsError(int(usable.size), min_visits)
    # first return time for each usable visit = gap to the next visit
    idx = np.searchsorted(positions, usable, side="right")
    has_next = idx < positions.size
    gaps = np.full(usable.size, np.iinfo(np.int64).max, dtype=np.int64)
    gaps[has_next] = positions[idx[has_next]] - usable[has_next]
    q = np.zeros(k_max + 1)
    within = gaps <= k_max + 1
    ks = gaps[within] - 1
    np.add.at(q, ks, 1.0)
    q /= usable.size
    tail = 1.0 - float(np.sum(q))
    theta = min(max(tail, 0.0), 1.0)
    est = EiEstimate(
        theta,
        "return_time_qk",
        metadata={
            "k_max": k_max,
            "visits": int(usable.size),
            "truncation_tail": tail,
        },
    )
    return q, est


# ---------------------------------------------------------------------------
# Visit counts and the compound Poisson law
# ---------------------------------------------------------------------------

def poisson_pmf(t: float, k: int) -> float:
    """e^{-t} t^k / k!, evaluated in the log domain."""
    if t < 0.0 or k < 0:
        raise DomainError("t and k must be nonnegative")
    if t == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(t) - t - math.lgamma(k + 1))


def compound_poisson_pmf(t: float, p: float, k: int) -> float:
    """Polya-Aeppli law of the rescaled visit count.

    Clusters arrive as a Poisson process with intensity t(1-p) and carry
    geometric sizes with success probability 1-p, giving for k >= 1

        P(k) = e^{-t(1-p)} sum_{j=1}^k C(k-1, j-1) p^{k-j} (1-p)^{2j} t^j / j!

    and P(0) = e^{-t(1-p)}.  The mean is t, and p = 0 collapses the law to
    the pure Poisson pmf.
    """
    if t < 0.0 or k < 0:
        raise DomainError("t and k must be nonnegative")
    if not 0.0 <= p < 1.0:
        raise DomainError("p must lie in [0, 1)")
    if k == 0:
        return float(math.exp(-t * (1.0 - p)))
    if p == 0.0:
        return poisson_pmf(t, k)
    if t == 0.0:
        return 0.0
    lg = np.array([math.lgamma(i) for i in range(1, k + 2)])  # log (i-1)!
    j = np.arange(1, k + 1)
    log_terms = (
        lg[k - 1] - lg[j - 1] - lg[k - j]  # log C(k-1, j-1)
        + (k - j) * math.log(p)
        + 2.0 * j * math.log1p(-p)
        + j * math.log(t)
        - lg[j]  # log j!
    )
    top = float(np.max(log_terms))
    log_sum = top + math.log(float(np.sum(np.exp(log_terms - top))))
    return math.exp(-t * (1.0 - p) + log_sum)


def compound_poisson_pmf_array(t: float, p: float, size: int) -> np.ndarray:
    """`compound_poisson_pmf` at k = 0, ..., size - 1, in O(size).

    Runs the Polya-Aeppli recurrence

        k P_k = (2p(k-1) + t(1-p)^2) P_{k-1} - p^2 (k-2) P_{k-2}

    from P_0 = e^{-t(1-p)}, kept as a mantissa and a running log-scale so
    that terms survive where e^{-t(1-p)} alone would underflow.
    """
    if t < 0.0 or size < 0:
        raise DomainError("t and size must be nonnegative")
    if not 0.0 <= p < 1.0:
        raise DomainError("p must lie in [0, 1)")
    mant = np.zeros(size)
    log_scale = np.zeros(size)
    shift = -t * (1.0 - p)
    a = t * (1.0 - p) ** 2
    prev, cur = 0.0, 1.0  # mantissas of P_{-1} and P_0
    for k in range(size):
        if k:
            prev, cur = cur, ((2.0 * p * (k - 1) + a) * cur
                              - p * p * (k - 2) * prev) / k
            if cur > 1e280:
                prev /= cur
                shift += math.log(cur)
                cur = 1.0
        mant[k] = cur
        log_scale[k] = shift
    with np.errstate(divide="ignore"):
        return np.exp(np.log(mant) + log_scale)
