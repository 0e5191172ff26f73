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
from scipy.optimize import minimize
from scipy.special import gammaln, logsumexp

from . import observables
from .errors import (
    DegenerateSeriesError,
    DomainError,
    FitError,
    HorizonError,
    InsufficientVisitsError,
)

_XI_GUMBEL_EPS = 1e-6


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
    standard_errors: tuple[float, ...] | None = None
    family: str = "gev"

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "xi": self.xi,
            "mu": self.mu,
            "sigma": self.sigma,
            "log_likelihood": self.log_likelihood,
            "samples": self.n_samples,
            "standard_errors": list(self.standard_errors)
            if self.standard_errors is not None
            else None,
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

def gev_cdf(y, mu: float, sigma: float, xi: float):
    """exp{-[1 + xi (y-mu)/sigma]^(-1/xi)}; Gumbel limit for xi ~ 0.

    Outside the support the CDF saturates at 0 (right-unbounded side) or 1.
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    y = np.asarray(y, dtype=float)
    z = (y - mu) / sigma
    if abs(xi) < _XI_GUMBEL_EPS:
        out = np.exp(-np.exp(-z))
    else:
        t = 1.0 + xi * z
        sat = 0.0 if xi > 0 else 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(t > 0.0, np.exp(-np.power(np.maximum(t, 1e-300), -1.0 / xi)), sat)
    return out if out.ndim else float(out)


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


def _std_errors(nll, params: np.ndarray, args) -> tuple[float, ...] | None:
    """Asymptotic standard errors from a finite-difference Hessian."""
    p = np.asarray(params, dtype=float)
    k = p.size
    h = 1e-4 * np.maximum(np.abs(p), 1e-2)
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = h[i]
            ej[j] = h[j]
            f_pp = nll(p + ei + ej, *args)
            f_pm = nll(p + ei - ej, *args)
            f_mp = nll(p - ei + ej, *args)
            f_mm = nll(p - ei - ej, *args)
            hess[i, j] = hess[j, i] = (f_pp - f_pm - f_mp + f_mm) / (4 * h[i] * h[j])
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return None
    return tuple(np.sqrt(diag))


def fit_gev_mle(block_maxima, min_samples: int = 30) -> EvtFitResult:
    """GEV fit by maximum likelihood with a PWM starting point."""
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
    res = minimize(_gev_nll, x0, args=(y,), method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000})
    if not res.success or not np.isfinite(res.fun):
        raise FitError(f"GEV optimization failed: {res.message}")
    if res.fun > init_nll + 1e-8:
        raise FitError("optimizer ended below the PWM starting likelihood")
    xi, mu, sigma = res.x
    return EvtFitResult(
        xi=float(xi), mu=float(mu), sigma=float(sigma),
        log_likelihood=-float(res.fun), n_samples=y.size,
        standard_errors=_std_errors(_gev_nll, res.x, (y,)), family="gev",
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


def fit_gpd_mle(values, threshold: float | None = None,
                min_samples: int = 30) -> EvtFitResult:
    """GPD fit on excesses over a threshold.

    ``values`` are exceedances; if ``threshold`` is None they are taken to be
    excesses already (threshold 0).
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
    res = minimize(_gpd_nll, x0, args=(z,), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-10, "maxiter": 5000})
    if not res.success or not np.isfinite(res.fun):
        raise FitError(f"GPD optimization failed: {res.message}")
    if res.fun > init_nll + 1e-8:
        raise FitError("optimizer ended below the moment starting likelihood")
    xi, sigma = res.x
    return EvtFitResult(
        xi=float(xi), mu=u, sigma=float(sigma),
        log_likelihood=-float(res.fun), n_samples=z.size,
        standard_errors=_std_errors(_gpd_nll, res.x, (z,)), family="gpd",
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
    k_max: int = 50,
    min_visits: int = 100,
) -> tuple[np.ndarray, EiEstimate]:
    """Empirical first-return distribution to the set ``indicator`` marks
    (the sweep's ``series > u``, or `strip_indicator`'s diagonal strip).

    q_k is the fraction of visits whose first return takes exactly k+1
    steps; theta = 1 - sum_k q_k.  Visits too close to the end of the series
    to observe a k_max-step window are discarded.  The mass of visits with no
    return within k_max steps is reported as ``truncation_tail`` (it is part
    of theta by construction).
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
    return float(math.exp(k * math.log(t) - t - gammaln(k + 1)))


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
    j = np.arange(1, k + 1)
    log_terms = (
        gammaln(k) - gammaln(j) - gammaln(k - j + 1)  # log C(k-1, j-1)
        + (k - j) * math.log(p)
        + 2.0 * j * math.log1p(-p)
        + j * math.log(t)
        - gammaln(j + 1)
    )
    return float(math.exp(-t * (1.0 - p) + logsumexp(log_terms)))


def count_visits(
    trajectory: np.ndarray,
    accuracy: float,
    t: float,
    strip_measure: float | None = None,
) -> int:
    """Number of strip hits among the first floor(t / mu(strip)) iterates.

    ``strip_measure`` is mu of the diagonal strip; when omitted it is
    estimated empirically as the fraction of the supplied trajectory inside
    the strip (a calibration run can supply a better value).
    """
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    ind = strip_indicator(trajectory, accuracy)
    if strip_measure is None:
        strip_measure = float(np.mean(ind))
        if strip_measure == 0.0:
            raise DegenerateSeriesError("trajectory never enters the strip")
    horizon = int(t / strip_measure)
    if horizon == 0:
        return 0
    if horizon > ind.size - 1:
        raise HorizonError(
            f"horizon {horizon} exceeds trajectory length {ind.size}"
        )
    return int(np.count_nonzero(ind[1 : horizon + 1]))
