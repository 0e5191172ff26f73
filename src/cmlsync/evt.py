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
from .brent import brentq_rows, fminbound_rows
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
_MIN_SAMPLES = 30     # finite maxima of a GEV fit, positive excesses of a GPD fit


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
    waiting_times: np.ndarray


@dataclass
class EiEstimate:
    """An extremal-index value with its provenance."""

    theta: float
    method: str  # suveges | return_time_qk | spectral_ulam
    flag: str | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise DomainError("theta must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        out = {"method": self.method, "theta": self.theta}
        if self.flag is not None:
            out["flag"] = self.flag
        out.update(self.metadata)
        return out


# ---------------------------------------------------------------------------
# GEV / GPD
# ---------------------------------------------------------------------------
#
# The fits run over rows: a (G, m) array holds G samples of one size, and
# each solver steps its unfinished rows at once, every row stopping on its
# own test and its own cap.  A row gets the bits it gets alone: numpy's
# elementwise functions and its sums along a row do not depend on the other
# rows, and the transcendentals of per-row scalars go through `_each`.

def _each(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element of the 1-D ``values``, one numpy scalar at a
    time: numpy's SIMD exp, log, expm1 and power can differ in the last bit
    from ``math`` and from numpy's scalar arithmetic, which the fits use."""
    return np.array([fn(v) for v in values], dtype=float)


def _gev_nll_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """GEV negative log-likelihood of each row of ``y`` (G, m) at its row
    (xi, mu, sigma) of ``x`` (G, 3); inf outside the support."""
    xi, mu, sigma = x.T
    out = np.full(len(y), np.inf)
    with np.errstate(all="ignore"):
        z = (y - mu[:, None]) / sigma[:, None]
        t = 1.0 + xi[:, None] * z
        gumbel = np.abs(xi) < _XI_GUMBEL_EPS
        live = ~(sigma <= 0.0) & (gumbel | ~np.any(t <= 0.0, axis=1))
        logt = np.log(t)
        value = ((1.0 + 1.0 / xi) * np.sum(logt, axis=1)
                 + np.sum(np.exp(-logt / xi[:, None]), axis=1))
        if gumbel.any():
            value = np.where(gumbel, np.sum(z, axis=1)
                             + np.sum(np.exp(-z), axis=1), value)
    out[live] = y.shape[1] * _each(math.log, sigma[live]) + value[live]
    return out


def _gev_nll(params, y) -> float:
    """`_gev_nll_rows` of one sample ``y`` at (xi, mu, sigma)."""
    return float(_gev_nll_rows(np.reshape(params, (1, 3)),
                               np.reshape(y, (1, -1)))[0])


def _gev_pwm_init(y: np.ndarray) -> np.ndarray:
    """Probability-weighted-moments starting points (Hosking's
    approximation), (G, 3), of the rows of ``y`` (G, m)."""
    ys = np.sort(y, axis=1)
    n = ys.shape[1]
    j = np.arange(1, n + 1)
    b0 = ys.mean(axis=1)
    b1 = np.sum((j - 1) / (n - 1) * ys, axis=1) / n
    b2 = np.sum((j - 1) * (j - 2) / ((n - 1) * (n - 2)) * ys, axis=1) / n
    c = (2 * b1 - b0) / (3 * b2 - b0) - math.log(2) / math.log(3)
    k = 7.8590 * c + 2.9554 * c * c  # Hosking's k = -xi
    gumbel = np.abs(k) < 1e-8
    g = _each(lambda v: math.gamma(1.0 + v), k)
    with np.errstate(all="ignore"):
        sigma = (2 * b1 - b0) * k / (g * (1.0 - _each(lambda v: 2.0 ** (-v), k)))
        mu = b0 + sigma * (g - 1.0) / k
    sigma_g = (2 * b1 - b0) / math.log(2)
    mu_g = b0 - 0.5772156649015329 * sigma_g
    return np.column_stack([np.where(gumbel, 0.0, -k),
                            np.where(gumbel, mu_g, mu),
                            np.maximum(np.where(gumbel, sigma_g, sigma), 1e-12)])


def _log1p_excess(u: np.ndarray) -> np.ndarray:
    """((1 + u) log1p(u) - u) / u^2, by its series 1/2 - u/6 + u^2/12 - ...
    where |u| < 1e-3 and the direct form would cancel."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = ((1.0 + u) * np.log1p(u) - u) / (u * u)
    series = 0.5 - u * (1 / 6 - u * (1 / 12 - u * (1 / 20 - u / 30)))
    return np.where(np.abs(u) < 1e-3, series, direct)


def _gev_score_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradients (G, 3) in (xi, mu, sigma) of the GEV negative
    log-likelihood that `_gev_nll_rows` evaluates; a NaN row outside the
    support.

    It is continuous through xi = 0 and free of the cancellation of
    log(1 + xi z) / xi: inside its Gumbel band `_gev_nll_rows` differs from
    this likelihood by O(|xi|) < 1e-6 relative.
    """
    xi, mu, sigma = x.T
    with np.errstate(all="ignore"):
        z = (y - mu[:, None]) / sigma[:, None]
        u = xi[:, None] * z
        t = 1.0 + u
        s = np.exp(-np.log1p(u) / xi[:, None])
        if np.any(xi == 0.0):
            s = np.where((xi == 0.0)[:, None], np.exp(-z), s)
        r = (s - 1.0 - xi[:, None]) / t
        d_xi = np.sum(z * (1.0 + (s - 1.0) * z * _log1p_excess(u)) / t, axis=1)
        out = np.column_stack([d_xi, np.sum(r, axis=1) / sigma,
                               (y.shape[1] + np.sum(z * r, axis=1)) / sigma])
    out[(sigma <= 0.0) | np.any(u <= -1.0, axis=1)] = np.nan
    return out


def _gev_newton(x: np.ndarray, f: np.ndarray, y: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, list]:
    """Damped Newton descent on `_gev_nll_rows` from the rows of (x, f =
    nll(x)), all rows of ``y`` at once; returns (x, f, errors), where
    errors[r] is row r's `FitError` or None.

    The Hessian is the forward difference of `_gev_score_rows`, in units
    where xi, mu / sigma and sigma / sigma are O(1); where it is not
    positive definite its eigenvalues enter by magnitude, so every step
    descends.  The step is halved until it stays in the support and meets
    the Armijo test, up to the rounding error of `_gev_nll_rows`, whose
    log(1 + xi z) loses digits in proportion to 1 / |xi|.  Each row stops
    on its own step test, after at most `_NEWTON_MAXITER` steps, and its
    line search below alpha = 1e-12.
    """
    eps = np.finfo(float).eps
    x, f = x.copy(), f.copy()
    errors = [None] * len(y)
    live = np.arange(len(y))

    def fail(rows, message):
        for r in rows:
            errors[r] = FitError(message)

    for _ in range(_NEWTON_MAXITER):
        if not live.size:
            return x, f, errors
        xs, fs = x[live], f[live]
        ys = y if live.size == len(y) else y[live]
        scale = np.column_stack([np.ones(live.size), xs[:, 2], xs[:, 2]])
        g = _gev_score_rows(xs, ys) * scale
        hess = np.stack([(_gev_score_rows(xs + _FD_STEP * e, ys) * scale - g)
                         / _FD_STEP for e in np.eye(3)[:, None, :] * scale],
                        axis=2)
        finite = (np.all(np.isfinite(g), axis=1)
                  & np.all(np.isfinite(hess), axis=(1, 2)))
        fail(live[~finite], "GEV score is not finite on the Newton path")
        evals, evecs = np.linalg.eigh(
            0.5 * (hess[finite] + np.swapaxes(hess[finite], 1, 2)))
        evals = np.maximum(np.abs(evals),
                           1e-12 * np.max(np.abs(evals), axis=1, keepdims=True))
        g = g[finite]
        step = -evecs @ ((np.swapaxes(evecs, 1, 2) @ g[:, :, None])
                         / evals[:, :, None])
        step = step[:, :, 0]
        moving = ~(np.max(np.abs(step), axis=1) <= _NEWTON_XTOL)
        rows = np.flatnonzero(finite)[moving]  # into live
        g, step = g[moving], step[moving]
        slope = (g[:, None, :] @ step[:, :, None])[:, 0, 0]
        xs, fs, ys, scale = xs[rows], fs[rows], ys[rows], scale[rows]
        alpha = np.ones(rows.size)
        search = np.arange(rows.size)
        while search.size:
            x_new = xs[search] + alpha[search, None] * step[search] * scale[search]
            f_new = _gev_nll_rows(x_new, ys[search])
            noise = 8 * eps * (np.abs(fs[search]) + ys.shape[1] / np.maximum(
                np.abs(x_new[:, 0]), _XI_GUMBEL_EPS))
            with np.errstate(invalid="ignore"):
                done = f_new <= (fs[search] + 1e-4 * alpha[search]
                                 * slope[search] + noise)
            x[live[rows[search[done]]]] = x_new[done]
            f[live[rows[search[done]]]] = f_new[done]
            search = search[~done]
            alpha[search] *= 0.5
            stuck = alpha[search] < 1e-12
            fail(live[rows[search[stuck]]],
                 "GEV Newton line search found no descent")
            search = search[~stuck]
        live = np.array([r for r in live[rows] if errors[r] is None],
                        dtype=np.int64)
    fail(live, f"GEV Newton iteration did not converge in {_NEWTON_MAXITER} steps")
    return x, f, errors


def fit_gev_rows(maxima) -> tuple[list, list]:
    """`fit_gev_mle` of every row of ``maxima`` (R, blocks) at once.

    Returns (fits, errors): row r's `EvtFitResult` and None, or None and
    the `CmlSyncError` that `fit_gev_mle` raises on that row alone.
    Non-finite maxima are dropped, and the rows with equal numbers of
    finite maxima run one `_gev_newton` together.
    """
    maxima = np.asarray(maxima, dtype=float)
    finite = np.isfinite(maxima)
    counts = np.count_nonzero(finite, axis=1)
    fits, errors = [None] * len(maxima), [None] * len(maxima)
    for r in np.flatnonzero(counts < _MIN_SAMPLES):
        errors[r] = FitError(f"need at least {_MIN_SAMPLES} finite samples, "
                             f"got {counts[r]}")
    for m in np.unique(counts[counts >= _MIN_SAMPLES]):
        rows = np.flatnonzero(counts == m)
        y = maxima[rows]
        if m < maxima.shape[1]:
            y = y[finite[rows]].reshape(rows.size, m)
        for r, fit, error in zip(rows, *_gev_fit(y)):
            fits[r], errors[r] = fit, error
    return fits, errors


def _gev_fit(y: np.ndarray) -> tuple[list, list]:
    """`fit_gev_rows` on the rows of ``y`` (G, m), all finite."""
    fits, errors = [None] * len(y), [None] * len(y)
    flat = np.max(y, axis=1) - np.min(y, axis=1) == 0.0  # np.ptp
    for r in np.flatnonzero(flat):
        errors[r] = DegenerateSeriesError("all block maxima equal; GEV fit "
                                          "degenerate")
    rows = np.flatnonzero(~flat)
    y = y[rows]
    x0 = _gev_pwm_init(y)
    init = _gev_nll_rows(x0, y)
    bad = ~np.isfinite(init)
    if bad.any():
        std = np.std(y[bad], axis=1)
        x0[bad] = np.column_stack([np.zeros(bad.sum()), np.mean(y[bad], axis=1),
                                   np.where(std == 0.0, 1.0, std)])
        init[bad] = _gev_nll_rows(x0[bad], y[bad])
    x, nll, failed = _gev_newton(x0, init, y)
    for r, (xi, mu, sigma), value, start, error in zip(
            rows, x, nll, init, failed):
        if error is None and not np.isfinite(value):
            error = FitError("GEV likelihood is not finite at the optimum")
        if error is None and value > start + 1e-8:
            error = FitError("optimizer ended below the PWM starting likelihood")
        if error is not None:
            errors[r] = error
            continue
        fits[r] = EvtFitResult(
            xi=float(xi), mu=float(mu), sigma=float(sigma),
            log_likelihood=-float(value), n_samples=y.shape[1], family="gev",
        )
    return fits, errors


def fit_gev_mle(block_maxima) -> EvtFitResult:
    """GEV fit by maximum likelihood: damped Newton steps on the analytic
    score (`_gev_newton`) from the probability-weighted-moments start.  The
    one-row case of `fit_gev_rows`."""
    (fit,), (error,) = fit_gev_rows(
        np.reshape(np.asarray(block_maxima, dtype=float), (1, -1)))
    if error is not None:
        raise error
    return fit


def _gpd_nll_rows(xi: np.ndarray, sigma: np.ndarray, z: np.ndarray
                  ) -> np.ndarray:
    """GPD negative log-likelihood of each row of excesses ``z`` (G, m) at
    its (xi, sigma); inf outside the support."""
    out = np.full(len(z), np.inf)
    with np.errstate(all="ignore"):
        t = 1.0 + xi[:, None] * z / sigma[:, None]
        flat = np.abs(xi) < _XI_GUMBEL_EPS
        live = ~(sigma <= 0.0) & (flat | ~np.any(t <= 0.0, axis=1))
        value = (1.0 + 1.0 / xi) * np.sum(np.log(t, out=t), axis=1)
        if flat.any():
            value = np.where(flat, np.sum(z, axis=1) / sigma, value)
    out[live] = z.shape[1] * _each(math.log, sigma[live]) + value[live]
    return out


def _gpd_nll(params, z) -> float:
    """`_gpd_nll_rows` of one sample ``z`` at (xi, sigma)."""
    xi, sigma = np.asarray(params, dtype=float)
    return float(_gpd_nll_rows(np.array([xi]), np.array([sigma]),
                               np.reshape(z, (1, -1)))[0])


def _gpd_profile(lam: np.ndarray, w: np.ndarray, top: int, rows: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(xi, sigma / max z) on Grimshaw's profile curve at lam = log1p(t max z),
    per row of ``w`` that ``rows`` lists.

    For fixed t = xi / sigma the GPD likelihood peaks at xi(t) = mean
    log1p(t z) and sigma = xi / t.  A row of ``w`` holds the excesses below
    the largest, over the largest, and ``top`` counts those equal to it;
    their log1p(t z) is lam itself, which stays exact as t z -> -1
    (xi -> -inf).
    """
    n = w.shape[1] + top
    tm = _each(math.expm1, lam)
    if rows.size == len(w):
        terms = tm[:, None] * w
    else:
        terms = w[rows]
        terms *= tm[:, None]
    xi = (top * lam + np.sum(np.log1p(terms, out=terms), axis=1)) / n
    with np.errstate(all="ignore"):
        s = xi / tm
    flat = lam == 0.0  # the exponential limit t -> 0
    if flat.any():
        xi = np.where(flat, 0.0, xi)
        s = np.where(flat, (np.sum(w[rows], axis=1) + top) / n, s)
    return xi, s


def fit_gpd_rows(values, counts, thresholds) -> tuple[list, list]:
    """`fit_gpd_mle` of R samples at once: row r's exceedances are the next
    ``counts[r]`` entries of the flat ``values``, over ``thresholds[r]``.

    Returns (fits, errors): row r's `EvtFitResult` and None, or None and the
    `CmlSyncError` that `fit_gpd_mle` raises on that row alone.  The rows
    with equal numbers of excesses, and of excesses tied at their maximum,
    run one profile search together.
    """
    counts = np.asarray(counts, dtype=np.int64)
    u = np.asarray(thresholds, dtype=float)
    fits, errors = [None] * counts.size, [None] * counts.size
    z = np.repeat(u, counts)
    np.subtract(values, z, out=z)
    keep = np.isfinite(z)
    below = keep & (z < 0.0)
    keep &= z > 0.0
    sizes = counts
    if not keep.all():
        row_of = np.repeat(np.arange(counts.size), counts)
        for r in np.unique(row_of[below]):
            errors[r] = DomainError("exceedances must not fall below the "
                                    "threshold")
        z, sizes = z[keep], np.bincount(row_of[keep], minlength=counts.size)
    starts = np.cumsum(sizes) - sizes
    for r in np.flatnonzero(sizes < _MIN_SAMPLES):
        if errors[r] is None:
            errors[r] = FitError(f"need at least {_MIN_SAMPLES} positive "
                                 f"excesses, got {sizes[r]}")
    todo = np.array([e is None for e in errors], dtype=bool)
    for m in np.unique(sizes[todo]):
        rows = np.flatnonzero(todo & (sizes == m))
        # every row, each of size m, is z itself
        block = z.reshape(rows.size, m) if rows.size == counts.size \
            else z[starts[rows, None] + np.arange(m)]
        for r, fit, error in zip(rows, *_gpd_fit(block)):
            if fit is not None:
                xi, sigma, nll = fit
                fit = EvtFitResult(xi=float(xi), mu=float(u[r]),
                                   sigma=float(sigma), log_likelihood=-float(nll),
                                   n_samples=int(m), family="gpd")
            fits[r], errors[r] = fit, error
    return fits, errors


def _gpd_fit(z: np.ndarray) -> tuple[list, list]:
    """(xi, sigma, nll) or None, and the error, of each row of the positive
    excesses ``z`` (G, m)."""
    size = len(z)
    fits, errors = [None] * size, [None] * size
    mean = np.mean(z, axis=1)
    var = np.var(z, axis=1)
    for r in np.flatnonzero(var == 0.0):
        errors[r] = DegenerateSeriesError("all excesses equal; GPD fit "
                                          "degenerate")
    z_max = np.max(z, axis=1)
    top = np.count_nonzero(z == z_max[:, None], axis=1)
    for t in np.unique(top[var != 0.0]):
        rows = np.flatnonzero((var != 0.0) & (top == t))
        pick = slice(None) if rows.size == size else rows
        for r, fit, error in zip(rows, *_gpd_search(
                z[pick], mean[pick], var[pick], z_max[pick], int(t))):
            fits[r], errors[r] = fit, error
    return fits, errors


def _gpd_search(z, mean, var, z_max, top: int) -> tuple[list, list]:
    """`_gpd_fit` on rows that each hold ``top`` excesses equal to their
    largest: Grimshaw's profile search, all rows at once."""
    size, n = z.shape
    fits = [None] * size
    # method-of-moments starting point
    xi0 = 0.5 * (1.0 - mean * mean / var)
    sigma0 = np.maximum(0.5 * mean * (mean * mean / var + 1.0), 1e-12)
    init = _gpd_nll_rows(xi0, sigma0, z)
    bad = ~np.isfinite(init)
    if bad.any():
        init[bad] = _gpd_nll_rows(np.zeros(bad.sum()), mean[bad], z[bad])

    w = z[z < z_max[:, None]].reshape(size, n - top)
    w /= z_max[:, None]

    def profile_nll(lam, rows):
        xi, s = _gpd_profile(lam, w, top, rows)
        return _each(math.log, s) + 1.0 + xi

    lo, errors = brentq_rows(
        lambda lam, rows: _gpd_profile(lam, w, top, rows)[0] + 1.0,
        np.full(size, -n / top), np.zeros(size), xtol=1e-12)
    bracketed = np.flatnonzero([e is None for e in errors])
    lo = lo[bracketed]
    w_min = np.min(z, axis=1)[bracketed] / z_max[bracketed]
    log_t_bound = (_each(math.log, 2.0 * (mean[bracketed] / z_max[bracketed]
                                          - w_min))
                   - 2.0 * _each(math.log, w_min))
    hi = np.minimum(np.logaddexp(0.0, log_t_bound), _GPD_LAM_MAX)
    lam, f_min, ok = fminbound_rows(
        lambda x, sub: profile_nll(x, bracketed[sub]), lo, hi, xatol=1e-10)
    for r in bracketed[~ok]:
        errors[r] = FitError("GPD profile search hit its evaluation cap or a NaN")
    rows, lo, hi, lam, f_min = bracketed[ok], lo[ok], hi[ok], lam[ok], f_min[ok]
    f_lo, f_hi = profile_nll(lo, rows), profile_nll(hi, rows)
    end = ~(f_min < np.where(f_hi < f_lo, f_hi, f_lo))  # min(f_lo, f_hi)
    for r in rows[end]:
        errors[r] = FitError("GPD likelihood peaks at an end of the xi > -1 "
                             "region")
    rows, lam = rows[~end], lam[~end]
    xi, s = _gpd_profile(lam, w, top, rows)
    sigma = s * z_max[rows]
    nll = _gpd_nll_rows(xi, sigma, z if rows.size == size else z[rows])
    for r, x, sg, value in zip(rows, xi, sigma, nll):
        if not np.isfinite(value):
            errors[r] = FitError("GPD likelihood is not finite at the optimum")
        elif value > init[r] + 1e-8:
            errors[r] = FitError("optimizer ended below the moment starting "
                                 "likelihood")
        else:
            fits[r] = (x, sg, value)
    return fits, errors


def fit_gpd_mle(values, threshold: float | None = None) -> EvtFitResult:
    """GPD fit on excesses over a threshold, by a bounded 1-D search.

    ``values`` are exceedances; if ``threshold`` is None they are taken to be
    excesses already (threshold 0).  The scale is profiled out in
    t = xi / sigma (Grimshaw 1993, Technometrics 35), which leaves the
    profile negative log-likelihood n (log sigma + 1 + xi) to minimise by
    Brent's method in lam = log1p(t max z), over the region xi(t) > -1 up
    to Grimshaw's bound t < 2 (mean z - min z) / min z^2 on every root of
    the likelihood equation.  Below xi = -1 the likelihood is unbounded and
    the MLE irregular (Smith 1985), so an optimum at either end of that
    interval raises `FitError`.  The one-row case of `fit_gpd_rows`.
    """
    values = np.ravel(np.asarray(values, dtype=float))
    (fit,), (error,) = fit_gpd_rows(
        values, [values.size], [0.0 if threshold is None else float(threshold)])
    if error is not None:
        raise error
    return fit


# ---------------------------------------------------------------------------
# Cluster statistics and extremal-index estimators
# ---------------------------------------------------------------------------

def extract_clusters(indicator) -> ClusterStats:
    """Run-based declustering: clusters are maximal runs of >= 2 exceedances,
    so each is a run of waiting times equal to 1."""
    ind = np.asarray(indicator, dtype=bool)
    if ind.size == 0:
        raise DegenerateSeriesError("empty indicator series")
    positions = np.flatnonzero(ind)
    waiting = np.diff(positions)
    ones = waiting == 1
    # a run of ones starts at the first gap or where a one follows a larger gap
    clusters = int(ones[:1].sum()) + np.count_nonzero(ones[1:] > ones[:-1])
    return ClusterStats(positions.size, clusters, waiting)


def _clip01(x: np.ndarray) -> np.ndarray:
    """min(max(x, 0.0), 1.0) element by element, NaN kept as Python keeps it."""
    x = np.where(0.0 > x, 0.0, x)
    return np.where(1.0 < x, 1.0, x)


def _rows_of(indicator) -> np.ndarray:
    """One indicator series as the single row (1, length) of a row batch."""
    return np.reshape(np.asarray(indicator, dtype=bool), (1, -1))


def suveges_rows(indicator, q: float) -> tuple[np.ndarray, np.ndarray, list]:
    """`suveges_ei` of every row of the indicator (R, length) at once.

    Returns (theta, exceedances, flags) per row.  The estimator needs per
    row the exceedance count N, the sum of the gaps minus one, which is
    (last - first) - (N - 1), and N_c, the number of runs of exceedances
    minus one.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("quantile must lie in (0, 1)")
    ind = np.asarray(indicator, dtype=bool)
    n_exc = np.count_nonzero(ind, axis=1)
    flags = ["no_clusters" if n <= 1 else None for n in n_exc.tolist()]
    if not ind.shape[1]:
        return np.ones(len(ind)), n_exc, flags
    first = np.argmax(ind, axis=1)
    last = ind.shape[1] - 1 - np.argmax(ind[:, ::-1], axis=1)
    n_c = np.count_nonzero(ind[:, 1:] > ind[:, :-1], axis=1) + ind[:, 0] - 1
    s = (1.0 - q) * ((last - first) - (n_exc - 1))
    a = s + (n_exc - 1) + n_c
    with np.errstate(all="ignore"):
        # a^2 >= 8 N_c s, since N_c <= N - 1; the max only drops rounding
        theta = (a - np.sqrt(np.maximum(a * a - 8.0 * n_c * s, 0.0))) / (2.0 * s)
    # all gaps equal 1: one solid cluster, full memory
    saturated = (n_exc > 1) & (n_c == 0)
    for r in np.flatnonzero(saturated):
        flags[r] = "saturated"
    theta = np.where(n_exc <= 1, 1.0, np.where(saturated, 0.0, _clip01(theta)))
    return theta, n_exc, flags


def suveges_ei(indicator, q: float) -> EiEstimate:
    """Sueveges' closed-form MLE of the extremal index at quantile q.

    Works on the inter-exceedance times T_i: with S_i = T_i - 1 and
    N_c = #{S_i > 0}, the estimator is

        theta = (sum (1-q) S_i + (N-1) + N_c
                 - sqrt((sum (1-q) S_i + (N-1) + N_c)^2
                        - 8 N_c sum (1-q) S_i)) / (2 sum (1-q) S_i).

    Degenerate cases: fewer than two exceedances gives theta = 1 with a
    'no-clusters' flag; an indicator that is one solid run gives theta = 0
    with a 'saturated' flag.  The one-row case of `suveges_rows`.
    """
    (theta,), (n_exc,), (flag,) = suveges_rows(_rows_of(indicator), q)
    return EiEstimate(float(theta), "suveges", flag=flag,
                      metadata={"quantile": q, "exceedances": int(n_exc)})


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


def qk_rows(indicator, k_max: int = 0, min_visits: int = 100) -> tuple:
    """`qk_return_estimator` of every row of the indicator (R, length) at
    once.

    Returns (q, tail, theta, visits, errors): q (R, k_max + 1), and per row
    the truncation tail, theta, the usable visits and the
    `InsufficientVisitsError` of a row with fewer than ``min_visits`` of
    them, or with none at all (else None).  A usable visit at t returns
    first after k + 1 steps when the set is missed at t + 1, ..., t + k and
    hit at t + k + 1, so q_0 counts ``ind[:, :-1] & ind[:, 1:]``.
    """
    ind = np.asarray(indicator, dtype=bool)
    # a visit needs k_max + 1 subsequent steps for its window to be observable
    span = max(ind.shape[1] - k_max - 1, 0)
    waiting = ind[:, :span]  # visits not yet returned
    visits = np.count_nonzero(waiting, axis=1)
    returns = np.empty((len(ind), k_max + 1))
    for k in range(k_max + 1):
        ahead = ind[:, k + 1:k + 1 + span]
        returns[:, k] = np.count_nonzero(waiting & ahead, axis=1)
        if k < k_max:
            waiting = waiting & ~ahead
    with np.errstate(all="ignore"):
        q = returns / visits[:, None]
    tail = 1.0 - np.sum(q, axis=1)
    need = max(min_visits, 1)  # no visit leaves theta at 0 / 0
    errors = [InsufficientVisitsError(v, need) if v < need else None
              for v in visits.tolist()]
    return q, tail, _clip01(tail), visits, errors


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
    The one-row case of `qk_rows`.
    """
    (q,), (tail,), (theta,), (visits,), (error,) = qk_rows(
        _rows_of(indicator), k_max, min_visits)
    if error is not None:
        raise error
    est = EiEstimate(
        float(theta),
        "return_time_qk",
        metadata={
            "k_max": k_max,
            "visits": int(visits),
            "truncation_tail": float(tail),
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
