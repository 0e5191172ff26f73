"""Brent's root-finder and bounded minimiser, run over many rows at once.

Per-row ports of scipy's ``brentq`` and of ``minimize_scalar``'s bounded
method, which return, row by row, the floats scipy returns on that row's
function.  The GPD fits of `evt` use them; they keep scipy off the import
path.  Each row stops on its own test and its own cap, so a batch runs no
longer than its slowest row would alone.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FitError

_RTOL = 4 * math.ulp(1.0)  # scipy's default rtol for brentq


def brentq_rows(f, xa, xb, xtol: float, rtol: float = _RTOL,
                maxiter: int = 100) -> tuple[np.ndarray, list]:
    """Roots of the rows of ``f`` between ``xa`` and ``xb`` by Brent's
    method; ``f(x, rows)`` returns the values at ``x`` of the rows whose
    indices ``rows`` lists.

    Per row, a port of ``scipy.optimize.brentq`` (scipy's
    ``optimize/Zeros/brentq.c``, BSD-3-Clause): the same operations in the
    same order, so each row's root is the float scipy returns on that row's
    function.  Returns (roots, errors): where scipy raises ValueError (ends
    of one sign, a NaN value) or RuntimeError (no convergence in
    ``maxiter`` steps), the row's root is NaN and its error a `FitError`.
    """
    xpre = np.array(xa, dtype=float)
    xcur = np.array(xb, dtype=float)
    size = xpre.size
    root = np.full(size, np.nan)
    errors = [None] * size
    fpre, fcur = np.full(size, np.nan), np.full(size, np.nan)
    xblk, fblk, spre, scur = (np.zeros(size) for _ in range(4))

    def value(x, rows):
        """f at x on ``rows``, with a `FitError` for each row where it is NaN."""
        fx = np.asarray(f(x, rows), dtype=float)
        for r, at in zip(rows[np.isnan(fx)], x[np.isnan(fx)]):
            errors[r] = FitError(f"root search: the function is NaN at "
                                 f"{float(at)!r}")
        return fx

    rows = np.arange(size)
    fpre[rows] = value(xpre, rows)
    rows = rows[~np.isnan(fpre)]
    fcur[rows] = value(xcur[rows], rows)
    rows = rows[~np.isnan(fcur[rows])]
    for ends, values in ((xpre, fpre), (xcur, fcur)):
        hit = values[rows] == 0.0
        root[rows[hit]] = ends[rows[hit]]
        rows = rows[~hit]
    same = (fpre[rows] < 0.0) == (fcur[rows] < 0.0)
    for r in rows[same]:
        errors[r] = FitError("root search: f(a) and f(b) have the same sign")
    rows = rows[~same]
    with np.errstate(all="ignore"):
        for _ in range(maxiter):
            if not rows.size:
                break
            xp, xc, xk = xpre[rows], xcur[rows], xblk[rows]
            fp, fc, fk = fpre[rows], fcur[rows], fblk[rows]
            sp, sc = spre[rows], scur[rows]
            new = (fp != 0.0) & (fc != 0.0) & ((fp < 0.0) != (fc < 0.0))
            xk, fk = np.where(new, xp, xk), np.where(new, fp, fk)
            sp, sc = np.where(new, xc - xp, sp), np.where(new, xc - xp, sc)
            swap = np.abs(fk) < np.abs(fc)
            xp, xc, xk = (np.where(swap, xc, xp), np.where(swap, xk, xc),
                          np.where(swap, xc, xk))
            fp, fc, fk = (np.where(swap, fc, fp), np.where(swap, fk, fc),
                          np.where(swap, fc, fk))

            delta = (xtol + rtol * np.abs(xc)) / 2
            sbis = (xk - xc) / 2
            done = (fc == 0.0) | (np.abs(sbis) < delta)
            root[rows[done]] = xc[done]

            trial = (np.abs(sp) > delta) & (np.abs(fc) < np.abs(fp))
            dpre = (fp - fc) / (xp - xc)
            dblk = (fk - fc) / (xk - xc)
            stry = np.where(
                xp == xk,
                -fc * (xc - xp) / (fc - fp),  # interpolate
                -fc * (fk * dblk - fp * dpre) / (dblk * dpre * (fk - fp)))
            short = trial & (2 * np.abs(stry)
                             < np.minimum(np.abs(sp), 3 * np.abs(sbis) - delta))
            sp, sc = np.where(short, sc, sbis), np.where(short, stry, sbis)
            xp, fp = xc, fc
            xc = xc + np.where(np.abs(sc) > delta, sc,
                               np.where(sbis > 0, delta, -delta))

            go = ~done
            rows = rows[go]
            for full, local in ((xpre, xp), (xcur, xc), (xblk, xk),
                                (fpre, fp), (fblk, fk), (spre, sp),
                                (scur, sc)):
                full[rows] = local[go]
            fcur[rows] = value(xcur[rows], rows)
            rows = rows[~np.isnan(fcur[rows])]
    for r in rows:
        errors[r] = FitError(f"root search did not converge in {maxiter} steps")
    return root, errors


def fminbound_rows(func, a, b, xatol: float, maxiter: int = 500
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minima of the rows of ``func`` on the finite intervals [a, b] by
    Brent's bounded method; ``func(x, rows)`` returns the values at ``x`` of
    the rows whose indices ``rows`` lists.  Returns (x, func(x), ok).

    Per row, a port of scipy's ``optimize._optimize._minimize_scalar_bounded``
    (BSD-3-Clause), which ``minimize_scalar(method="bounded")`` runs: each
    row's floats are ``res.x`` and ``res.fun`` on that row's function, and
    ``ok`` is ``res.success``, False when ``maxiter`` evaluations are spent
    or a value is NaN.  Every unfinished row takes one evaluation per step,
    so all rows share the evaluation count.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    size = a.size
    rows = np.arange(size)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc.copy(), fulc.copy()
    rat, e = np.zeros(size), np.zeros(size)
    fx = np.asarray(func(xf, rows), dtype=float)
    num = 1
    fu = np.full(size, np.inf)
    ffulc, fnfc = fx.copy(), fx.copy()
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    ok = np.ones(size, dtype=bool)
    with np.errstate(all="ignore"):
        while True:
            rows = rows[np.abs(xf[rows] - xm[rows])
                        > tol2[rows] - 0.5 * (b[rows] - a[rows])]
            if not rows.size:
                break
            a_, b_, xf_, fx_, xm_ = a[rows], b[rows], xf[rows], fx[rows], xm[rows]
            nfc_, fnfc_, fulc_, ffulc_ = (nfc[rows], fnfc[rows], fulc[rows],
                                          ffulc[rows])
            rat_, e_, tol1_, tol2_ = rat[rows], e[rows], tol1[rows], tol2[rows]

            parabolic = np.abs(e_) > tol1_  # try a parabolic fit
            r = (xf_ - nfc_) * (fx_ - ffulc_)
            q = (xf_ - fulc_) * (fx_ - fnfc_)
            p = (xf_ - fulc_) * q - (xf_ - nfc_) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            r = e_
            e_ = np.where(parabolic, rat_, e_)
            fits = parabolic & (np.abs(p) < np.abs(0.5 * q * r)) & (
                q * (a_ - xf_) < p) & (p < q * (b_ - xf_))
            rat_ = np.where(fits, (p + 0.0) / q, rat_)
            x = xf_ + rat_
            edge = fits & ((x - a_ < tol2_) | (b_ - x < tol2_))
            rat_ = np.where(edge, np.where(xm_ - xf_ >= 0.0, tol1_, -tol1_), rat_)
            e_ = np.where(fits, e_, np.where(xf_ >= xm_, a_ - xf_, b_ - xf_))
            rat_ = np.where(fits, rat_, golden_mean * e_)

            step = np.maximum(np.abs(rat_), tol1_)
            x = xf_ + np.where(rat_ >= 0.0, step, -step)
            fu_ = np.asarray(func(x, rows), dtype=float)
            num += 1

            better = fu_ <= fx_
            right = x >= xf_
            left = x < xf_
            a[rows] = np.where(better, np.where(right, xf_, a_),
                               np.where(left, x, a_))
            b[rows] = np.where(better, np.where(right, b_, xf_),
                               np.where(left, b_, x))
            second = ~better & ((fu_ <= fnfc_) | (nfc_ == xf_))
            third = ~better & ~second & (
                (fu_ <= ffulc_) | (fulc_ == xf_) | (fulc_ == nfc_))
            shift = better | second
            fulc[rows] = np.where(shift, nfc_, np.where(third, x, fulc_))
            ffulc[rows] = np.where(shift, fnfc_, np.where(third, fu_, ffulc_))
            nfc[rows] = np.where(better, xf_, np.where(second, x, nfc_))
            fnfc[rows] = np.where(better, fx_, np.where(second, fu_, fnfc_))
            xf[rows] = np.where(better, x, xf_)
            fx[rows] = np.where(better, fu_, fx_)
            fu[rows], rat[rows], e[rows] = fu_, rat_, e_

            xm[rows] = 0.5 * (a[rows] + b[rows])
            tol1[rows] = sqrt_eps * np.abs(xf[rows]) + xatol / 3.0
            tol2[rows] = 2.0 * tol1[rows]
            if num >= maxiter:
                ok[rows] = False
                break
    ok &= ~(np.isnan(xf) | np.isnan(fx) | np.isnan(fu))
    return xf, fx, ok
