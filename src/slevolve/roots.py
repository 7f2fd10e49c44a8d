"""The root finders of slevolve: one bracketing root finder for every
scalar root, and one companion-matrix solver for polynomial rows.

``brent`` runs Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4) on many brackets in lockstep: each round
calls the function once, on the rows still active.  The recurrence is ported
from scipy's ``brentq.c`` with the same floating-point operations in the
same order, so each row takes the same steps, the same number of function
calls and returns the same root as ``scipy.optimize.brentq`` bit for bit
(``tests/test_roots.py`` holds scipy as the oracle).  ``companion_roots``
takes the roots of many polynomials at once from one stacked ``eigvals``.

The ported algorithm comes from SciPy, under this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import numpy as np

from .errors import NumericalError, ValidationError

EPS = np.finfo(float).eps


def _bracket(lo, hi, r):
    return f"[{float(lo[r])!r}, {float(hi[r])!r}]"


def _values(f, x, rows, where, lo, hi, it):
    fx = np.asarray(f(x, rows), dtype=float)
    nan = np.isnan(fx)
    if nan.any():
        i = int(np.argmax(nan))
        r = int(rows[i])
        raise NumericalError(
            f"{where}: function value is NaN at x = {float(x[i])!r} in root "
            f"bracket {r} {_bracket(lo, hi, r)} after {it} iterations")
    return fx


def brent(f, lo, hi, xtol: float, rtol: float = 4 * EPS, maxiter: int = 100,
          *, stage: str, params: dict) -> np.ndarray:
    """Roots of f in the brackets [lo_r, hi_r] (either order), one per row.

    ``f(x, rows)`` returns f at x[i] for bracket rows[i]; it is called once
    for both ends of every bracket, then once per round on the abscissae of
    the rows still searching.  A row stops when f is 0 at its current point
    x or its bracket is narrower than xtol + rtol |x|; the root returned is
    that x.  A bracket whose ends have the same sign raises
    ``ValidationError``; a NaN value of f, or a row still searching after
    ``maxiter`` rounds, raises ``NumericalError``.  Each message names
    ``stage``, ``params``, the bracket and the iteration.
    """
    where = f"{stage} ({', '.join(f'{k}={v}' for k, v in params.items())})"
    if xtol <= 0 or rtol < 4 * EPS or maxiter < 0:
        raise ValidationError(f"{where}: need xtol > 0, rtol >= 4 eps and "
                              f"maxiter >= 0, got {xtol!r}, {rtol!r}, {maxiter}")
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = lo.size
    if not n:
        return lo
    rows = np.arange(n)
    fx = _values(f, np.concatenate([lo, hi]), np.concatenate([rows, rows]),
                 where, lo, hi, 0)
    xpre, xcur = lo.copy(), hi.copy()
    fpre, fcur = fx[:n], fx[n:]
    root = np.where(fpre == 0, xpre, xcur)
    active = (fpre != 0) & (fcur != 0)
    same = active & (np.signbit(fpre) == np.signbit(fcur))
    if same.any():
        r = int(np.argmax(same))
        raise ValidationError(
            f"{where}: root bracket {r} {_bracket(lo, hi, r)} does not "
            f"change sign (f = {float(fpre[r])!r}, {float(fcur[r])!r}) after "
            "0 iterations")
    xblk, fblk = np.zeros(n), np.zeros(n)
    spre, scur = np.zeros(n), np.zeros(n)
    for it in range(maxiter):
        i = np.nonzero(active)[0]
        if not i.size:
            return root
        xp, xc, xb = xpre[i], xcur[i], xblk[i]
        fp, fc, fb = fpre[i], fcur[i], fblk[i]
        sp, sc = spre[i], scur[i]
        # a sign change between the last two points makes xpre the far end
        flip = (fp != 0) & (fc != 0) & (np.signbit(fp) != np.signbit(fc))
        xb, fb = np.where(flip, xp, xb), np.where(flip, fp, fb)
        sp, sc = np.where(flip, xc - xp, sp), np.where(flip, xc - xp, sc)
        # keep the point with the smaller |f| as the current one
        swap = np.abs(fb) < np.abs(fc)
        xp, xc, xb = (np.where(swap, u, v) for u, v in ((xc, xp), (xb, xc),
                                                        (xc, xb)))
        fp, fc, fb = (np.where(swap, u, v) for u, v in ((fc, fp), (fb, fc),
                                                        (fc, fb)))

        delta = (xtol + rtol * np.abs(xc)) / 2
        sbis = (xb - xc) / 2
        done = (fc == 0) | (np.abs(sbis) < delta)
        root[i[done]] = xc[done]
        active[i[done]] = False

        with np.errstate(divide="ignore", invalid="ignore"):
            interp = -fc * (xc - xp) / (fc - fp)
            dpre = (fp - fc) / (xp - xc)
            dblk = (fb - fc) / (xb - xc)
            extrap = -fc * (fb * dblk - fp * dpre) / (dblk * dpre * (fb - fp))
        stry = np.where(xp == xb, interp, extrap)
        tried = (np.abs(sp) > delta) & (np.abs(fc) < np.abs(fp))
        good = tried & (2 * np.abs(stry) < np.minimum(np.abs(sp),
                                                      3 * np.abs(sbis) - delta))
        sp, sc = np.where(good, sc, sbis), np.where(good, stry, sbis)
        xp, fp = xc, fc
        xc = xc + np.where(np.abs(sc) > delta, sc,
                           np.where(sbis > 0, delta, -delta))

        xpre[i], xcur[i], xblk[i] = xp, xc, xb
        fpre[i], fblk[i] = fp, fb
        spre[i], scur[i] = sp, sc
        j = i[~done]
        if j.size:
            fcur[j] = _values(f, xcur[j], j, where, lo, hi, it + 1)
    if active.any():
        r = int(np.argmax(active))
        raise NumericalError(
            f"{where}: root bracket {r} {_bracket(lo, hi, r)} did not "
            f"converge in {maxiter} iterations (last x = {float(xcur[r])!r})")
    return root


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the row polynomials coeffs (N, d+1), highest power first,
    leading coefficient nonzero: shape (N, d), from one stacked ``eigvals``
    of the companion matrices ``np.roots`` builds, so a row with a nonzero
    last coefficient gets ``np.roots``'s roots bit for bit, in order."""
    N, d = coeffs.shape[0], coeffs.shape[1] - 1
    if not d:
        return np.zeros((N, 0), dtype=complex)
    comp = np.zeros((N, d, d))
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(comp)
