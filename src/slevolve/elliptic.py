"""Jacobi elliptic functions sn, cn, dn and the complete integral K.

Evaluation uses the descending Landen/arithmetic-geometric-mean scheme with
backward recurrence on the amplitude.  The argument convention is the
*modulus* k, not the parameter m = k^2; mixing the two is the classic bug,
so every public function documents it.
"""

import numpy as np

from .errors import ValidationError

_AGM_TOL = 1e-16
_AGM_MAX_ITER = 64


def _check_modulus(k: float, allow_one: bool = True) -> float:
    k = float(k)
    if not (0.0 <= k <= 1.0) or (not allow_one and k == 1.0):
        hi = "1]" if allow_one else "1)"
        raise ValidationError(f"modulus k must lie in [0, {hi}, got {k}")
    return k


def _agm_scales(k: float):
    """AGM sequence a_i, c_i for modulus k, descending until c_N ~ 0."""
    # k' as sqrt((1-k)(1+k)): 1 - k*k would cancel as k -> 1
    a, b = 1.0, np.sqrt((1.0 - k) * (1.0 + k))
    a_list, c_list = [a], [k]
    for _ in range(_AGM_MAX_ITER):
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        a_list.append(a)
        c_list.append(c)
        if abs(c) <= _AGM_TOL * a:
            break
    return a_list, c_list


def complete_K(k: float) -> float:
    """Real quarter period K(k) via the arithmetic-geometric mean.

    k is the modulus; K(0) = pi/2 and K diverges as k -> 1 (rejected).
    """
    k = _check_modulus(k, allow_one=False)
    a_list, _ = _agm_scales(k)
    return float(np.pi / (2.0 * a_list[-1]))


def jacobi_grid(t: np.ndarray, k: float) -> np.ndarray:
    """(sn, cn, dn) over an array of arguments for modulus k in [0, 1];
    returns shape t.shape + (3,).

    Initial conditions sn(0)=0, cn(0)=dn(0)=1.  One AGM sequence serves
    every argument.  The backward amplitude recurrence keeps the defining
    identities exact to rounding: cn and sn are a cosine/sine pair of the
    recovered amplitude and dn^2 is 1 - k^2 sn^2 where sn^2 < 1/2 and
    k'^2 + k^2 cn^2 elsewhere, so neither form cancels and dn keeps its
    relative accuracy where it is tiny (k -> 1, large t).
    """
    t = np.asarray(t, dtype=float)
    k = _check_modulus(k)
    if k == 0.0:
        return np.stack([np.sin(t), np.cos(t), np.ones_like(t)], axis=-1)
    if k == 1.0:
        e = np.exp(-np.abs(t))
        sech = 2.0 * e / (1.0 + e * e)
        return np.stack([np.tanh(t), sech, sech], axis=-1)

    a_list, c_list = _agm_scales(k)
    # reduce modulo the real period 4K for large arguments
    period = 4.0 * np.pi / (2.0 * a_list[-1])
    tr = t - period * np.round(t / period)

    n = len(a_list) - 1
    phi = (2.0 ** n) * a_list[n] * tr
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c_list[i] * np.sin(phi) / a_list[i],
                                             -1.0, 1.0)))
    sn, cn = np.sin(phi), np.cos(phi)
    dn = np.sqrt(np.where(sn ** 2 < 0.5, 1.0 - (k * sn) ** 2,
                          (1.0 - k) * (1.0 + k) + (k * cn) ** 2))
    return np.stack([sn, cn, dn], axis=-1)
