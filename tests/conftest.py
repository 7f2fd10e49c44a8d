import hashlib

import numpy as np

from slevolve import centred


def digest_le(arr) -> str:
    """SHA-256 of an array's little-endian bytes, as recorded reference
    data stores long arrays."""
    arr = np.asarray(arr)
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return hashlib.sha256(np.ascontiguousarray(le).tobytes()).hexdigest()


def random_case_d(rng, m, a=None, A_frac=None, c=1.0):
    """Random normalized case-(d) parameters (all alphas positive, conserved
    value strictly between 0 and its maximum)."""
    if a is None:
        a = int(rng.integers(1, m))
    w0_sq = rng.uniform(0.5, 2.5, size=m)
    alphas, _ = centred.normalize_lambda(w0_sq, a)
    if A_frac is None:
        A_frac = rng.uniform(0.15, 0.85)
    A = A_frac * float(np.sqrt(np.prod(alphas)))
    return centred.CentredParams(m, a, alphas, A, c=c)


def assert_fused_stage(kernel, n, rng):
    """The fused stage of a kernel on n packed reals against the numpy
    adapter's arithmetic, byte for byte: the stage state y + g*h (signed
    zeros, inf and NaN included), the row it writes (and no other) and the
    y_new it writes.  One case is exempt: when y_i and g_i*h are both NaN,
    IEEE 754 lets the sum return either NaN, and numpy's own add differs by
    lane (its SIMD body keeps the first operand's, its scalar tail the
    second's), so there only NaN-ness is compared."""
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])

    def same(got, want, nan_meets_nan):
        if nan_meets_nan:
            got, want = (np.where(np.isnan(v), np.nan, v)
                         for v in (got, want))
        return got.tobytes() == want.tobytes()

    for trial in range(300):
        y, g = (rng.normal(size=n) * 10.0 ** rng.uniform(
            -150, 150, size=n) for _ in range(2))
        if trial % 3:
            for v in (y, g):
                hit = rng.uniform(size=n) < 0.15
                v[hit] = rng.choice(special, size=n)[hit]
        h = (-1.0) ** trial * 10.0 ** rng.uniform(-8, 1)
        t = float(rng.uniform(-5, 5))
        dy = g.copy()
        np.multiply(dy, h, out=dy)
        with np.errstate(invalid="ignore"):
            x = y + dy
        nan_meets_nan = bool(np.any(np.isnan(y) & np.isnan(dy)))
        want = kernel(t, x)
        s = int(rng.integers(16))
        K = rng.normal(size=(16, n))
        rows = K.copy()
        y_new = np.empty(n)
        kernel.stage(t, kernel.start(y), g, h, K, s, y_new)
        assert same(K[s], want, nan_meets_nan)
        assert same(y_new, x, nan_meets_nan)
        K[s] = rows[s]
        assert K.tobytes() == rows.tobytes()
        kernel.stage(t, kernel.start(y), g, h, K, s)
        assert same(K[s], want, nan_meets_nan)
