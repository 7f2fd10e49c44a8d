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
