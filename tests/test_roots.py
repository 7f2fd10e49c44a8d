"""The lockstep Brent root finder against ``scipy.optimize.brentq``.

scipy is the oracle here: every bracket of a batch must give the same root
and take the same number of function evaluations as a scalar ``brentq``
call, bit for bit.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from slevolve.errors import NumericalError, ValidationError
from slevolve.roots import EPS, brent

# smooth, steep, flat (triple root) and one-sided-kink functions of x - c
SHAPES = (
    lambda x, c: np.tanh(x - c) + 0.3 * (x - c) ** 3,
    lambda x, c: np.sin(3.0 * x) - np.sin(3.0 * c),
    lambda x, c: (x - c) ** 3,
    lambda x, c: np.expm1(x - c),
    lambda x, c: (x - c) * abs(x - c) ** 0.2,
    lambda x, c: np.arctan(1e4 * (x - c)),
)
TOLERANCES = ((4 * EPS, 4 * EPS), (1e-14, 4 * EPS), (1e-10, 1e-12),
              (1e-4, 4 * EPS))


def _batch(rng, n):
    """n brackets: a shape, a root c and ends around it, some reversed and
    some with the root exactly at an end."""
    shapes = rng.integers(0, len(SHAPES), n)
    c = rng.uniform(-1.0, 1.0, n)
    lo = c - rng.uniform(1e-3, 2.0, n)
    hi = c + rng.uniform(1e-3, 2.0, n)
    at_end = rng.random(n) < 0.1
    lo[at_end] = c[at_end]
    flip = rng.random(n) < 0.3
    lo[flip], hi[flip] = hi[flip], lo[flip]
    funcs = [lambda x, s=SHAPES[k], ci=ci: float(s(x, ci))
             for k, ci in zip(shapes, c)]
    return funcs, lo, hi


def test_replays_scipy_brentq_bitwise():
    rng = np.random.default_rng(2024)
    replayed = 0
    for batch in range(128):
        xtol, rtol = TOLERANCES[batch % len(TOLERANCES)]
        funcs, lo, hi = _batch(rng, 12)
        want = {}
        for r, (fn, a, b) in enumerate(zip(funcs, lo, hi)):
            if fn(a) * fn(b) > 0:
                continue
            root, info = brentq(fn, a, b, xtol=xtol, rtol=rtol,
                                full_output=True, disp=False)
            # brackets the oracle does not converge on are not replayed
            if info.converged:
                want[r] = (root, info.function_calls)
        keep = np.array(sorted(want))
        calls = np.zeros(keep.size, dtype=int)

        def f(x, rows):
            np.add.at(calls, rows, 1)
            return [funcs[keep[r]](v) for v, r in zip(x.tolist(), rows)]

        got = brent(f, lo[keep], hi[keep], xtol, rtol, stage="replay",
                    params={"batch": batch})
        for r, k in enumerate(keep):
            assert (got[r], calls[r]) == want[k], (batch, k)
        replayed += got.size
    assert replayed >= 1000


def test_root_at_an_end_costs_two_calls():
    seen = []

    def f(x, rows):
        seen.append(x.size)
        return x - np.array([0.0, 2.0, 0.5])[rows]

    got = brent(f, [0.0, 1.0, 0.0], [1.0, 2.0, 1.0], 1e-12, stage="t",
                params={})
    assert got[0] == 0.0 and got[1] == 2.0
    assert got[2] == brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=1e-12)
    assert seen[0] == 6 and all(n == 1 for n in seen[1:])


def test_no_brackets_no_calls():
    def f(x, rows):
        raise AssertionError("called")

    assert brent(f, [], [], 1e-12, stage="t", params={}).shape == (0,)


def test_calls_only_active_rows():
    # each round evaluates the rows still searching, and nothing else
    rounds = []

    def f(x, rows):
        rounds.append(rows.tolist())
        return np.array([x - 0.1, np.tanh(3.0 * (x - 0.3))])[rows,
                                                          np.arange(x.size)]

    brent(f, [-1.0, -1.0], [1.0, 1.0], 1e-14, stage="t", params={})
    assert rounds[0] == [0, 1, 0, 1]
    lengths = [len(r) for r in rounds[1:]]
    assert lengths == sorted(lengths, reverse=True) and lengths[-1] == 1


class TestErrors:
    """Each failure is typed and names the stage, the parameters, the
    bracket and the iteration count."""

    def test_same_sign_bracket(self):
        with pytest.raises(ValidationError) as exc:
            brent(lambda x, rows: x ** 2 + 1.0, [-1.0, 0.5], [1.0, 2.0],
                  1e-12, stage="search", params={"m": 3, "a": 1})
        msg = str(exc.value)
        for part in ("search (m=3, a=1)", "root bracket 0", "[-1.0, 1.0]",
                     "does not change sign", "after 0 iterations"):
            assert part in msg

    def test_nan_value(self):
        def f(x, rows):
            return np.where(np.abs(x) < 0.25, np.nan, x)

        with pytest.raises(NumericalError) as exc:
            brent(f, [-1.0], [1.5], 1e-12, stage="event", params={"k": 2})
        msg = str(exc.value)
        for part in ("event (k=2)", "NaN at x = ", "root bracket 0",
                     "[-1.0, 1.5]", "after 1 iterations"):
            assert part in msg

    def test_iteration_budget(self):
        with pytest.raises(NumericalError) as exc:
            brent(lambda x, rows: (x - 1.0 / 3.0) ** 3, [0.0], [1.0], 1e-15,
                  maxiter=3, stage="normalize_lambda", params={"m": 4})
        msg = str(exc.value)
        for part in ("normalize_lambda (m=4)", "root bracket 0", "[0.0, 1.0]",
                     "did not converge in 3 iterations"):
            assert part in msg
        with pytest.raises(RuntimeError):
            brentq(lambda x: (x - 1.0 / 3.0) ** 3, 0.0, 1.0, xtol=1e-15,
                   maxiter=3)

    def test_bad_tolerances(self):
        with pytest.raises(ValidationError, match=r"t \(\): need xtol > 0"):
            brent(lambda x, rows: x, [-1.0], [1.0], 0.0, stage="t", params={})
        with pytest.raises(ValidationError, match="rtol >= 4 eps"):
            brent(lambda x, rows: x, [-1.0], [1.0], 1e-12, rtol=EPS,
                  stage="t", params={})
