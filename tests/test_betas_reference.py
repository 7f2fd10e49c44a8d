"""``betas_grid`` against values recorded before its quadrature scheduler
was rewritten.

``data/betas_grid_reference.json`` holds, for every ``sym(m,a)`` with
m <= 6, at the quadrature tolerances of ``betas`` (3e-12) and of
``periodic_search`` (1e-12), the SHA-256 of the little-endian bytes of an
(n_grid, m+2) table: each row is beta_1..beta_m, T and the error estimate
of ``betas_grid`` at one A of the search grid, 96 points from 0.02 A_max to
0.98 A_max.  The digests were recorded with numpy 2.4 on x86-64 and must be
met bit for bit: a scheduler decides which panels share an integrand call,
not what any panel computes.

Re-record (only when the quadrature itself is meant to change) with
``PYTHONPATH=src python tests/test_betas_reference.py``.
"""

import json
import os

import numpy as np
import pytest

from conftest import digest_le
from slevolve import centred

REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "betas_grid_reference.json")

FAMILIES = [(m, a) for m in range(2, 7) for a in range(1, m)]
TOLS = (3e-12, 1e-12)


def _table(m, a, tol):
    al = centred.symmetric_alphas(m, a)
    probe = centred.CentredParams(m, a, al, 0.5 * float(np.sqrt(np.prod(al))),
                                  c=0.0)
    A_max = probe.A_max
    A_grid = np.linspace(0.02 * A_max, 0.98 * A_max, 96)
    rows = centred.betas_grid(probe, A_grid, tol=tol)
    return np.array([r.betas + (r.period_T, r.quadrature_error) for r in rows])


def _key(m, a, tol):
    return f"sym({m},{a}) tol={tol!r}"


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def test_reference_covers_every_family(reference):
    assert sorted(reference) == sorted(_key(m, a, tol) for m, a in FAMILIES
                                       for tol in TOLS)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("m,a", FAMILIES)
def test_betas_grid_bitwise(m, a, tol, reference):
    table = _table(m, a, tol)
    assert digest_le(table) == reference[_key(m, a, tol)]
    # the angle sum rule: theta = sum theta_j stays in (0, pi)
    assert np.max(np.abs(np.sum(table[:, :m], axis=1))) <= 1e-11


if __name__ == "__main__":
    digests = {_key(m, a, tol): digest_le(_table(m, a, tol))
               for m, a in FAMILIES for tol in TOLS}
    with open(REFERENCE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
