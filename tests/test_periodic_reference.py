"""``verify_periodic`` against values recorded before its DOP853 stage loop
and w right-hand side were rewritten.

``data/periodic_reference.json`` holds, for ``sym(3,1)``'s (-8,4,4)/7 and
for every solution ``periodic_search(b_max=8)`` finds on ``sym(4,2)`` and
``sym(6,3)``: the solution's A as ``float.hex``, ``max_defect`` as
``float.hex``, the SHA-256 of the little-endian ``z_eval`` bytes of its
``ode.solve`` run, and that run's ``nfev`` and accepted steps.  They were
recorded with numpy 2.4 on x86-64 and must be met bit for bit: the
rewrite changed where the scalar step control runs, not what it computes.
"""

import json
import os

import pytest

from conftest import digest_le
from slevolve import centred, ode

REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "periodic_reference.json")

FAMILIES = {"sym(3,1)": (3, 1), "sym(4,2)": (4, 2), "sym(6,3)": (6, 3)}


def _solutions(family):
    m, a = FAMILIES[family]
    sols = centred.periodic_search(centred.symmetric_alphas(m, a), a, 8)
    if family == "sym(3,1)":
        sols = [s for s in sols if s.int_angles == (-8, 4, 4)]
    return sols


def _key(sol) -> str:
    return f"{list(sol.int_angles)}/{sol.denom}"


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_periodic_bitwise(family, reference, monkeypatch):
    runs = []
    real = ode.solve

    def spy(*args, **kw):
        runs.append(real(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(ode, "solve", spy)
    want = reference[family]
    sols = _solutions(family)
    assert sorted(_key(s) for s in sols) == sorted(want)
    for sol in sols:
        rec = want[_key(sol)]
        assert float(sol.params.A).hex() == rec["A"]
        runs.clear()
        got = centred.verify_periodic(sol)
        (run,) = runs
        assert float(got["max_defect"]).hex() == rec["max_defect"]
        assert digest_le(run.z_eval) == rec["z_eval_sha256"]
        assert run.nfev == rec["nfev"]
        assert run.t.size - 1 == rec["accepted_steps"]
