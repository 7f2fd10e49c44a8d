"""``ode.generated_system`` on a small hand-written system, apart from the
two kernels built on it: its ``rhs`` against the same arithmetic in numpy,
its fused stage byte for byte through ``assert_fused_stage``, and a run of
``ode.solve`` on it against the numpy callable.  This module imports no
scipy."""

import numpy as np
import pytest

from conftest import assert_fused_stage
from slevolve import ode

C = 0.5 - 2.0j

# dz0/dt = z0 z1, dz1/dt = conj(C z0 + z1) on (Re z0, Re z1, Im z0, Im z1)
BODY = ["z0 = complex(x0, x2)",
        "z1 = complex(x1, x3)",
        "p = z0 * z1",
        "q = c * z0 + z1"]
OUTPUTS = ["p.real", "q.real", "p.imag", "-q.imag"]


def system():
    return ode.generated_system("test system", BODY, OUTPUTS, {"c": C})


def numpy_rhs(t, y):
    z = y[:2] + 1j * y[2:]
    dz = np.array([z[0] * z[1], np.conj(C * z[0] + z[1])])
    return np.concatenate([dz.real, dz.imag])


def test_rhs_matches_numpy_form():
    kernel = system()
    rng = np.random.default_rng(1)
    for _ in range(200):
        y = rng.normal(size=4) * rng.uniform(0.1, 10.0)
        got, want = kernel(0.0, y), numpy_rhs(0.0, y)
        assert got.dtype == float and got.shape == (4,)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_fused_stage_matches_numpy_stage():
    assert_fused_stage(system(), 4, np.random.default_rng(2))


def test_linear_system_solves_as_the_numpy_callable():
    # dz/dt = i z: every output is a copy of a state component, so the
    # generated rhs equals the numpy one bit for bit, and so does the run
    kernel = ode.generated_system("rotation", [], ["-x1", "x0"])

    def rhs(t, y):
        return np.array([-y[1], y[0]])

    runs = [ode.solve(f, [1.0 + 0.5j], 3.0, 1e-11, 1e-13, stage="test",
                      params={}) for f in (kernel, rhs)]
    assert np.array_equal(runs[0].t, runs[1].t)
    assert runs[0].nfev == runs[1].nfev
    t = np.linspace(0.0, 3.0, 17)
    assert runs[0](t).tobytes() == runs[1](t).tobytes()
    assert np.max(np.abs(runs[0](t)[:, 0]
                         - (1.0 + 0.5j) * np.exp(1j * t))) < 1e-10


def test_name_labels_the_code():
    kernel = ode.generated_system("named kernel", ["r = x0 / x1"], ["r", "r"])
    with pytest.raises(ZeroDivisionError) as exc:
        kernel(0.0, np.array([1.0, 0.0]))
    tb = exc.value.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename == "<named kernel>"
