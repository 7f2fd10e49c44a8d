"""The DOP853 driver against scipy's ``solve_ivp(method="DOP853")``.

scipy is the oracle here and nowhere in the library's ODE path: every test
runs one of the driver's callers (the dense w paths ``integrate_w`` and
``integrate_affine``, the case-(d) runs of ``betas_ode`` and, with
``t_eval``, ``verify_periodic``, and ``evolver.integrate``), records each
``ode.solve`` call it makes, and replays the same right-hand side and
event through ``solve_ivp``.  Step times, right-hand-side counts, status,
event times and dense values must agree bit for bit; the four w callers
pass one tolerance pair.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from slevolve import centred, evodata, evolver, meshverify, ode
from slevolve.affine import AffineParams, affine_initial, integrate_affine
from slevolve.errors import NumericalError, ValidationError

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp


@pytest.fixture
def calls(monkeypatch):
    """Every ``ode.solve`` call made while the test runs, with its result
    (the partial solution for a failed run)."""
    record = []
    real = ode.solve

    def spy(rhs, z0, t_end, rtol, atol, **kw):
        entry = {"rhs": rhs, "z0": np.asarray(z0, dtype=complex),
                 "t_end": t_end, "rtol": rtol, "atol": atol, "kw": kw}
        record.append(entry)
        try:
            entry["sol"] = real(rhs, z0, t_end, rtol, atol, **kw)
        except ode.IntegrationError as exc:
            entry["sol"] = exc.solution
            raise
        return entry["sol"]

    monkeypatch.setattr(ode, "solve", spy)
    return record


def _scipy_event(event):
    """scipy's form of the driver's one upward ``Event`` (or None)."""
    if event is None:
        return None

    def g(t, y):
        return event.fun(t, y)
    g.direction = 1
    g.terminal = event.terminal
    return g


def _complex(y, n):
    """scipy's (2n, N) packed values as (N, n) complex."""
    return (y[:n] + 1j * y[n:]).T


def assert_matches_scipy(entry):
    z0 = entry["z0"]
    n = z0.size
    t_eval = entry["kw"].get("t_eval")
    event = entry["kw"].get("event")
    ref = solve_ivp(entry["rhs"], (0.0, entry["t_end"]),
                    np.concatenate([z0.real, z0.imag]), method="DOP853",
                    rtol=entry["rtol"], atol=entry["atol"],
                    dense_output=t_eval is None, t_eval=t_eval,
                    events=_scipy_event(event))
    sol = entry["sol"]
    assert sol.status == ref.status
    assert sol.nfev == ref.nfev
    if event is not None:
        assert np.array_equal(sol.t_event, ref.t_events[0])
    if t_eval is not None:
        assert np.array_equal(sol.z_eval, _complex(ref.y, n))
        return ref
    assert np.array_equal(sol.t, ref.t)
    lo, hi = min(ref.t[0], ref.t[-1]), max(ref.t[0], ref.t[-1])
    span = hi - lo
    grid = np.concatenate([np.linspace(lo, hi, 997), ref.t,
                           [lo - 0.01 * span, hi + 0.01 * span]])
    assert np.array_equal(sol(grid), _complex(ref.sol(grid), n))
    for t in (ref.t[0], 0.5 * (ref.t[1] + ref.t[2]), ref.t[-1]):
        assert np.array_equal(sol(t), _complex(ref.sol(t)[:, None], n)[0])
    return ref


class TestAgainstScipy:
    # every kernel width from 2 to 6, each stage through the fused call
    @pytest.mark.parametrize("m,a", [(3, 1), (5, 2), (2, 1), (4, 1), (6, 2)])
    def test_integrate_w(self, calls, m, a):
        params = centred.CentredParams(m, a, centred.symmetric_alphas(m, a),
                                       0.6, c=0.0)
        T = centred.betas(params).period_T
        path = centred.integrate_w(centred.w_initial(params), a, 3 * T)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert path.t_span == (0.0, ref.t[-1])

    def test_integrate_w_backward(self, calls):
        # negative h: the stage state y + g*h is formed with h < 0
        params = centred.CentredParams(4, 2, centred.symmetric_alphas(4, 2),
                                       0.6, c=0.0)
        T = centred.betas(params).period_T
        path = centred.integrate_w(centred.w_initial(params), 2, -3 * T)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert ref.t[-1] == -3 * T and np.all(np.diff(ref.t) < 0)
        assert path.t_span == (0.0, ref.t[-1])

    def test_betas_ode_upward_event(self, calls):
        # one run, stopped by its du event at the third upward crossing
        params = centred.CentredParams(4, 2, centred.symmetric_alphas(4, 2),
                                       0.4, c=0.0)
        centred.betas_ode(params)
        (entry,) = calls
        assert entry["kw"]["event"].terminal == 3
        ref = assert_matches_scipy(entry)
        assert ref.status == 1 and entry["sol"].t_event.size == 3
        assert ref.t[-1] == ref.t_events[0][2]

    def test_betas_ode_one_run_near_small_A(self, calls):
        # sym(3,1) at A = 1e-6 A_max: one run, stopped at the third upward
        # crossing (t = 28.8), and the result pinned to its bits
        al = centred.symmetric_alphas(3, 1)
        got = centred.betas_ode(centred.CentredParams(
            3, 1, al, 1e-6 * np.sqrt(np.prod(al))))
        (entry,) = calls
        assert entry["sol"].nfev == 3398
        assert_matches_scipy(entry)
        assert [float(b).hex() for b in got.betas] == [
            "-0x1.921fe4d22e8fbp+1", "0x1.921fe5368cc8bp+0",
            "0x1.921fe5368cc8bp+0"]
        assert [float(v).hex() for v in (got.period_T, got.gamma,
                                         got.delta)] == [
            "0x1.374d59f74278ap+3", "-0x1.ffffffffda097p-1",
            "0x1.ffffeca095efcp+0"]
        assert np.isnan(got.quadrature_error)

    def test_integrate_affine_backward(self, calls):
        params = AffineParams(4, 2, centred.symmetric_alphas(3, 2), 0.4)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, 2, -6.0)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert ref.t[-1] == -6.0 and np.all(np.diff(ref.t) < 0)
        assert not path.escaped

    def test_integrate_affine_terminal_event(self, calls):
        params = AffineParams(4, 3, (1.0, 1.0, 1.0), 0.4)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, 3, 60.0)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert ref.status == 1 and path.escaped
        assert path.escape_time == ref.t_events[0][0] == ref.t[-1]

    def test_evolver_terminal_event(self, calls, monkeypatch):
        monkeypatch.setattr(ode, "BLOWUP_GUARD", 1e6)
        data = evodata.example_quadric(3, 3, 1.0)
        phi0 = evolver.EvolMap.diagonal(np.array([1.0, 1.0, 1.0], complex))
        traj = evolver.integrate(phi0, data, 50.0, checkpoints=5,
                                 membership_samples=4)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert ref.status == 1 and traj.escaped
        assert traj.nfev == ref.nfev and traj.accepted_steps == ref.t.size - 1

    @pytest.mark.parametrize("m,t_esc", [(3, -3.15003), (4, -2.42952),
                                         (5, -2.05758)])
    def test_backward_escape(self, calls, m, t_esc):
        # case (b) run backward: the upward blow-up crossing on a step with
        # h < 0, through the w kernel and through the general engine
        params = centred.CentredParams(m, m, (1.0,) * m, 0.2, c=1.0)
        w0 = centred.w_initial(params)
        path = centred.integrate_w(w0, m, -5.0)
        traj = evolver.integrate(evolver.EvolMap.diagonal(w0),
                                 evodata.example_quadric(m, m, 1.0), -5.0,
                                 checkpoints=5, membership_samples=4)
        assert len(calls) == 2
        for entry in calls:
            ref = assert_matches_scipy(entry)
            assert ref.status == 1 and ref.t[-1] == ref.t_events[0][0]
            assert np.all(np.diff(ref.t) < 0)
        assert path.escaped and traj.escaped
        assert abs(path.escape_time - t_esc) < 1e-5
        assert abs(traj.escape_time - path.escape_time) < 1e-9

    def test_evolver_general_start(self, calls):
        data = evodata.example_quadric(3, 1, 1.0)
        rng = np.random.default_rng(5)
        A = np.eye(3) + 0.2 * (rng.normal(size=(3, 3))
                               + 1j * rng.normal(size=(3, 3)))
        phi0 = evolver.EvolMap(3, 3, A, 0.1 * rng.normal(size=3) + 0j)
        traj = evolver.integrate(phi0, data, 0.5, checkpoints=5,
                                 membership_samples=4)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        for t, mp in zip(traj.times, traj.maps):
            z = _complex(ref.sol(t)[:, None], 12)[0]
            assert np.array_equal(mp.A, z[:9].reshape(3, 3))
            assert np.array_equal(mp.t0, z[9:])

    def test_failed_run_same_status(self, calls, monkeypatch):
        monkeypatch.setattr(ode, "BLOWUP_GUARD", np.inf)
        data = evodata.example_quadric(3, 3, 1.0)
        phi0 = evolver.EvolMap.diagonal(np.array([1.0, 1.0, 1.0], complex))
        with pytest.raises(NumericalError):
            evolver.integrate(phi0, data, 2.0)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert ref.status == -1 and ref.message == entry["sol"].message

    def test_verify_periodic_windows(self, calls):
        self._check_windows(calls, 3, 1, (-8, 4, 4), 7)

    def test_verify_periodic_windows_m6(self, calls):
        self._check_windows(calls, 6, 3, (-3, -3, -3, 3, 3, 3), 8)

    @staticmethod
    def _check_windows(calls, m, a, angles, b):
        sol = next(s for s in centred.periodic_search(
            centred.symmetric_alphas(m, a), a, 8)
            if (s.int_angles, s.denom) == (angles, b))
        calls.clear()
        got = centred.verify_periodic(sol)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert got["nfev"] == ref.nfev == entry["sol"].nfev
        # the same defect as reading both windows off the dense output
        T = got["period_T"]
        path = centred.integrate_w(centred.w_initial(sol.params), a,
                                   b * T + T)
        dense = assert_matches_scipy(calls[-1])
        t_grid = np.linspace(0.0, T, 257)
        assert np.array_equal(entry["sol"].z_eval,
                              path.w(np.concatenate([t_grid, t_grid + b * T])))
        signs = np.asarray([(-1.0) ** aj for aj in sol.int_angles])
        defect = np.max(np.abs(path.w(t_grid + b * T)
                               - signs * path.w(t_grid)))
        assert got["max_defect"] == float(defect)
        # the same steps; interpolants only on those holding a window point
        assert got["accepted_steps"] == dense.t.size - 1
        assert entry["sol"].nfev < calls[-1]["sol"].nfev

    def test_one_tolerance_pair(self, calls):
        # the dense paths and the case-(d) runs solve one system: each of
        # the four callers passes the same (rtol, atol) to the driver
        params = centred.CentredParams(3, 1, centred.symmetric_alphas(3, 1),
                                       0.5, c=0.0)
        (sol,) = centred.periodic_search(params.alphas, 1, 8)
        centred.integrate_w(centred.w_initial(params), 1, 1.0)
        integrate_affine(*affine_initial(
            AffineParams(4, 2, centred.symmetric_alphas(3, 2), 0.4)), 2, 1.0)
        centred.betas_ode(params)
        centred.verify_periodic(sol)
        assert {e["kw"]["stage"] for e in calls} == {
            "integrate_w", "integrate_affine", "betas_ode", "verify_periodic"}
        assert {(e["rtol"], e["atol"]) for e in calls} == {(1e-11, 1e-13)}

    def test_search_verify_counts(self, calls, tmp_path, monkeypatch):
        # the counts `slevolve search --verify` writes are the scipy replay's
        from slevolve import cli
        monkeypatch.setenv("SLEVOLVE_OUTDIR", str(tmp_path))
        assert cli.main(["search", "--m", "4", "--a", "2", "--family", "sym",
                         "--bmax", "8", "--verify", "--out", "s.json"]) == 0
        sols = json.loads((tmp_path / "s.json").read_text())["solutions"]
        assert len(sols) == len(calls) == 4
        for sol, entry in zip(sols, calls):
            assert entry["kw"]["stage"] == "verify_periodic"
            ref = assert_matches_scipy(entry)
            diag = sol["verification"]["diagnostics"]
            assert diag["nfev"] == ref.nfev
            assert diag["accepted_steps"] == entry["sol"].t.size - 1


class TestDriver:
    def test_counted_terminal_event(self):
        # dz/dt = i z: Re z = cos t crosses zero upward at 3pi/2, 7pi/2, ...
        def rhs(t, y):
            return np.array([-y[1], y[0]])

        def g(t, y):
            return y[0]

        def run(terminal):
            return ode.solve(rhs, [1.0 + 0j], 40.0, 1e-11, 1e-13,
                             stage="test", params={},
                             event=ode.Event(g, terminal=terminal))

        sol = run(2)
        g.direction, g.terminal = 1.0, 2
        ref = solve_ivp(rhs, (0.0, 40.0), [1.0, 0.0], method="DOP853",
                        rtol=1e-11, atol=1e-13, dense_output=True, events=g)
        assert sol.status == ref.status == 1
        assert sol.nfev == ref.nfev
        assert np.array_equal(sol.t, ref.t)
        assert np.array_equal(sol.t_event, ref.t_events[0])
        assert sol.t[-1] == sol.t_event[1]
        assert abs(sol.t_event[1] - 3.5 * np.pi) < 1e-9
        # True counts one: the first crossing still stops the run
        first = run(True)
        assert first.status == 1 and first.t_event.size == 1
        assert first.t[-1] == sol.t_event[0]
        # 0 never stops: every crossing up to t_end is recorded
        never = run(0)
        assert never.status == 0 and never.t_event.size == 6
        for bad in (-1, 2.5, np.nan, np.inf):
            with pytest.raises(ValidationError, match="terminal count"):
                ode.Event(g, terminal=bad)

    def test_event_with_t_eval_refused(self):
        # an event is located on the dense output, which t_eval does not keep
        with pytest.raises(ValidationError, match="an event or t_eval"):
            ode.solve(lambda t, y: -y, [1.0 + 0j], 1.0, 1e-10, 1e-12,
                      stage="test", params={}, event=ode.Event(
                          lambda t, y: y[0]), t_eval=[0.5])

    def test_t_eval_backward(self):
        # t_eval serves forward runs only: a backward run with it is refused
        with pytest.raises(ValidationError, match="forward runs only"):
            ode.solve(lambda t, y: -y, [1.0 + 0j], -5.0, 1e-11, 1e-13,
                      stage="test", params={},
                      t_eval=np.linspace(0.0, -5.0, 41))

    @pytest.mark.parametrize("t_eval", [
        [1.5, 0.5],         # descending: one step's interpolant past its step
        [0.5, 3.0],         # past t_end: one value for two times
        [-0.5, 1.0],        # before the start: extrapolated
        [0.5, np.nan],
        [[0.5, 1.0]],       # not 1-D
    ])
    def test_bad_t_eval_refused(self, t_eval):
        # on dz/dt = -z to t = 2 each was read off the wrong step, beyond
        # the run, or not at all, without an error
        with pytest.raises(ValidationError,
                           match=r"decay needs t_eval .* \(k=1\)"):
            ode.solve(lambda t, y: -y, [1.0 + 0j], 2.0, 1e-10, 1e-12,
                      stage="decay", params={"k": 1}, t_eval=t_eval)

    def test_t_eval_at_step_times(self):
        # t_eval holding the exact step times of the same run: at each tie
        # the bisect window must be searchsorted's (side="right"), or a
        # point moves to the neighbouring step
        rhs = centred._w_kernel(2, 4)
        w0 = np.array([1.1, 0.9j, 1.2 * np.exp(0.4j), 0.8 + 0.3j])
        steps = ode.solve(rhs, w0, 3.0, 1e-11, 1e-13, stage="test",
                          params={}).t
        te = np.unique(np.concatenate([steps, np.linspace(0.0, 3.0, 31)]))
        sol = ode.solve(rhs, w0, 3.0, 1e-11, 1e-13, stage="test",
                        params={}, t_eval=te)
        ref = solve_ivp(rhs, (0.0, 3.0), np.concatenate([w0.real, w0.imag]),
                        method="DOP853", rtol=1e-11, atol=1e-13, t_eval=te)
        assert np.isin(steps, te).all() and steps.size > 5
        assert np.array_equal(sol.t, steps)
        assert np.array_equal(sol.z_eval, _complex(ref.y, 4))
        assert sol.nfev == ref.nfev

    def test_empty_interval(self):
        sol = ode.solve(lambda t, y: -y, [2.0 + 1j], 0.0, 1e-10, 1e-12,
                        stage="test", params={})
        ref = solve_ivp(lambda t, y: -y, (0.0, 0.0), [2.0, 1.0],
                        method="DOP853", dense_output=True)
        assert sol.status == ref.status == 0 and sol.nfev == ref.nfev
        assert np.array_equal(sol.t, ref.t)
        assert sol(0.0)[0] == 2.0 + 1j
        at = ode.solve(lambda t, y: -y, [2.0 + 1j], 0.0, 1e-10, 1e-12,
                       stage="test", params={}, t_eval=[0.0, 0.0])
        assert np.array_equal(at.z_eval[:, 0], [2.0 + 1j, 2.0 + 1j])

    def test_failure_message_names_budget(self):
        # dz/dt = z^2 from 1 blows up at t = 1
        def rhs(t, y):
            z = (y[0] + 1j * y[1]) ** 2
            return np.array([z.real, z.imag])

        with pytest.raises(NumericalError) as exc:
            ode.solve(rhs, [1.0 + 0j], 2.0, 1e-10, 1e-12, stage="blowup",
                      params={"m": 1, "a": 0})
        msg = str(exc.value)
        for part in ("blowup", "m=1, a=0", "of t_end = 2.0",
                     "last step size", "rtol = 1e-10", "atol = 1e-12"):
            assert part in msg
        assert abs(exc.value.solution.t[-1] - 1.0) < 1e-6

    def test_non_finite_t_end_rejected(self, tmp_path):
        # no step reaches a NaN or infinite t_end, so a run would never end:
        # each is refused before the first step, naming stage and params.
        # A fresh process under a timeout keeps a hang a failure.
        out = _run_probe(_NON_FINITE_PROBE, [], tmp_path)
        assert out == [f"decay needs a finite t_end (k=1): got t_end = {v}"
                       for v in ("nan", "inf", "-inf")]

    def test_cli_non_finite_t_end_exits_2(self, tmp_path):
        out = _run_probe(_CLI_EXIT_PROBE, [
            "affine", "--m", "3", "--a", "1", "--alphas", "1.5,3", "--A",
            "0.5", "--t-end", "nan"], tmp_path)
        assert out == [2]

    def test_bad_tolerances_rejected(self, tmp_path):
        # a NaN tolerance made every step size NaN, never below the minimum
        # step, so the run never ended; a negative atol, which scipy
        # refuses, was taken.  Each is refused before the first step.
        out = _run_probe(_BAD_TOLERANCE_PROBE, [], tmp_path)
        want = [("decay", "k=1", r, a) for r, a in _BAD_TOLERANCES]
        assert out == [f"{stage} needs a finite rtol and a finite, "
                       f"non-negative atol ({where}): got rtol = {r}, "
                       f"atol = {a}" for stage, where, r, a in want]

    @pytest.mark.parametrize("flag", ["--atol", "--rtol"])
    def test_cli_nan_tolerance_exits_2(self, tmp_path, flag):
        out = _run_probe(_CLI_EXIT_PROBE, [
            "evolve", "--m", "3", "--a", "1", "--t-end", "0.1", flag, "nan"],
            tmp_path)
        assert out == [2]

    def test_small_rtol_raised_to_100_eps(self):
        # scipy's clamp stays: rtol 0 and -1 run as 100 eps, bit for bit
        def rhs(t, y):
            return np.array([-y[1], y[0]])

        runs = [ode.solve(rhs, [1.0 + 0j], 2.0, rtol, 1e-12, stage="test",
                          params={}) for rtol in (0.0, -1.0, 100 * ode.EPS)]
        for run in runs[:2]:
            assert run.t.tobytes() == runs[2].t.tobytes()
            assert run(run.t).tobytes() == runs[2](run.t).tobytes()


_NON_FINITE_PROBE = """
import json
from slevolve import ode
from slevolve.errors import ValidationError
messages = []
for t_end in (float("nan"), float("inf"), -float("inf")):
    try:
        ode.solve(lambda t, y: -y, [1 + 0j], t_end, 1e-10, 1e-12,
                  stage="decay", params={"k": 1})
    except ValidationError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""

_BAD_TOLERANCES = [("nan", "1e-12"), ("1e-10", "nan"), ("inf", "1e-12"),
                   ("1e-10", "inf"), ("-inf", "1e-12"), ("1e-10", "-1.0")]

_BAD_TOLERANCE_PROBE = f"""
import json
from slevolve import ode
from slevolve.errors import ValidationError
messages = []
for rtol, atol in {_BAD_TOLERANCES!r}:
    try:
        ode.solve(lambda t, y: -y, [1 + 0j], 1.0, float(rtol), float(atol),
                  stage="decay", params={{"k": 1}})
    except ValidationError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""

_CLI_EXIT_PROBE = """
import json, sys
import slevolve.cli
print(json.dumps([slevolve.cli.main(json.loads(sys.argv[1]))]))
"""


# -- import footprint ---------------------------------------------------------

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# the scipy and slevolve modules a command leaves loaded, and
# numpy.polynomial, which no quadrature needs
_PROBE = """
import json, sys
import slevolve.cli
argv = json.loads(sys.argv[1])
rc = slevolve.cli.main(argv) if argv else 0
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] in ("scipy", "slevolve")
                             or m == "numpy.polynomial")]))
"""


# the root-finding library calls, each in the same fresh process
_LIBRARY_PROBE = """
import json, sys
from slevolve import centred
al, _ = centred.normalize_lambda([1.0, 1.4, 2.5], 1)
sols = centred.periodic_search(centred.symmetric_alphas(3, 1), 1, 8)
defect = centred.verify_periodic(sols[0])["max_defect"]
params = centred.CentredParams(3, 1, al, 0.5 * float(centred.np.sqrt(
    centred.np.prod(al))), c=0.0)
fired = centred.betas_ode(params).period_T > 0
assert len(sols) == 1 and defect < 1e-6 and fired
print(json.dumps([0, sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy")]))
"""


def _run_probe(probe, argv, cwd, timeout=60):
    """The last stdout line of ``probe`` (JSON) run with ``argv`` in a fresh
    process on this checkout; a run past ``timeout`` seconds fails."""
    env = dict(os.environ, SLEVOLVE_OUTDIR=str(cwd))
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _modules_after(argv, cwd, probe=_PROBE):
    rc, mods = _run_probe(probe, argv, cwd, timeout=120)
    assert rc == 0
    return mods


def _scipy(mods):
    return [m for m in mods if m.split(".")[0] == "scipy"]


def test_cli_commands_load_no_scipy(tmp_path):
    al = (1.0, 2.0, 2.0)
    A = 0.5 * float(np.sqrt(np.prod(al)))
    mesh = meshverify.mesh_centred(
        centred.CentredParams(3, 1, al, A, c=0.0), 0.0, (0.0, 1.0),
        resolution=(9, 16))
    meshverify.export(mesh, "json", str(tmp_path / "mesh.json"))
    curve = evodata.curve_data(np.array([[0.2, -1.0], [1.0, 0.1]]),
                               np.array([0.3, 0.0]), 3)
    (tmp_path / "curve.json").write_text(json.dumps(curve.to_json_dict()))
    argvs = [
        [],
        ["betas", "--m", "3", "--a", "1", "--alphas", "1,2,2", "--A", "1.0",
         "--out", "b.json"],
        ["limits", "--m", "4", "--a", "2", "--alphas", "1,1,1,1",
         "--out", "l.json"],
        ["crosssection", "--alphas", "1.2,2,3", "--summary", "c.json"],
        ["report", "--m", "3", "--a", "1", "--alphas", "1,2,2", "--A", "1.0",
         "--out", "r.json"],
        ["affine", "--m", "3", "--a", "1", "--alphas", "1,1", "--A", "0.5",
         "--summary", "a.json"],
        ["verify", "--mesh", str(tmp_path / "mesh.json"), "--threshold",
         "1e-6", "--out", "v.json"],
        ["search", "--m", "3", "--a", "1", "--family", "sym", "--bmax", "8",
         "--verify", "--out", "s.json"],
        # membership_cp and evolver.integrate: sampler, tangent frames,
        # DOP853 with its blow-up event, checkpoint residuals
        ["evolve", "--m", "3", "--a", "1", "--t-end", "1", "--summary",
         "s.json"],
        # the same on curve data, whose sampler integrates the planar flow
        ["evolve", "--data", str(tmp_path / "curve.json"), "--t-end", "0.5",
         "--summary", "d.json"],
        # analytic mesh frames and the frame kernel
        ["mesh", "--m", "3", "--a", "1", "--alphas", "1,2,2", "--A", "1.0",
         "--resolution", "9x16", "--with-residuals", "--out", "m.json"],
    ]
    for argv in argvs:
        mods = _modules_after(argv, tmp_path)
        assert _scipy(mods) == [], argv
        # the quadrature rules are constants
        assert "numpy.polynomial" not in mods, argv


def test_commands_load_only_their_layers(tmp_path):
    # the front end alone loads no layer; crosssection runs the closed form
    # only, and evolve the general engine without the centred quadrature
    quadrature = {"slevolve.centred", "slevolve.ode", "slevolve.roots"}
    assert _modules_after([], tmp_path) == [
        "slevolve", "slevolve.cli", "slevolve.errors"]
    mods = _modules_after(["crosssection", "--alphas", "1.2,2,3",
                           "--summary", "c.json"], tmp_path)
    assert quadrature.isdisjoint(mods)
    assert {"slevolve.threefold", "slevolve.elliptic"} <= set(mods)
    mods = _modules_after(["evolve", "--m", "3", "--a", "1", "--t-end", "1",
                           "--summary", "s.json"], tmp_path)
    assert "slevolve.centred" not in mods and "slevolve.evolver" in mods


def test_root_finding_loads_no_scipy(tmp_path):
    # normalize_lambda, periodic_search, verify_periodic and betas_ode with
    # its firing period event all find roots with roots.brent
    assert _scipy(_modules_after([], tmp_path, _LIBRARY_PROBE)) == []
