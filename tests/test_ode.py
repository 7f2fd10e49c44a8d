"""The DOP853 driver against scipy's ``solve_ivp(method="DOP853")``.

scipy is the oracle here and nowhere in the library's ODE path: every test
runs one of the four callers (``integrate_w``, ``betas_ode``,
``integrate_affine``, ``evolver.integrate``, plus the ``t_eval`` run of
``verify_periodic``), records each ``ode.solve`` call it makes, and
replays the same right-hand side and events through ``solve_ivp``.  Step
times, right-hand-side counts, status, event times and dense values must
agree bit for bit.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slevolve import centred, evodata, evolver, meshverify, ode
from slevolve.affine import AffineParams, affine_initial, integrate_affine
from slevolve.errors import NumericalError


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


def _scipy_events(events):
    out = []
    for ev in events:
        def g(t, y, fun=ev.fun):
            return fun(t, y)
        g.direction = ev.direction
        g.terminal = ev.terminal
        out.append(g)
    return out or None


def _complex(y, n):
    """scipy's (2n, N) packed values as (N, n) complex."""
    return (y[:n] + 1j * y[n:]).T


def assert_matches_scipy(entry):
    z0 = entry["z0"]
    n = z0.size
    t_eval = entry["kw"].get("t_eval")
    events = entry["kw"].get("events", ())
    ref = solve_ivp(entry["rhs"], (0.0, entry["t_end"]),
                    np.concatenate([z0.real, z0.imag]), method="DOP853",
                    rtol=entry["rtol"], atol=entry["atol"],
                    dense_output=t_eval is None, t_eval=t_eval,
                    events=_scipy_events(events))
    sol = entry["sol"]
    assert sol.status == ref.status
    assert sol.nfev == ref.nfev
    for got, want in zip(sol.t_events, ref.t_events or []):
        assert np.array_equal(got, want)
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
        params = centred.CentredParams(4, 2, centred.symmetric_alphas(4, 2),
                                       0.4, c=0.0)
        centred.betas_ode(params)
        assert calls
        for entry in calls:
            (ev,) = entry["kw"]["events"]
            assert ev.direction > 0 and not ev.terminal
            assert_matches_scipy(entry)
        assert calls[-1]["sol"].t_events[0].size >= 3

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

    def test_evolver_terminal_event(self, calls):
        data = evodata.example_quadric(3, 3, 1.0)
        phi0 = evolver.EvolMap.diagonal(np.array([1.0, 1.0, 1.0], complex))
        traj = evolver.integrate(phi0, data, 50.0, guard=1e6, checkpoints=5,
                                 membership_samples=4)
        (entry,) = calls
        ref = assert_matches_scipy(entry)
        assert ref.status == 1 and traj.escaped
        assert traj.nfev == ref.nfev and traj.accepted_steps == ref.t.size - 1

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

    def test_failed_run_same_status(self, calls):
        data = evodata.example_quadric(3, 3, 1.0)
        phi0 = evolver.EvolMap.diagonal(np.array([1.0, 1.0, 1.0], complex))
        with pytest.raises(NumericalError):
            evolver.integrate(phi0, data, 2.0, guard=np.inf)
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
    def test_t_eval_backward(self):
        # dz/dt = i z on packed values; t_eval sorted along the direction
        def rhs(t, y):
            return np.array([-y[1], y[0]])

        te = np.linspace(0.0, -5.0, 41)
        sol = ode.solve(rhs, [1.0 + 0j], -5.0, 1e-11, 1e-13, stage="test",
                        params={}, t_eval=te)
        ref = solve_ivp(rhs, (0.0, -5.0), [1.0, 0.0], method="DOP853",
                        rtol=1e-11, atol=1e-13, t_eval=te)
        assert np.array_equal(sol.z_eval, _complex(ref.y, 1))
        assert sol.nfev == ref.nfev
        assert np.max(np.abs(sol.z_eval[:, 0] - np.exp(1j * te))) < 1e-10

    @pytest.mark.parametrize("t_end", [-3.0, 3.0])
    def test_t_eval_at_step_times(self, t_end):
        # t_eval holding the exact step times of the same run: at each tie
        # the bisect window must be searchsorted's (side="right" forward,
        # side="left" backward), or a point moves to the neighbouring step
        rhs = centred._w_kernel(2, 4)
        w0 = np.array([1.1, 0.9j, 1.2 * np.exp(0.4j), 0.8 + 0.3j])
        steps = ode.solve(rhs, w0, t_end, 1e-11, 1e-13, stage="test",
                          params={}).t
        te = np.unique(np.concatenate([steps, np.linspace(0.0, t_end, 31)]))
        if t_end < 0:
            te = te[::-1]
        sol = ode.solve(rhs, w0, t_end, 1e-11, 1e-13, stage="test",
                        params={}, t_eval=te)
        ref = solve_ivp(rhs, (0.0, t_end),
                        np.concatenate([w0.real, w0.imag]), method="DOP853",
                        rtol=1e-11, atol=1e-13, t_eval=te)
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

_CLI_EXIT_PROBE = """
import json, sys
import slevolve.cli
print(json.dumps([slevolve.cli.main(json.loads(sys.argv[1]))]))
"""


# -- import footprint ---------------------------------------------------------

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_PROBE = """
import json, sys
import slevolve.cli
argv = json.loads(sys.argv[1])
rc = slevolve.cli.main(argv) if argv else 0
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] == "scipy")]))
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


def _scipy_modules_after(argv, cwd, probe=_PROBE):
    rc, mods = _run_probe(probe, argv, cwd, timeout=120)
    assert rc == 0
    return mods


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
        assert _scipy_modules_after(argv, tmp_path) == [], argv


def test_root_finding_loads_no_scipy(tmp_path):
    # normalize_lambda, periodic_search, verify_periodic and betas_ode with
    # its firing period event all find roots with roots.brent
    assert _scipy_modules_after([], tmp_path, _LIBRARY_PROBE) == []
