"""The five benchmark workloads: seeded inputs, one operation, its oracle.

Each workload is a class with

- ``make(seed, workdir)``: the fixed op list (and, for ``edge``, the
  known-defect probe list), built from the seed alone;
- ``run(inp)``: one operation, the only code inside the timed interval;
- ``check(inp, out)``: the oracle, run after the timed interval, returning
  an error string or None;
- ``digest(out)``: bytes that identify the output exactly, so passes with
  and without the tracer can be compared.

Why each workload exists, and which layers it is meant to move, is written
down in README.md next to this file.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from slevolve import affine, centred, cli, evodata, evolver, meshverify

SYM = [(m, a) for m in range(3, 7) for a in range(1, m)]


def _floats(*vals):
    return np.asarray(vals, dtype=float).tobytes()


def _untied(rng, m, a):
    """Seeded normalized alpha tuple (distinct values almost surely)."""
    return centred.normalize_lambda(rng.uniform(0.5, 3.0, size=m), a)[0]


def _fmt(*vals):
    return ",".join(repr(float(v)) for v in vals)


def _strata(rng, n, lo, hi):
    """n values, one uniform draw in each of n equal slices of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


class Search:
    """``periodic_search(b_max=8)`` on one alpha tuple, then
    ``verify_periodic`` on every solution found."""

    name = "search"
    n_random = 6

    def make(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = [{"family": f"sym({m},{a})", "m": m, "a": a,
                "alphas": centred.symmetric_alphas(m, a)} for m, a in SYM]
        for i in range(self.n_random):
            m = 3 + i % 4
            a = int(rng.integers(1, m))
            ops.append({"family": "random", "m": m, "a": a,
                        "alphas": _untied(rng, m, a)})
        return ops, []

    def run(self, inp):
        sols = centred.periodic_search(inp["alphas"], inp["a"], b_max=8)
        return [(s, centred.verify_periodic(s)) for s in sols]

    def check(self, inp, out):
        for sol, ver in out:
            if not ver["max_defect"] <= 1e-6:
                return f"verify_periodic defect {ver['max_defect']:.3e}"
        if inp["family"] == "sym(3,1)":
            found = {(s.int_angles, s.denom) for s, _ in out}
            if ((-8, 4, 4), 7) not in found:
                return "sym(3,1) did not yield (-8, 4, 4)/7"
        return None

    def digest(self, out):
        return b"".join(
            repr((s.int_angles, s.denom)).encode()
            + _floats(s.params.A, s.residual, v["max_defect"]) for s, v in out)


class Edge:
    """Single ``centred.betas`` calls near both ends of the A range.

    Timed: untied alphas at A/A_max in [1e-6, 1e-2] and both tied and untied
    alphas at A/A_max in 1 - [1e-12, 1e-2].  The rest of the range -- tied
    alphas at small A, and untied ones below 1e-6 -- is the known-defect
    stratum where ``betas`` raises ``NumericalError`` in slevolve 0.1.0; the
    traced run samples it as a probe and records every outcome.
    """

    name = "edge"
    n_low, n_high = 48, 36
    warmup = n_low     # a cheap op: the first near A_max; ops[0] may take 1 s

    def _op(self, rng, family, m, a, frac):
        al = (centred.symmetric_alphas(m, a) if family == "tied"
              else _untied(rng, m, a))
        A_max = float(np.sqrt(np.prod(al)))
        return {"family": family, "m": m, "a": a, "alphas": al,
                "frac": float(frac), "A": float(frac * A_max)}

    def _untied_ma(self, rng, i):
        m = 3 + i % 4
        return m, int(rng.integers(1, m))

    def make(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = []
        for i, u in enumerate(_strata(rng, self.n_low, -6.0, -2.0)):
            ops.append(self._op(rng, "untied", *self._untied_ma(rng, i), 10 ** u))
        for i, v in enumerate(_strata(rng, self.n_high, -12.0, -2.0)):
            ops.append(self._op(rng, "tied", *SYM[i % len(SYM)], 1 - 10 ** v))
        for i, v in enumerate(_strata(rng, self.n_high, -12.0, -2.0)):
            ops.append(self._op(rng, "untied", *self._untied_ma(rng, i),
                                1 - 10 ** v))
        probe = [self._op(rng, "untied", *self._untied_ma(rng, 0),
                          10 ** rng.uniform(-8, -6))]
        for _ in range(2):
            m, a = SYM[int(rng.integers(len(SYM)))]
            probe.append(self._op(rng, "tied", m, a, 10 ** rng.uniform(-8, -2)))
        return ops, probe

    @staticmethod
    def params(inp):
        return centred.CentredParams(inp["m"], inp["a"], inp["alphas"],
                                     inp["A"], c=0.0)

    def run(self, inp):
        return centred.betas(self.params(inp))

    def check(self, inp, out):
        vals = np.array([*out.betas, out.period_T, out.quadrature_error])
        if not np.all(np.isfinite(vals)):
            return "non-finite monodromy angles"
        return None

    def digest(self, out):
        return _floats(*out.betas, out.period_T)

    def gap_subset(self, n_ops):
        """Indices of the ops compared against ``betas_ode``: the smallest
        and a middle A of the low end, and the first op of each high-end
        group."""
        picks = (0, self.n_low // 2, self.n_low, self.n_low + self.n_high)
        return [i for i in picks if i < n_ops]

    def ode_gap(self, inp):
        """|betas - betas_ode| over the angles.  Near A/A_max = 1e-6 the two
        routes disagree far above the quadrature tolerance, and which one is
        wrong is not settled, so this is recorded, not gated."""
        p = self.params(inp)
        quad = np.asarray(centred.betas(p).betas)
        ode = np.asarray(centred.betas_ode(p).betas)
        return float(np.max(np.abs(quad - ode)))


class Evolve:
    """One ``evolver.integrate`` (t_end 1, 33 checkpoints, 40 membership
    samples) from a seeded diagonal start."""

    name = "evolve"
    t_end = 1.0

    def make(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = []
        # a = m is the ellipsoid: it escapes before t = 1, where the
        # integrate_w oracle does not hold, so only 1 <= a <= m-1 is used
        pairs = [(m, a) for m in range(3, 6) for a in range(1, m)]
        for i, (m, a) in enumerate(pairs):
            c = (1.0, 0.0, -1.0)[(i + seed) % 3]    # each level three times
            ops.append({"data": evodata.example_quadric(m, a, c),
                        "label": f"quadric({m},{a},{c:g})", "a": a,
                        "w0": self._start(rng, m)})
        # P x R: the R factor starts at the identity, so the diagonal
        # follows the m = 2 system with the third entry fixed at 1
        w0 = np.append(self._start(rng, 2), 1.0)
        ops.append({"data": evodata.extend_product(
            evodata.example_quadric(2, 1, 1.0), 1),
            "label": "product(quadric(2,1,1),R)", "a": 1, "w0": w0,
            "fixed_tail": 1})
        return ops, []

    @staticmethod
    def _start(rng, m):
        return (rng.uniform(0.8, 1.25, size=m)
                * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=m)))

    def run(self, inp):
        phi0 = evolver.EvolMap.diagonal(inp["w0"])
        return evolver.integrate(phi0, inp["data"], self.t_end)

    def check(self, inp, out):
        if out.flagged:
            return f"flagged checkpoints {out.flagged}"
        k = inp.get("fixed_tail", 0)
        w0 = inp["w0"][:len(inp["w0"]) - k]
        W = centred.integrate_w(w0, inp["a"], out.times[-1]).w(out.times)
        W = np.column_stack([W, np.tile(inp["w0"][len(w0):], (len(W), 1))])
        D = np.array([np.diag(mp.A) for mp in out.maps])
        off = max(float(np.abs(mp.A - np.diag(np.diag(mp.A))).max())
                  for mp in out.maps)
        gap = float(np.max(np.abs(D - W) / np.maximum(1.0, np.abs(W))))
        if not (gap <= 1e-8 and off <= 1e-8):
            return f"diagonal off integrate_w by {gap:.3e} (off-diagonal {off:.3e})"
        return None

    def digest(self, out):
        return (np.asarray([mp.A for mp in out.maps]).tobytes()
                + out.omega_residuals.tobytes())


class Certify:
    """One family per op: mesh at default resolution, ``attach_residuals``,
    JSON export, ``import_json`` + ``rebuild_family`` +
    ``mesh_residual_report``, and ``sl_residuals(family, 1000)``."""

    name = "certify"
    threshold = 1e-6          # the README's ``slevolve verify --threshold``

    def make(self, seed, workdir):
        rng = np.random.default_rng(seed)
        path = os.path.join(workdir, "certify.json")
        al3 = _untied(rng, 3, 1)
        c = float(rng.choice([0.0, 1.0, -1.0]))
        cp = centred.CentredParams(3, 1, al3,
                                   rng.uniform(0.2, 0.8) * np.sqrt(np.prod(al3)),
                                   c=c)
        al_aff = _untied(rng, 3, 2)
        ap = affine.AffineParams(4, 2, al_aff, rng.uniform(0.2, 0.8)
                                 * np.sqrt(np.prod(al_aff)))
        al_link = _untied(rng, 3, 1)
        A_link = rng.uniform(0.2, 0.8) * np.sqrt(np.prod(al_link))
        return [
            {"kind": f"centred(c={c:g})", "path": path,
             "build": lambda: meshverify.mesh_centred(cp, c, (0.0, 2.0))},
            {"kind": "affine", "path": path,
             "build": lambda: meshverify.mesh_affine(ap, (0.0, 2.0))},
            {"kind": "link", "path": path,
             "build": lambda: meshverify.mesh_link(al_link, A_link)},
        ], []

    def run(self, inp):
        mesh = meshverify.attach_residuals(inp["build"]())
        meshverify.export(mesh, "json", inp["path"])
        back = meshverify.import_json(inp["path"])
        meshverify.rebuild_family(back)
        report = meshverify.mesh_residual_report(back)
        sampled = meshverify.sl_residuals(mesh.family, 1000)
        return {"direct": (mesh.res_omega, mesh.res_imomega),
                "stored": (back.res_omega, back.res_imomega),
                "report": report, "sampled": sampled}

    def check(self, inp, out):
        ro, ri = out["direct"]
        direct_max = max(np.nanmax(ro), np.nanmax(ri))
        rep, smp = out["report"], out["sampled"]
        worst = max(direct_max, rep.max_residual(), smp.max_residual())
        if not worst <= self.threshold:
            return f"residual {worst:.3e} above {self.threshold:g}"
        for got, want in zip(out["stored"], out["direct"]):
            if not np.array_equal(got, want, equal_nan=True):
                return "exported residuals differ from the direct ones"
        pairs = ((rep.max_omega_residual, np.nanmax(ro)),
                 (rep.max_imOmega_residual, np.nanmax(ri)),
                 (rep.mean_omega_residual, np.nanmean(ro)),
                 (rep.mean_imOmega_residual, np.nanmean(ri)))
        for got, want in pairs:
            if not np.isclose(got, want, rtol=1e-6, atol=1e-15):
                return "JSON round trip does not reproduce the direct residuals"
        return None

    def digest(self, out):
        rep, smp = out["report"], out["sampled"]
        return (out["direct"][0].tobytes() + out["direct"][1].tobytes()
                + _floats(rep.max_residual(), smp.max_omega_residual,
                          smp.max_imOmega_residual, smp.skipped))


class Cli:
    """One ``python -m slevolve.cli <cmd>`` subprocess per op."""

    name = "cli"
    traced_entry = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "clitrace.py")

    def __init__(self):
        self.expected = {}
        self.trace_file = None    # set by the worker for traced passes

    def make(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        mesh_path = os.path.join(workdir, "small_mesh.json")
        al = _untied(rng, 3, 1)
        A_max = np.sqrt(np.prod(al))
        small = meshverify.mesh_centred(
            centred.CentredParams(3, 1, al, 0.5 * A_max, c=0.0), 0.0,
            (0.0, 1.0), resolution=(9, 16))
        meshverify.export(small, "json", mesh_path)
        m4 = int(rng.integers(3, 7))
        a4 = int(rng.integers(1, m4))
        al_aff = _untied(rng, 2, 1)
        argvs = [
            ["betas", "--m", "3", "--a", "1", "--alphas", _fmt(*al),
             "--A", _fmt(rng.uniform(0.1, 0.9) * A_max), "--out", "out.json"],
            ["limits", "--m", str(m4), "--a", str(a4),
             "--alphas", _fmt(*_untied(rng, m4, a4)), "--out", "out.json"],
            ["crosssection", "--alphas", _fmt(*_untied(rng, 3, 1)),
             "--summary", "out.json"],
            ["report", "--m", "3", "--a", "1", "--alphas", _fmt(*al),
             "--A", _fmt(rng.uniform(0.1, 0.9) * A_max), "--out", "out.json"],
            ["affine", "--m", "3", "--a", "1", "--alphas", _fmt(*al_aff),
             "--A", _fmt(rng.uniform(0.2, 0.8) * np.sqrt(np.prod(al_aff))),
             "--summary", "out.json"],
            ["verify", "--mesh", mesh_path, "--threshold", "1e-6",
             "--out", "out.json"],
        ]
        return [{"argv": argv, "cmd": argv[0]} for argv in argvs], []

    def _outdir(self, tag):
        d = os.path.join(self.workdir, tag)
        os.makedirs(d, exist_ok=True)
        return d

    def run(self, inp):
        outdir = self._outdir("sub")
        env = dict(os.environ, SLEVOLVE_OUTDIR=outdir)
        if self.trace_file is None:
            cmd = [sys.executable, "-m", "slevolve.cli", *inp["argv"]]
        else:
            cmd = [sys.executable, self.traced_entry, self.trace_file,
                   *inp["argv"]]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        path = os.path.join(outdir, "out.json")
        text = None
        if proc.returncode == 0:
            with open(path) as fh:
                text = fh.read()
            os.remove(path)
        return {"rc": proc.returncode, "stderr": proc.stderr[-500:],
                "text": text}

    def _in_process(self, argv):
        key = tuple(argv)
        if key not in self.expected:
            outdir = self._outdir("inproc")
            old = os.environ.get("SLEVOLVE_OUTDIR")
            os.environ["SLEVOLVE_OUTDIR"] = outdir
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(list(argv))
            except SystemExit as exc:      # argparse rejected the flags
                rc = exc.code
            finally:
                if old is None:
                    del os.environ["SLEVOLVE_OUTDIR"]
                else:
                    os.environ["SLEVOLVE_OUTDIR"] = old
            path, doc = os.path.join(outdir, "out.json"), None
            if rc == 0:
                with open(path) as fh:
                    doc = json.load(fh)
                os.remove(path)
            self.expected[key] = (rc, doc)
        return self.expected[key]

    def check(self, inp, out):
        if out["rc"] != 0:
            return f"exit code {out['rc']}: {out['stderr'].strip()}"
        rc, want = self._in_process(inp["argv"])
        if rc != 0:
            return f"in-process exit code {rc}"
        if not _same(json.loads(out["text"]), want):
            return "subprocess JSON differs from the in-process result"
        return None

    def digest(self, out):
        return (out["text"] or "").encode()


def _same(x, y):
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if x is None or y is None:
        return x is y
    if isinstance(x, float) or isinstance(y, float):
        return bool(np.isclose(x, y, rtol=1e-12, atol=1e-15, equal_nan=True))
    return x == y


WORKLOADS = {w.name: w for w in (Search, Edge, Evolve, Certify, Cli)}

