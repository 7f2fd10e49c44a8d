"""One benchmark process: set up a workload, run its op list in passes,
check every output, and print one JSON object as the last stdout line.

Started by run.py, never directly.  Set-up (imports, input generation and
one untimed warm-up op) is timed from the first line of this file.  Passes
run the fixed op list in a closed loop -- one caller, each op starting when
the previous one has returned and its output has been checked -- until
``--seconds`` would be overrun by one more pass and at least MIN_PASSES
passes are done.  With ``--trace 1`` untraced and traced passes alternate in
the same way, so the tracing overhead is measured inside one process.

An op's time is the median of its repeats, one per pass, so a burst of load
from other tenants of a shared host, or the first pass filling caches, moves
no op's time.  ``wall_s`` is the sum of these per-op medians; ``op_p50_s``
is the median of every op latency of the untraced passes.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_PASSES = 3      # untraced passes, so every op has three repeats


def list_wall(passes):
    """Time to run the op list once: the sum over the ops of each op's median
    latency in the given passes."""
    return sum(statistics.median(lat)
               for lat in zip(*(p["latencies"] for p in passes)))


def run_passes(runner, seconds, trace):
    """Run passes until one more would end after ``seconds`` (judged by the
    slowest pass so far) and MIN_PASSES untraced ones are done; with
    ``trace`` every other pass is traced and the last one is traced."""
    start = time.perf_counter()
    while True:
        traced = trace and len(runner.passes) % 2 == 1
        runner.run_pass(traced)
        untraced = sum(not p["traced"] for p in runner.passes)
        if untraced < MIN_PASSES or (trace and not traced):
            continue
        longest = max(p["wall_s"] for p in runner.passes)
        ahead = 2 * longest if trace else longest    # one pass, or a pair
        if time.perf_counter() - start + ahead > seconds:
            return


def tail(latencies):
    """(seconds, percentile, samples beyond) at the highest percentile of
    LADDER that leaves at least ten samples beyond it; None for all three
    when there are too few samples for any."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in LADDER:
        beyond = int(n - n * pct / 100.0)
        if beyond >= 10:
            return xs[n - beyond - 1], pct, beyond
    return None, None, None


def blas_threads():
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Runner:
    """Runs the op list in passes; a traced pass installs the tracer around
    the ops.  A workload whose ops run in child processes (``cli``) has a
    ``trace_file`` attribute: during a traced pass it names the file where
    the child leaves its spans."""

    EVALS = "centred.adaptive_gauss.integrand_evals"

    def __init__(self, wl, ops, tracer):
        self.wl, self.ops, self.tracer = wl, ops, tracer
        self.passes = []
        self.ledger = []

    def run_op(self, inp, op_id, tr):
        """Time one op (traced when ``tr`` is given), then check it with
        tracing switched off.  Returns (output, error, seconds, integrand
        evaluations or None)."""
        before = tr.counts[self.EVALS] if tr else 0.0
        if tr:
            tr.op = op_id
            tr.enabled = True
        start = time.perf_counter()
        try:
            out, err = self.wl.run(inp), None
        except Exception as exc:   # an op failure is a result, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        if tr:
            tr.enabled = False
            child = getattr(self.wl, "trace_file", None)
            if child and os.path.exists(child):
                with open(child) as fh:
                    tr.absorb(json.load(fh), op_id, tr.tag)
                os.remove(child)
        if err is None:
            err = self.wl.check(inp, out)
        return out, err, dt, (tr.counts[self.EVALS] - before) if tr else None

    @contextlib.contextmanager
    def traced(self, tag):
        """Install the tracer for a stretch of ops tagged ``tag``."""
        tr = self.tracer
        tr.tag = tag
        tr.install()
        if hasattr(self.wl, "trace_file"):
            self.wl.trace_file = os.path.join(self.wl.workdir, "spans.json")
        try:
            yield tr
        finally:
            tr.uninstall()
            if hasattr(self.wl, "trace_file"):
                self.wl.trace_file = None

    def run_pass(self, traced):
        idx = len(self.passes)
        first_traced = traced and not any(p["traced"] for p in self.passes)
        h = hashlib.sha256()
        lat, errors = [], []
        start_counts = dict(self.tracer.counts) if traced else None
        with (self.traced(idx) if traced else contextlib.nullcontext()) as tr:
            for i, inp in enumerate(self.ops):
                out, err, dt, evals = self.run_op(inp, i, tr)
                lat.append(dt)
                h.update(err.encode() if err else self.wl.digest(out))
                if err:
                    errors.append({"op": i, "error": err})
                if first_traced:
                    self.ledger.append(ledger_row(inp, err, dt, evals))
        rec = {"traced": traced, "tag": idx, "wall_s": sum(lat),
               "latencies": lat, "digest": h.hexdigest(), "errors": errors}
        if traced:
            rec["counts"] = {k: v - start_counts.get(k, 0.0)
                             for k, v in self.tracer.counts.items()}
        self.passes.append(rec)

    def run_probe(self, probe):
        """Run the known-defect stratum once, traced, each op to completion;
        return how many ops failed."""
        failed = 0
        with self.traced("probe") as tr:
            for i, inp in enumerate(probe):
                _, err, dt, evals = self.run_op(inp, f"probe-{i}", tr)
                failed += err is not None
                self.ledger.append(dict(ledger_row(inp, err, dt, evals),
                                        stratum="known-defect probe"))
        return failed


def ledger_row(inp, err, dt, evals):
    row = {"seconds": dt, "outcome": "ok" if err is None else err.split(":")[0]}
    if evals is not None:
        row["integrand_evals"] = evals
    for key in ("family", "m", "a", "frac", "kind", "label", "cmd"):
        if key in inp:
            row["A_over_A_max" if key == "frac" else key] = inp[key]
    return row


def per_layer(tracer, traced_passes):
    """The per-layer metrics: per traced pass, from the spans and counts."""
    k = len(traced_passes)
    tags = {p["tag"] for p in traced_passes}
    rows = tracer.summary(tags)
    counts = {}
    for p in traced_passes:
        for key, val in p["counts"].items():
            counts[key] = counts.get(key, 0.0) + val / k
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name, qtys in LAYER_METRICS:
        row = rows.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for q in qtys:
            if q == "calls":
                put(f"{name}.calls", row["calls"] / k, "count")
            elif q == "self_s":
                put(f"{name}.self_s", row["self_s"] / k, "s")
            else:
                put(f"{name}.{q}", counts.get(f"{name}.{q}", 0.0), "count")
    attach = rows.get("meshverify.attach_residuals")
    put("meshverify.vertices_per_s",
        counts.get("meshverify.attach_residuals.vertices", 0.0)
        / (attach["total_s"] / k) if attach else 0.0, "1/s")
    brentq = out["scipy.brentq.calls"]["value"]
    put("centred.periodic_search.solutions_per_brentq",
        out["centred.periodic_search.solutions"]["value"] / brentq
        if brentq else 0.0, "1")
    return out


LAYER_METRICS = (
    ("elliptic.jacobi_grid", ("calls", "points", "self_s")),
    ("elliptic.jacobi", ("calls", "self_s")),
    ("elliptic.complete_K", ("calls",)),
    ("multilinear.eval_omega", ("calls", "self_s")),
    ("evodata.sample", ("calls", "points", "self_s")),
    ("evodata.tangent_basis", ("calls", "self_s")),
    ("evolver.rhs_general", ("calls", "self_s")),
    ("evolver.membership_cp", ("calls", "self_s")),
    ("evolver.integrate", ("calls", "self_s", "nfev", "accepted_steps",
                           "escaped")),
    ("centred.betas", ("calls", "self_s", "failures")),
    ("centred.turning_points", ("calls", "self_s")),
    ("centred.adaptive_gauss", ("calls", "self_s", "integrand_evals")),
    ("centred.periodic_search", ("calls", "self_s", "solutions")),
    ("centred.verify_periodic", ("calls", "self_s")),
    ("centred.integrate_w", ("calls", "self_s")),
    ("centred.rhs_w", ("calls",)),
    ("scipy.solve_ivp", ("calls", "self_s", "nfev")),
    ("scipy.brentq", ("calls", "self_s")),
    ("affine.integrate_affine", ("calls", "self_s")),
    ("threefold.conformal_map", ("calls", "self_s")),
    ("threefold.cross_section", ("calls", "self_s")),
    ("meshverify.mesh_centred", ("self_s",)),
    ("meshverify.mesh_affine", ("self_s",)),
    ("meshverify.mesh_link", ("self_s",)),
    ("meshverify.attach_residuals", ("calls", "self_s", "vertices")),
    ("meshverify.sl_residuals", ("calls", "self_s", "samples", "skipped")),
    ("meshverify.export", ("self_s", "bytes")),
    ("meshverify.import_json", ("self_s",)),
    ("meshverify.rebuild_family", ("self_s",)),
)


def python_start_s(repeats=5):
    """Median wall time of a bare interpreter start."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    t = time.perf_counter()
    import slevolve.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    ops, probe = wl.make(args.seed, args.workdir)
    warmup = ops[getattr(wl, "warmup", 0)]
    if args.ops:
        ops, probe = ops[:args.ops], probe[:args.ops]
    wl.run(warmup)                        # untimed
    setup_s = time.perf_counter() - T0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    tracer = Tracer() if args.trace else None
    runner = Runner(wl, ops, tracer)
    run_passes(runner, args.seconds, bool(args.trace))

    untraced = [p for p in runner.passes if not p["traced"]]
    traced_passes = [p for p in runner.passes if p["traced"]]
    lat = [x for p in untraced for x in p["latencies"]]
    tail_s, tail_pct, tail_n = tail(lat)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli"
                               else resource.RUSAGE_SELF)
    digests = {p["digest"] for p in runner.passes}
    errors = [e for p in runner.passes for e in p["errors"]]
    attempted = len(ops) * len(runner.passes)
    wall = list_wall(untraced)
    result = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s, "import_s": import_s,
        "passes": len(runner.passes), "ops_per_pass": len(ops),
        "pass_log": [{"traced": p["traced"], "wall_s": p["wall_s"],
                      "latencies": p["latencies"]} for p in runner.passes],
        "attempted": attempted, "failed": len(errors),
        "errors": errors[:20],
        "digest_match": len(digests) == 1,
        "end_to_end": {
            "wall_s": wall,
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s, "op_tail_pct": tail_pct,
            "op_tail_beyond": tail_n, "op_samples": len(lat),
            "fail_frac": len(errors) / attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
        "environment": environment(),
    }

    if args.trace:
        layer = per_layer(tracer, traced_passes)
        traced_wall = list_wall(traced_passes)
        layer["trace.overhead_frac"] = {"value": traced_wall / wall - 1.0,
                                        "unit": "1"}
        layer["trace.digest_match"] = {"value": float(len(digests) == 1),
                                       "unit": "1"}
        probe_failed = runner.run_probe(probe) if probe else 0
        if probe:
            layer["centred.betas.failures"]["value"] += probe_failed
            layer["edge.defect_probe.attempted"] = {"value": len(probe),
                                                    "unit": "count"}
            layer["edge.defect_probe.failed"] = {"value": probe_failed,
                                                 "unit": "count"}
        if hasattr(wl, "ode_gap"):
            gap = max(wl.ode_gap(ops[i]) for i in wl.gap_subset(len(ops)))
            layer["centred.betas.ode_gap_max"] = {"value": gap, "unit": "1"}
        layer["fail_frac"] = {
            "value": (len(traced_passes[0]["errors"]) + probe_failed)
            / (len(ops) + len(probe)), "unit": "1"}
        layer["cli.python_start_s"] = {"value": python_start_s(), "unit": "s"}
        result["per_layer"] = layer
        result["ledger"] = runner.ledger
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
