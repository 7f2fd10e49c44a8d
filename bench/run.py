"""slevolve benchmark: end-to-end time to a verified result, and per-layer
spans recorded from outside the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S]

The first form runs one workload and prints, as its last stdout line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``--report`` runs every workload traced and prints a table
of all metrics.  Each run also writes its full record (environment, every
metric, the edge ledger) under bench/results/.

This file uses the standard library only.  It builds nothing: the library is
imported from src/ of the checkout this file sits in, in fresh worker
processes whose BLAS is pinned to one thread.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("search", "edge", "evolve", "certify", "cli")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3          # fresh processes whose set-up time is measured
DEADLINE_S = 170.0         # the whole run, set-ups included


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline):
    """Run a worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], env=child_env(),
        cwd=str(ROOT), stdout=subprocess.PIPE, start_new_session=True,
        text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker timed out: {' '.join(argv)}")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           f"{' '.join(argv)}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, ops=0):
    """Set up SETUP_SAMPLES fresh processes (the last one also measures)
    and return the merged record."""
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RESULTS)
    common = ["--workload", workload, "--seed", str(seed), "--seconds",
              str(seconds), "--trace", str(trace), "--workdir", workdir,
              "--ops", str(ops)]
    try:
        setups = [run_child([*common, "--role", "setup"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        spans = RESULTS / f"{workload}-seed{seed}-spans.json"
        rec = run_child([*common, "--role", "measure"]
                        + (["--spans", str(spans)] if trace else []), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append({"setup_s": rec["setup_s"], "import_s": rec["import_s"]})
    rec["setup_samples"] = [s["setup_s"] for s in setups]
    rec["end_to_end"]["setup_s"] = statistics.median(rec["setup_samples"])
    if trace:
        import_s = statistics.median(s["import_s"] for s in setups)
        layer = rec["per_layer"]
        layer["cli.import_s"] = {"value": import_s, "unit": "s"}
        layer["cli.import_share"] = {
            "value": import_s / rec["end_to_end"]["op_p50_s"], "unit": "1"}
    rec["correct"] = rec["failed"] == 0 and rec["digest_match"]
    with open(RESULTS / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(rec, fh, indent=1)
    return rec


def result_line(rec, trace):
    if trace:
        metrics = rec["per_layer"]
    else:
        metrics = {k: {"value": rec["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def describe(rec):
    """Human-readable summary for stderr."""
    e = rec["end_to_end"]
    lines = [
        f"{rec['workload']}: seed {rec['seed']}, {rec['passes']} passes of "
        f"{rec['ops_per_pass']} ops, correct={rec['correct']}",
        f"  setup_s      {e['setup_s']:.4f} s   (samples "
        + ", ".join(f"{x:.3f}" for x in rec["setup_samples"]) + ")",
        f"  wall_s       {e['wall_s']:.4f} s",
        f"  op_p50_s     {e['op_p50_s']:.5f} s",
        (f"  op_tail_s    {e['op_tail_s']:.5f} s   (p{e['op_tail_pct']:g}, "
         f"{e['op_tail_beyond']} of {e['op_samples']} samples beyond)"
         if e["op_tail_s"] is not None else
         f"  op_tail_s    n/a   (only {e['op_samples']} samples: no percentile "
         "leaves 10 beyond it)"),
        f"  fail_frac    {e['fail_frac']:.4f}",
        f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MB",
    ]
    for err in rec["errors"]:
        lines.append(f"  FAILED op {err['op']}: {err['error']}")
    lines.append("  environment: " + json.dumps(rec["environment"]))
    return "\n".join(lines)


def report(seed, seconds):
    for name in WORKLOADS:
        rec = measure(name, seed, seconds, trace=1)
        print(describe(rec))
        layer = rec["per_layer"]
        if "edge.defect_probe.attempted" in layer:
            print(f"  fail_frac incl. known-defect probe  "
                  f"{layer['fail_frac']['value']:.4f} "
                  f"({layer['edge.defect_probe.failed']['value']:g} of "
                  f"{layer['edge.defect_probe.attempted']['value']:g} probe "
                  "ops failed)")
        for key in sorted(layer):
            if layer[key]["value"]:
                print(f"  {key:52s} {layer[key]['value']:.6g} "
                      f"{layer[key]['unit']}")
        for row in rec["ledger"]:
            if row["outcome"] != "ok":
                print(f"  ledger: {row}")
        print(flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--ops", type=int, default=0,
                    help="cut every op list to its first N ops (smoke test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "slevolve" / "__init__.py").is_file():
        print(f"error: no slevolve sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.report:
        report(args.seed, args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload is required unless --report is given")
    try:
        rec = measure(args.workload, args.seed, args.seconds, args.trace,
                      args.ops)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(describe(rec), file=sys.stderr)
    print(result_line(rec, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
