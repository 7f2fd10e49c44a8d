"""Spans and work counts around the public functions of each slevolve layer.

The tracer lives entirely in the benchmark: ``install`` replaces every
binding site of a layer function (the defining module and every module that
holds a ``from``-imported reference) with a wrapper that records a span, and
``uninstall`` puts the original objects back.  The scipy boundary
(``solve_ivp``, ``brentq``) is wrapped at the same binding sites and at its
scipy attribute, so a function-local import still goes through the wrapper.

A span is ``(name, start, end, parent, op, tag)``: parent is the index of the
enclosing span (-1 at the top), op the operation id and tag the pass it
belongs to.  Spans stay in memory until ``dump``.  Self time is a span's
duration minus the durations of its direct children (calls are nested on one
thread, so children never overlap).
"""

import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("multilinear", "elliptic", "evodata", "evolver", "centred",
          "affine", "threefold", "meshverify", "cli")
METHODS = (("evodata", "EvolutionData", "sample"),
           ("evodata", "EvolutionData", "tangent_basis"))
BOUNDARY = (("scipy.integrate", "solve_ivp", "scipy.solve_ivp"),
            ("scipy.optimize", "brentq", "scipy.brentq"))


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# work counts read from a call's arguments and result: name -> f(args,
# kwargs, result) -> {quantity: value}
COUNTS = {
    "elliptic.jacobi_grid": lambda a, k, r: {
        "points": np.size(_arg(a, k, 0, "t"))},
    "evodata.sample": lambda a, k, r: {"points": len(r)},
    "evolver.integrate": lambda a, k, r: {
        "nfev": r.nfev, "accepted_steps": r.accepted_steps,
        "escaped": int(bool(r.escaped))},
    "scipy.solve_ivp": lambda a, k, r: {"nfev": r.nfev},
    "meshverify.attach_residuals": lambda a, k, r: {
        "vertices": len(_arg(a, k, 0, "mesh").vertices)},
    "meshverify.sl_residuals": lambda a, k, r: {
        "samples": r.sample_count, "skipped": r.skipped},
    "meshverify.export": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 2, "path"))},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.stack = []
        self.op = None
        self.tag = None
        self.enabled = True     # off while the worker checks an output
        self._undo = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        count = COUNTS.get(name)
        clock = time.perf_counter
        counted_integrand = name == "centred.adaptive_gauss"
        top_level_only = name == "centred.periodic_search"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if counted_integrand:
                f = args[0]

                def integrand(x):
                    counts["centred.adaptive_gauss.integrand_evals"] += np.size(x)
                    return f(x)

                args = (integrand,) + args[1:]
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent, self.op, self.tag]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                counts[name + ".failures"] += 1
                raise
            rec[2] = clock()
            stack.pop()
            if count is not None:
                for qty, val in count(args, kwargs, result).items():
                    counts[f"{name}.{qty}"] += val
            if top_level_only and (parent < 0 or spans[parent][0] != name):
                counts[name + ".solutions"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding site of the layer functions and the boundary."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"slevolve.{n}") for n in LAYERS]
        scipy_mods = [importlib.import_module(pkg) for pkg, _, _ in BOUNDARY]
        targets = [(name, getattr(mod, attr))
                   for mod, (_, attr, name) in zip(scipy_mods, BOUNDARY)]
        for short, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets.append((f"{short}.{attr}", obj))
        for name, obj in targets:
            wrapped = self._wrap(name, obj)
            for mod in mods + scipy_mods:
                for site, val in list(vars(mod).items()):
                    if val is obj:
                        self._replace(mod, site, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"slevolve.{short}"), cls_name)
            self._replace(cls, meth,
                          self._wrap(f"{short}.{meth}", vars(cls)[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results --------------------------------------------------------------

    def summary(self, tags):
        """Per-name calls, self seconds and inclusive seconds over the spans
        whose tag is in ``tags``."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for idx, (name, start, end, parent, _op, tag) in enumerate(self.spans):
            if tag not in tags:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[idx]
            if parent < 0 or self.spans[parent][0] != name:
                row["total_s"] += end - start
        return dict(out)

    def absorb(self, doc, op, tag):
        """Append spans and counts recorded by a traced child process."""
        base = len(self.spans)
        for name, start, end, parent in doc["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, op, tag])
        for key, val in doc["counts"].items():
            self.counts[key] += val

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": self.spans, "counts": self.counts}, fh)
