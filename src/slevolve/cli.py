"""Command-line front end: evolve trajectories, tabulate monodromy angles,
search for periodic families, emit meshes and verify them.

Configuration comes from flags, a JSON file and the defaults, in that
order of precedence; every JSON output embeds the resolved configuration
and the library version.  Exit codes: 0 success, 2 invalid input, 3
numerical failure.  Long scans report progress on stderr only.  The
SLEVOLVE_OUTDIR environment variable prefixes relative output paths.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError, _check_count

# Each command imports the modules only it needs inside its function, so
# that a cheap command loads (and compiles) no more than it runs.


def _outpath(path: str) -> str:
    if path is None or os.path.isabs(path):
        return path
    base = os.environ.get("SLEVOLVE_OUTDIR", "")
    return os.path.join(base, path) if base else path


def _emit(path: str, payload: dict, config: dict) -> None:
    """The payload with the resolved ``config`` and the library version, as
    one JSON document: written to path, or printed if path is empty."""
    doc = dict(payload)
    doc["config"] = config
    doc["version"] = __version__
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path:
        with open(_outpath(path), "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header: list, rows) -> None:
    """A CSV file: the header's names, then one line per row of values,
    each written with 17 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    with open(_outpath(path), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_numbers(text: str, flag: str, kind) -> list:
    """The comma-separated values of option ``flag``, each read by ``kind``
    (float, complex or int); a token that is not one names the flag."""
    out = []
    for token in text.split(","):
        try:
            out.append(kind(token))
        except ValueError:
            raise ValidationError(
                f"{flag}: {token!r} is not a {kind.__name__}") from None
    return out


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _load_config(path: str) -> dict:
    """A JSON config file's values, less the keys that dispatch the command."""
    with open(path) as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return {k: v for k, v in file_cfg.items()
            if k not in ("func", "config", "command")}


def _config_value(action: argparse.Action, value):
    """A config file's ``value`` for the option ``action``, refused unless
    it is what the flag parses to or a string the flag's own parse takes:
    argparse converts only string defaults, so any other value would reach
    the command unparsed."""
    if action.nargs == 0:       # a switch: JSON true or false
        want, ok = "true or false", isinstance(value, bool)
    else:
        want, kinds = {int: ("an integer", (str, int)),
                       float: ("a number", (str, int, float))}.get(
                           action.type, ("a string", str))
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    if not ok:
        raise ValidationError(
            f"config key {action.dest!r} ({action.option_strings[0]}) must "
            f"be {want}, got {value!r}")
    return value


def _resolved_config(ns: argparse.Namespace) -> dict:
    """The parsed options that were set, less the dispatch keys."""
    return {k: v for k, v in vars(ns).items()
            if k not in ("func", "config") and v is not None}


def _alphas_for(ns, letters: int, a: int) -> tuple:
    """The alphas of --alphas, which must number ``letters`` (m for the
    centred families, m-1 for the affine one, 3 for the link circle), or
    --family sym's ``symmetric_alphas(letters, a)``."""
    if getattr(ns, "family", None) == "sym":
        from . import centred
        return centred.symmetric_alphas(letters, a)
    if ns.alphas is None:
        raise ValidationError("--alphas is required (or --family sym)")
    alphas = tuple(_parse_numbers(ns.alphas, "--alphas", float))
    if len(alphas) != letters:
        raise ValidationError(f"--alphas: this command takes {letters} "
                              f"values, got {len(alphas)}")
    return alphas


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_evolve(ns) -> int:
    from . import evodata, evolver, multilinear
    _check_count(ns.seed, "--seed", 0)
    quadric = {"m": 3, "a": 1, "c": 1.0}    # the example data's, no --data
    given = [key for key in quadric if getattr(ns, key) is not None]
    if ns.data:     # the data fixes m, and its recipe replaces a and c
        if given:
            raise ValidationError(f"--{given[0]} does not apply with --data, "
                                  "whose evolution data fixes m, a and c")
        with open(ns.data) as fh:
            data = evodata.evolution_data_from_dict(json.load(fh))
        ns.m = data.m
    else:
        vars(ns).update({k: v for k, v in quadric.items() if k not in given})
        data = evodata.example_quadric(ns.m, ns.a, ns.c)
    cfg = _resolved_config(ns)
    if ns.w0:
        w0 = np.asarray(_parse_numbers(ns.w0, "--w0", complex))
    else:
        rng = np.random.default_rng(ns.seed)
        w0 = rng.normal(size=ns.m) + 1j * rng.normal(size=ns.m)
    phi0 = evolver.EvolMap.diagonal(w0)
    diag = evolver.membership_cp(phi0, data, seed=ns.seed)
    traj = evolver.integrate(phi0, data, ns.t_end, rtol=ns.rtol,
                             atol=ns.atol, seed=ns.seed)
    if ns.out:      # t, (Re, Im) of A row by row, then of t0; the residual
        names = [f"A{i}{j}" for i in range(ns.m) for j in range(data.n)]
        names += [f"t0{i}" for i in range(ns.m)]
        Z = multilinear.complex_to_real([np.append(mp.A, mp.t0)
                                         for mp in traj.maps])
        _write_csv(ns.out, ["t"] + [p + s for s in names for p in ("Re", "Im")]
                   + ["res_omega"], np.column_stack(
                       [traj.times, Z, traj.omega_residuals]).tolist())
    if ns.summary:
        _emit(ns.summary, {
            "initial_membership": {
                "max_omega_residual": diag.max_omega_residual,
                "min_singular_ratio": diag.min_singular_ratio},
            "diagnostics": traj.diagnostics(),
            "escaped": traj.escaped,
            "escape_time": traj.escape_time,
            "flagged_checkpoints": traj.flagged,
            "max_omega_residual": float(np.max(traj.omega_residuals)),
            "t_final": float(traj.times[-1]),
        }, cfg)
    _progress(f"evolved to t={traj.times[-1]:.6g}"
              + (" (escaped)" if traj.escaped else ""))
    return 0


def cmd_betas(ns) -> int:
    from . import centred
    cfg = _resolved_config(ns)
    alphas = _alphas_for(ns, ns.m, ns.a)
    # the angles do not depend on the level c, which keeps its default
    params = centred.CentredParams(ns.m, ns.a, alphas, ns.A)
    result = centred.betas(params, tol=ns.quad_tol)
    payload = result.to_dict()
    payload["case"] = centred.classify_case(params)
    _emit(ns.out, payload, cfg)
    return 0


def cmd_limits(ns) -> int:
    from . import centred
    cfg = _resolved_config(ns)
    alphas = _alphas_for(ns, ns.m, ns.a)
    lim = centred.beta_limits(alphas, ns.a)
    payload = {
        "k": lim.k, "l": lim.l,
        "small_A_limit": list(lim.small_A),
        "large_A_limit": list(lim.large_A),
        "sum_squares_large_A": float(np.sum(np.asarray(lim.large_A) ** 2)),
    }
    _emit(ns.out, payload, cfg)
    return 0


def cmd_search(ns) -> int:
    from . import centred
    cfg = _resolved_config(ns)
    alphas = _alphas_for(ns, ns.m, ns.a)
    _check_count(ns.bmax, "--bmax")
    _check_count(ns.grid, "--grid", 2)
    _progress(f"searching alphas={alphas} with b_max={ns.bmax}")
    sols = centred.periodic_search(alphas, ns.a, ns.bmax, tol=ns.tol,
                                   n_grid=ns.grid, c=ns.c)
    out_sols = []
    for sol in sols:
        entry = sol.to_dict()
        if ns.verify:
            check = centred.verify_periodic(sol)
            entry["verification"] = {
                "max_defect": check["max_defect"],
                "period_T": check["period_T"],
                "diagnostics": {k: check[k]
                                for k in ("nfev", "accepted_steps")}}
        out_sols.append(entry)
        _progress(f"found a={entry['int_angles']} b={entry['denom']} "
                  f"A={entry['A']:.9g}")
    if ns.scan_csv:
        _write_scan_csv(ns, alphas)
    _emit(ns.out, {"solutions": out_sols, "count": len(out_sols)}, cfg)
    return 0


def _write_scan_csv(ns, alphas) -> None:
    """The betas on the grid ``periodic_search`` scanned, at its
    quadrature tolerance: the rows the search bracketed on."""
    from . import centred
    A_grid = centred.search_grid(float(np.sqrt(np.prod(alphas))), ns.grid)
    rows = centred.betas_grid(
        centred.CentredParams(ns.m, ns.a, alphas, A_grid[0], c=ns.c), A_grid,
        tol=centred.SEARCH_QUAD_TOL)
    cols = ([f"alpha{j + 1}" for j in range(ns.m)] + ["A"]
            + [f"beta{j + 1}" for j in range(ns.m)] + ["T", "quad_error"])
    _write_csv(ns.scan_csv, cols, (
        list(alphas) + [A] + list(res.betas) + [res.period_T,
                                                res.quadrature_error]
        for A, res in zip(A_grid, rows)))


def cmd_mesh(ns) -> int:
    from . import affine as affine_mod
    from . import centred, meshverify
    resolution = ns.resolution.split("x")
    t_end = 2.0 if ns.t_end is None else ns.t_end
    if ns.kind != "centred" and ns.c is not None:
        raise ValidationError(f"--c applies to --kind centred only, not to "
                              f"--kind {ns.kind}")
    if ns.kind == "link" and (ns.m, ns.a) != (3, 1):
        raise ValidationError(f"--kind link is the cone of (m, a) = (3, 1); "
                              f"got --m {ns.m} --a {ns.a}")
    if ns.kind == "centred":
        c = 0.0 if ns.c is None else ns.c
        alphas = _alphas_for(ns, ns.m, ns.a)
        params = centred.CentredParams(ns.m, ns.a, alphas, ns.A, c=c)
        mesh = meshverify.mesh_centred(params, c, (0.0, t_end),
                                       resolution=resolution)
    elif ns.kind == "affine":
        alphas = _alphas_for(ns, ns.m - 1, ns.a)
        params = affine_mod.AffineParams(ns.m, ns.a, alphas, ns.A)
        mesh = meshverify.mesh_affine(params, (0.0, t_end),
                                      resolution=resolution)
    elif ns.kind == "link":
        alphas = _alphas_for(ns, 3, 1)
        mesh = meshverify.mesh_link(alphas, ns.A, resolution=resolution,
                                    t_span=ns.t_end)
    else:
        raise ValidationError(f"unknown mesh kind {ns.kind!r}")
    if ns.with_residuals:
        mesh = meshverify.attach_residuals(mesh)
    projection = None
    if ns.projection:
        projection = ("pca" if ns.projection == "pca"
                      else _parse_numbers(ns.projection, "--projection", int))
    meshverify.export(mesh, ns.format, _outpath(ns.out), projection=projection)
    _progress(f"wrote {ns.out} ({len(mesh.vertices)} vertices)")
    return 0


def cmd_verify(ns) -> int:
    from . import meshverify
    cfg = _resolved_config(ns)
    if ns.threshold is not None and not ns.threshold >= 0.0:
        raise ValidationError(f"--threshold must be a non-negative number, "
                              f"got {ns.threshold!r}")
    mesh = meshverify.import_json(_outpath(ns.mesh))
    meshverify.rebuild_family(mesh)
    report = meshverify.mesh_residual_report(mesh)
    payload = report.to_dict()
    print(f"max residual {report.max_residual():.3e} over "
          f"{report.sample_count} samples ({report.skipped} skipped); "
          f"vertices off the family by {report.max_vertex_offset:.3e}")
    if ns.out:
        _emit(ns.out, payload, cfg)
    if report.max_vertex_offset > meshverify.VERTEX_TOL:
        print(f"FAIL: stored vertices are off the rebuilt family by "
              f"{report.max_vertex_offset:.3e} (relative; bound "
              f"{meshverify.VERTEX_TOL:.0e})", file=sys.stderr)
        return 3
    if ns.threshold is not None and report.max_residual() > ns.threshold:
        print(f"FAIL: residual exceeds threshold {ns.threshold:.3e}",
              file=sys.stderr)
        return 3
    return 0


def cmd_crosssection(ns) -> int:
    from . import threefold
    cfg = _resolved_config(ns)
    alphas = _alphas_for(ns, 3, 1)
    _check_count(ns.n, "--n")
    section = threefold.cross_section(alphas)
    s = np.linspace(0.0, section.period, ns.n)
    X = section.x(s)
    r1, r2 = section.constraint_residuals(s)
    if ns.out:
        _write_csv(ns.out, ["s", "x1", "x2", "x3"],
                   np.column_stack([s, X]).tolist())
    payload = {"mu": section.mu, "nu": section.nu,
               "swapped": section.swapped, "period": section.period,
               "max_constraint_residuals": [r1, r2]}
    _emit(ns.summary, payload, cfg)
    return 0


def cmd_affine(ns) -> int:
    from . import affine as affine_mod
    cfg = _resolved_config(ns)
    alphas = _alphas_for(ns, ns.m - 1, ns.a)
    _check_count(ns.n, "--n")
    params = affine_mod.AffineParams(ns.m, ns.a, alphas, ns.A)
    w0, beta0 = affine_mod.affine_initial(params)
    path = affine_mod.integrate_affine(w0, beta0, ns.a, ns.t_end)
    t_grid = np.linspace(0.0, path.t_span[1], ns.n)
    W = path.w(t_grid)
    B = path.beta(t_grid)
    u_t = np.abs(W[:, 0]) ** 2 - alphas[0]
    closed = affine_mod.beta_closed(u_t, t_grid, params.A, beta0)
    defect = float(np.abs(B - closed).max())
    if ns.out:
        names = [f"w{j + 1}" for j in range(ns.m - 1)] + ["beta"]
        cols = ["t"] + [part + name for name in names for part in ("Re", "Im")]
        _write_csv(ns.out, cols, np.column_stack(    # (Re, Im) interleaved
            [t_grid, np.column_stack([W, B]).view(float)]).tolist())
    payload = {"case": affine_mod.classify_affine_case(params),
               "note": affine_mod.case_span_note(params),
               "escaped": path.escaped,
               "escape_time": path.escape_time,
               "beta_closed_form_defect": defect}
    _emit(ns.summary, payload, cfg)
    return 0


def cmd_report(ns) -> int:
    from . import centred
    cfg = _resolved_config(ns)
    alphas = _alphas_for(ns, ns.m, ns.a)
    params = centred.CentredParams(ns.m, ns.a, alphas, ns.A, c=ns.c)
    case = centred.classify_case(params)
    payload = {"case": case, "A_max": params.A_max,
               "normalization_residual": params.normalization_residual()}
    if case == "d":
        res = centred.betas(params)
        payload["betas"] = res.to_dict()
        lim = centred.beta_limits(alphas, ns.a)
        payload["limits"] = {"k": lim.k, "l": lim.l,
                             "small_A": list(lim.small_A),
                             "large_A": list(lim.large_A)}
        # conservation over several periods via direct integration
        T = res.period_T
        w0 = centred.w_initial(params)
        path = centred.integrate_w(w0, ns.a, 5 * T)
        grid = np.linspace(0.0, 5 * T, 2000)
        W = path.w(grid)
        al = params.alpha_array
        u = params.signs * (np.abs(W) ** 2 - al)
        theta = np.unwrap(np.angle(W), axis=0).sum(axis=1)
        drift = np.abs(np.sqrt(np.maximum(params.Q(u.mean(axis=1)), 0.0))
                       * np.sin(theta) - params.A)
        payload["conservation_drift"] = float(drift.max())
    _emit(ns.out, payload, cfg)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token starting with '-' and then a
    digit, a point, "inf" or "nan" as a value, not as an option name, so
    that ``--t-end -1e1``, ``--t-end -inf`` and ``--w0 -1,1j,1`` parse
    (argparse alone takes only plain negative decimals), and that takes
    option names only in full: argparse alone reads ``--m`` as any one
    option it prefixes.  Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.|inf|nan)",
                                                   re.IGNORECASE)


def build_parser(defaults: dict = None) -> argparse.ArgumentParser:
    """The slevolve parser; ``defaults`` (a config file's values) replace
    the defaults of each subcommand's own options, so explicit flags still
    override them.  A key that names none of a subcommand's options is not
    set there, so its output does not echo it."""
    p = _Parser(
        prog="slevolve",
        description="construct, search and verify evolved-quadric "
                    "special Lagrangian families")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, default=3)
        sp.add_argument("--a", type=int, default=1)

    # --alphas or --family sym, read by _alphas_for
    alphas = argparse.ArgumentParser(add_help=False)
    alphas.add_argument("--alphas")
    alphas.add_argument("--family", choices=["sym"])

    sp = sub.add_parser("evolve", help="integrate a diagonal start under the "
                        "general engine on quadric data")
    common(sp)
    sp.set_defaults(m=None, a=None)     # cmd_evolve's, without --data
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--c", type=float)
    sp.add_argument("--data", help="evolution-data JSON (sl-evodata-1)")
    sp.add_argument("--w0", help="comma-separated complex initial diagonal")
    sp.add_argument("--t-end", dest="t_end", type=float, default=5.0)
    sp.add_argument("--rtol", type=float, default=1e-10)
    sp.add_argument("--atol", type=float, default=1e-12)
    sp.add_argument("--out", help="trajectory CSV path")
    sp.add_argument("--summary", help="summary JSON path")
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("betas", help="monodromy angles by quadrature",
                        parents=[alphas])
    common(sp)
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--quad-tol", dest="quad_tol", type=float, default=3e-12)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_betas)

    sp = sub.add_parser("limits", parents=[alphas],
                        help="endpoint limits of the monodromy angles")
    common(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_limits)

    sp = sub.add_parser("search", help="scan for closed (periodic) families",
                        parents=[alphas])
    common(sp)
    sp.add_argument("--bmax", type=int, default=8)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--grid", type=int, default=96)
    sp.add_argument("--c", type=float, default=0.0)
    sp.add_argument("--verify", action="store_true", default=None)
    sp.add_argument("--scan-csv", dest="scan_csv")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("mesh", help="emit a mesh of a constructed family",
                        parents=[alphas])
    common(sp)
    sp.add_argument("--kind", choices=["centred", "affine", "link"],
                    default="centred")
    sp.add_argument("--A", type=float, default=1.0)
    sp.add_argument("--c", type=float,
                    help="default 0.0; --kind centred only")
    sp.add_argument("--t-end", dest="t_end", type=float,
                    help="default 2.0; one period for --kind link")
    sp.add_argument("--resolution", default="33x64")
    sp.add_argument("--format", choices=["obj", "ply", "csv", "json"],
                    default="json")
    sp.add_argument("--projection",
                    help="'pca' or three comma-separated coordinate indices")
    sp.add_argument("--with-residuals", dest="with_residuals",
                    action="store_true", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_mesh)

    sp = sub.add_parser("verify", help="verify the conditions on a mesh JSON")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("crosssection", parents=[alphas],
                        help="cone link circle in closed form, (m, a) = "
                        "(3, 1)")
    sp.add_argument("--n", type=int, default=257)
    sp.add_argument("--out", help="CSV path")
    sp.add_argument("--summary", help="JSON path")
    sp.set_defaults(func=cmd_crosssection)

    sp = sub.add_parser("affine", help="integrate the translated family",
                        parents=[alphas])
    common(sp)
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--t-end", dest="t_end", type=float, default=6.0)
    sp.add_argument("--n", type=int, default=257)
    sp.add_argument("--out", help="CSV path")
    sp.add_argument("--summary", help="JSON path")
    sp.set_defaults(func=cmd_affine)

    sp = sub.add_parser("report", parents=[alphas], help="bundle of "
                        "diagnostics for one parameter point")
    common(sp)
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--c", type=float, default=0.0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_report)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="JSON config file (flags override)")
        given = [a for a in sp._actions if a.dest in (defaults or {})
                 and a.default is not argparse.SUPPRESS]
        sp.set_defaults(**{a.dest: _config_value(a, defaults[a.dest])
                           for a in given})
        for a in given:     # an option the file sets is no longer required
            a.required = False
    return p


def main(argv=None) -> int:
    # --config is read before the one parse, so that the file's values are
    # the defaults the required-option check sees; a malformed --config is
    # left for that parse to report
    pre = _Parser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        config = None
    try:
        ns = build_parser(_load_config(config) if config else None
                          ).parse_args(argv)
        return ns.func(ns)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
