"""Command-line surface: subcommand wiring, exit codes, determinism,
config merging and the output-directory environment variable."""

import json

import numpy as np
import pytest

from slevolve import centred, cli


def run(args):
    return cli.main(args)


class TestBetasCommand:
    def test_writes_sum_and_provenance(self, tmp_path):
        out = tmp_path / "betas.json"
        rc = run(["betas", "--m", "3", "--a", "1", "--alphas", "1,2,2",
                  "--A", "1.0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["sum_betas"]) <= 1e-10
        assert doc["case"] == "d"
        assert doc["version"]
        assert doc["config"]["A"] == 1.0

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            run(["betas", "--m", "3", "--a", "1", "--alphas", "1,2,2",
                 "--A", "0.7", "--out", str(out)])
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        da["config"].pop("out")
        db["config"].pop("out")
        assert da == db

    def test_validation_exit_code(self, tmp_path, capsys):
        rc = run(["betas", "--m", "3", "--a", "1", "--alphas", "1,2,2.5",
                  "--A", "1.0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        # a malformed mesh resolution is named: no traceback, no empty mesh
        out = tmp_path / "m.json"
        for res in ("33", "-3x16", "0x16", "9x0", "9xa"):
            assert run(["mesh", "--alphas", "1,2,2", "--resolution", res,
                        "--out", str(out)]) == 2
            assert "resolution" in capsys.readouterr().err
            assert not out.exists()
        # a count below its least is named: it was a numpy ValueError and
        # exit 1, or for --grid 0 and 1 an empty search and exit 0
        for argv, flag in (
                (["search", "--family", "sym", "--bmax", "0"], "--bmax"),
                (["search", "--family", "sym", "--bmax", "-2"], "--bmax"),
                (["search", "--family", "sym", "--grid", "0"], "--grid"),
                (["search", "--family", "sym", "--grid", "1"], "--grid"),
                (["search", "--family", "sym", "--grid", "-3"], "--grid"),
                (["crosssection", "--alphas", "1.2,2,3", "--n", "0"], "--n"),
                (["crosssection", "--alphas", "1.2,2,3", "--n", "-1"], "--n"),
                (["affine", "--alphas", "1,1", "--A", "0.4", "--n", "0"],
                 "--n")):
            assert run(argv + ["--out", str(out)]) == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv,flag,token", [
        (["betas", "--m", "3", "--a", "1", "--alphas", "1,x,2", "--A", "1"],
         "--alphas", "x"),
        (["betas", "--m", "3", "--a", "1", "--alphas", "1,,2", "--A", "1"],
         "--alphas", ""),
        (["evolve", "--m", "3", "--a", "1", "--w0", "1,2j,q", "--t-end",
          "0.1"], "--w0", "q"),
    ])
    def test_non_numeric_value_exits_two(self, argv, flag, token, capsys):
        # a bad token was a bare ValueError: a traceback and exit 1
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(token) in err

    @pytest.mark.parametrize("argv,exit_code", [
        # --tol NaN and -1 exited 0 with "count": 0; --quad-tol NaN and -1
        # exited 3 ("panel budget exhausted", "did not converge"); the NaN
        # alpha was a ZeroDivisionError traceback and exit 1
        (["search", "--family", "sym", "--tol", "nan"], 2),
        (["search", "--family", "sym", "--tol", "-1"], 2),
        (["betas", "--alphas", "1,2,2", "--A", "1", "--quad-tol", "nan"], 2),
        (["betas", "--alphas", "1,2,2", "--A", "1", "--quad-tol", "-1"], 2),
        (["betas", "--alphas", "1,2,2", "--A", "1", "--quad-tol", "0"], 0),
        (["limits", "--alphas", "1,nan,1"], 2),
        (["limits", "--alphas", "1,inf,1"], 2),
    ])
    def test_bad_tolerance_or_alpha_exit_code(self, tmp_path, argv,
                                              exit_code):
        out = tmp_path / "x.json"
        assert run(argv + ["--out", str(out)]) == exit_code
        assert out.exists() == (exit_code == 0)

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["betas", "--m", "3", "--what", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,flag", [
        (["verify", "--mesh", "m.json", "--m", "3"], "--m"),
        (["betas", "--A", "1", "--alph", "1,2,2"], "--alph"),
        (["search", "--bm", "3"], "--bm"),
    ])
    def test_abbreviated_option_refused(self, argv, flag, capsys):
        # argparse's prefix matching read --m as --mesh on verify (which
        # has no --m), so a mistyped option became another one
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

class TestSearchCommand:
    def test_finds_denominator_seven(self, tmp_path, capsys):
        out = tmp_path / "sols.json"
        scan = tmp_path / "scan.csv"
        rc = run(["search", "--m", "3", "--a", "1", "--family", "sym",
                  "--bmax", "8", "--grid", "48", "--verify",
                  "--out", str(out), "--scan-csv", str(scan)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["count"] >= 1
        found = {(tuple(s["int_angles"]), s["denom"]) for s in doc["solutions"]}
        assert ((-8, 4, 4), 7) in found
        sol = next(s for s in doc["solutions"] if s["denom"] == 7)
        assert sol["verification"]["max_defect"] <= 1e-6
        assert sol["topology"]
        header = scan.read_text().splitlines()[0]
        assert header.startswith("alpha1,alpha2,alpha3,A,beta1")
        # progress goes to stderr, not stdout
        captured = capsys.readouterr()
        assert "found" in captured.err

    def test_verify_diagnostics_deterministic(self, tmp_path, monkeypatch):
        # the config echoes the path, so the two runs write the same name
        monkeypatch.delenv("SLEVOLVE_OUTDIR", raising=False)
        paths = [tmp_path / d / "s.json" for d in ("one", "two")]
        for path in paths:
            path.parent.mkdir()
            monkeypatch.chdir(path.parent)
            assert run(["search", "--m", "4", "--a", "2", "--family", "sym",
                        "--bmax", "8", "--verify", "--out", "s.json"]) == 0
        text = paths[0].read_bytes()
        assert text == paths[1].read_bytes()
        sols = json.loads(text)["solutions"]
        assert len(sols) == 4
        for sol in sols:
            diag = sol["verification"]["diagnostics"]
            assert set(diag) == {"nfev", "accepted_steps"}
            assert diag["nfev"] > diag["accepted_steps"] > 0

    def test_scan_csv_rows_are_the_search_grid(self, tmp_path, monkeypatch):
        # the CSV tabulates the A grid and betas the search bracketed on:
        # periodic_search's first betas_grid call, at its quad_tol
        calls = []
        betas_grid = centred.betas_grid

        def recording(params, A, tol=3e-12):
            rows = betas_grid(params, A, tol=tol)
            calls.append((np.array(A), [r.betas for r in rows], tol))
            return rows

        monkeypatch.setattr(centred, "betas_grid", recording)
        scan = tmp_path / "scan.csv"
        assert run(["search", "--m", "5", "--a", "2", "--family", "sym",
                    "--bmax", "1", "--grid", "96", "--out",
                    str(tmp_path / "s.json"), "--scan-csv", str(scan)]) == 0
        A_grid, betas, tol = calls[0]
        assert calls[-1][2] == tol
        table = np.array([[float(v) for v in line.split(",")]
                          for line in scan.read_text().splitlines()[1:]])
        assert table.shape == (96, 13)
        assert table[:, 5].tobytes() == A_grid.tobytes()
        assert table[:, 6:11].tobytes() == np.array(betas).tobytes()

    def test_data_stream_clean(self, tmp_path, capsys):
        out = tmp_path / "sols.json"
        run(["search", "--m", "2", "--a", "1", "--alphas", "1.3,1.3",
             "--bmax", "2", "--grid", "8", "--out", str(out)])
        captured = capsys.readouterr()
        assert captured.out == ""  # data only in files


class TestMeshAndVerify:
    def test_verify_does_not_take_m_for_mesh(self, tmp_path, capsys):
        good = tmp_path / "b.json"
        assert run(["mesh", "--kind", "link", "--alphas", "1.2,2,3",
                    "--A", "0.4", "--resolution", "8x8",
                    "--out", str(good)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--mesh", str(tmp_path / "a.json"),
                 "--m", str(good)])
        assert exc.value.code == 2
        assert "max residual" not in capsys.readouterr().out

    def test_round_trip_and_threshold(self, tmp_path):
        mesh = tmp_path / "link.json"
        rc = run(["mesh", "--kind", "link", "--alphas", "1.2,2,3",
                  "--A", "0.4", "--resolution", "12x12",
                  "--out", str(mesh), "--with-residuals"])
        assert rc == 0
        rc = run(["verify", "--mesh", str(mesh), "--threshold", "1e-6",
                  "--out", str(tmp_path / "rep.json")])
        assert rc == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["max_imOmega_residual"] <= 1e-6

    def test_threshold_failure_is_exit_three(self, tmp_path):
        mesh = tmp_path / "link.json"
        run(["mesh", "--kind", "link", "--alphas", "1.2,2,3", "--A", "0.4",
             "--resolution", "8x8", "--out", str(mesh)])
        rc = run(["verify", "--mesh", str(mesh), "--threshold", "1e-30"])
        assert rc == 3

    def test_shifted_vertices_fail_verify(self, tmp_path):
        mesh = tmp_path / "centred.json"
        rc = run(["mesh", "--kind", "centred", "--m", "3", "--a", "1",
                  "--alphas", "1,2,2", "--A", "1.0", "--c", "1.0",
                  "--resolution", "33x64", "--out", str(mesh)])
        assert rc == 0
        rc = run(["verify", "--mesh", str(mesh), "--threshold", "1e-12",
                  "--out", str(tmp_path / "rep.json")])
        assert rc == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["max_vertex_offset"] <= 1e-12
        doc = json.loads(mesh.read_text())
        for v in doc["vertices"]:
            v[0] += 5.0
        mesh.write_text(json.dumps(doc))
        rc = run(["verify", "--mesh", str(mesh), "--threshold", "1e-12",
                  "--out", str(tmp_path / "rep.json")])
        assert rc == 3
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["max_vertex_offset"] > 0.1

    @pytest.mark.parametrize("argv", [
        # case c, A = A_max: the closed-form path, not an integration
        ["--kind", "centred", "--m", "3", "--a", "1", "--alphas", "1,2,2",
         "--A", "2", "--c", "1"],
        # a path that escapes before t = 50
        ["--kind", "affine", "--m", "4", "--a", "3", "--alphas", "1,2,3",
         "--A", "0.4", "--t-end", "50"],
    ], ids=["centred-case-c", "affine-escaping"])
    def test_verify_rebuilds_the_built_mesh(self, tmp_path, argv):
        mesh, rep = tmp_path / "m.json", tmp_path / "rep.json"
        assert run(["mesh", *argv, "--resolution", "9x16",
                    "--out", str(mesh)]) == 0
        assert run(["verify", "--mesh", str(mesh), "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["max_vertex_offset"] == 0.0

    def test_link_honours_t_end(self, tmp_path):
        mesh = tmp_path / "link.json"
        assert run(["mesh", "--kind", "link", "--alphas", "1.2,2,3",
                    "--A", "0.4", "--t-end", "0.5", "--resolution", "8x8",
                    "--out", str(mesh)]) == 0
        t = np.asarray(json.loads(mesh.read_text())["params"])[:, 1]
        assert t.min() == 0.0 and t.max() == 0.5
        assert run(["verify", "--mesh", str(mesh)]) == 0

    def test_missing_or_malformed_file_is_exit_two(self, tmp_path, capsys):
        paths = [tmp_path / "missing.json"]
        for i, text in enumerate(("{not json", "[1, 2]",
                                  '{"schema": "slmesh-1", "m": 3}')):
            paths.append(tmp_path / f"bad{i}.json")
            paths[-1].write_text(text)
        for path in paths:
            assert run(["verify", "--mesh", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("kind,argv,key", [
        ("centred", ["--m", "3", "--a", "1", "--alphas", "1,2,2", "--A", "1",
                     "--c", "1"], "t_end"),
        ("affine", ["--m", "4", "--a", "3", "--alphas", "1,2,3", "--A",
                    "0.4"], "profile_radii"),
        ("link", ["--alphas", "1.2,2,3", "--A", "0.4"], "alphas"),
    ])
    def test_recipe_missing_a_key_is_exit_two(self, tmp_path, capsys, kind,
                                              argv, key):
        # rebuild_family let the KeyError out: a traceback and exit 1
        mesh = tmp_path / "m.json"
        assert run(["mesh", "--kind", kind, *argv, "--resolution", "5x8",
                    "--out", str(mesh)]) == 0
        doc = json.loads(mesh.read_text())
        del doc["recipe"][key]
        mesh.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--mesh", str(mesh)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    @pytest.mark.parametrize("argv,projection", [
        (["--alphas", "1,2,2"], "1,2,x"),
        (["--kind", "link", "--alphas", "1.2,2,3", "--A", "0.4"], "1,2,9"),
        (["--m", "4", "--a", "2", "--family", "sym"], "0,1,99"),
        (["--alphas", "1,2,2"], "-1,0,1"),
        (["--alphas", "1,2,2"], "0,1"),
    ])
    def test_bad_projection_is_exit_two(self, tmp_path, capsys, argv,
                                        projection):
        # a ValueError or IndexError traceback and exit 1; -1 silently took
        # the last coordinate
        out = tmp_path / "m.obj"
        assert run(["mesh", *argv, "--resolution", "4x8", "--format", "obj",
                    "--projection", projection, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "projection" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: [row.pop() for row in doc["params"]],
        lambda doc: doc["params"].__delitem__(slice(-3, None)),
        lambda doc: doc["params"][-1].__setitem__(2, 7),
        lambda doc: doc["params"][0].__setitem__(2, 0.5),
        lambda doc: doc["params"][0].__setitem__(0, None),
        lambda doc: [doc.update(param_names=["t", "q"])]
        + [row.pop() for row in doc["params"]],
        lambda doc: doc["params"][0].pop(),
        lambda doc: doc["vertices"][0].pop(),
        lambda doc: doc.update(m="x"),
        lambda doc: doc["recipe"].update(alphas="abc"),
        lambda doc: doc["recipe"].update(A="x"),
        lambda doc: doc["recipe"].update(t_end=[1]),
        lambda doc: doc["recipe"].update(kind=["centred"]),
        lambda doc: doc.update(recipe=5),
    ], ids=["two-columns", "three-rows-short", "sheet-7", "sheet-half",
            "t-null", "two-names", "ragged-params", "ragged-vertices",
            "m-not-int", "alphas-str", "A-str", "t-end-list", "kind-list",
            "recipe-not-object"])
    def test_malformed_file_is_exit_two(self, tmp_path, capsys, edit):
        # AttributeError, IndexError, TypeError and ValueError tracebacks
        # and exit 1; a sheet of 0.5 read as sheet 0, and a null t as NaN,
        # and both verified
        mesh = tmp_path / "m.json"
        assert run(["mesh", "--alphas", "1,2,2", "--resolution", "5x8",
                    "--out", str(mesh)]) == 0
        doc = json.loads(mesh.read_text())
        edit(doc)
        mesh.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--mesh", str(mesh)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_centred_mesh_formats(self, tmp_path):
        for fmt in ("json", "csv", "obj", "ply"):
            out = tmp_path / f"m.{fmt}"
            rc = run(["mesh", "--kind", "centred", "--m", "3", "--a", "1",
                      "--alphas", "1,2,2", "--A", "1.0", "--c", "1.0",
                      "--t-end", "1.0", "--resolution", "4x8",
                      "--format", fmt, "--out", str(out)])
            assert rc == 0 and out.exists()


class TestEvolveCommand:
    def test_data_file_input(self, tmp_path):
        from slevolve import evodata
        doc = evodata.example_quadric(3, 1, 1.0).to_json_dict()
        data_path = tmp_path / "data.json"
        data_path.write_text(json.dumps(doc))
        summary = tmp_path / "s.json"
        rc = run(["evolve", "--data", str(data_path), "--w0", "1,1j,1",
                  "--t-end", "1.0", "--summary", str(summary)])
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert doc["max_omega_residual"] <= 1e-8

    def test_summary_diagnostics_deterministic(self, tmp_path, monkeypatch):
        # the config echoes the path, so the two runs write the same name
        monkeypatch.delenv("SLEVOLVE_OUTDIR", raising=False)
        paths = [tmp_path / d / "s.json" for d in ("one", "two")]
        for path in paths:
            path.parent.mkdir()
            monkeypatch.chdir(path.parent)
            assert run(["evolve", "--m", "4", "--a", "2", "--t-end", "1",
                        "--seed", "3", "--summary", "s.json"]) == 0
        text = paths[0].read_bytes()
        assert text == paths[1].read_bytes()
        diag = json.loads(text)["diagnostics"]
        assert diag["checkpoints"] == 33
        assert diag["membership_samples"] == 40
        assert diag["nfev"] > diag["accepted_steps"] > 0

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        # it was a numpy ValueError traceback and exit 1
        summary = tmp_path / "s.json"
        assert run(["evolve", "--w0", "1,1j,1", "--t-end", "0.1", "--seed",
                    "-1", "--summary", str(summary)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not summary.exists()

    def test_escape_reported(self, tmp_path):
        summary = tmp_path / "s.json"
        rc = run(["evolve", "--m", "3", "--a", "3", "--c", "1.0",
                  "--w0", "1,1,1", "--t-end", "30", "--out",
                  str(tmp_path / "t.csv"), "--summary", str(summary)])
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert doc["escaped"] is True
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "t"
        assert header.split(",")[-1] == "res_omega"


class TestConfigAndEnv:
    def test_config_file_merged_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": "1,2,2", "A": 0.5, "m": 3,
                                   "a": 1}))
        out = tmp_path / "b.json"
        rc = run(["betas", "--config", str(cfg), "--A", "1.0",
                  "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["A"] == 1.0  # flag wins
        assert doc["config"]["alphas"] == "1,2,2"

    def test_config_file_beats_defaults(self, tmp_path):
        # bmax has an argparse default (8); the file value must replace it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bmax": 3}))
        out = tmp_path / "sols.json"
        rc = run(["search", "--config", str(cfg), "--m", "3", "--a", "1",
                  "--family", "sym", "--grid", "48", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["bmax"] == 3
        assert all(s["denom"] <= 3 for s in doc["solutions"])

    @pytest.mark.parametrize("argv", [
        ["limits", "--alphas", "1,2,2", "--seed", "0"],
        ["search", "--family", "sym", "--seed", "0"],
        ["verify", "--mesh", "m.json", "--seed", "0"],
        ["verify", "--mesh", "m.json", "--a", "1"],
    ])
    def test_unread_options_removed(self, argv):
        # only evolve reads --seed, and verify reads neither --m nor --a
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_config_block_has_no_seed(self, tmp_path):
        # a config file with keys a command has no option for still loads,
        # but only the commands that have them set and echo them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": "1,2,2", "seed": 4, "A": 0.5,
                                   "bmax": 3}))
        for argv in (["limits"], ["limits", "--config", str(cfg)]):
            out = tmp_path / "lim.json"
            assert run(argv + ["--alphas", "1,2,2", "--out", str(out)]) == 0
            config = json.loads(out.read_text())["config"]
            assert not {"seed", "A", "bmax"} & set(config)
        out = tmp_path / "e.json"
        assert run(["evolve", "--w0", "1,1j,1", "--t-end", "0.1",
                    "--summary", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 0
        assert run(["evolve", "--w0", "1,1j,1", "--t-end", "0.1",
                    "--config", str(cfg), "--summary", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["seed"] == 4 and "alphas" not in config

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLEVOLVE_OUTDIR", str(tmp_path))
        rc = run(["limits", "--m", "3", "--a", "1", "--alphas", "1,2,2",
                  "--out", "lim.json"])
        assert rc == 0
        assert (tmp_path / "lim.json").exists()

    def test_limits_values(self, tmp_path):
        out = tmp_path / "lim.json"
        run(["limits", "--m", "3", "--a", "1", "--alphas", "1,2,2",
             "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["k"] == 1 and doc["l"] == 2
        assert doc["sum_squares_large_A"] == pytest.approx(
            2 * np.pi ** 2, abs=1e-10)


class TestStdoutJson:
    @pytest.mark.parametrize("argv,flag", [
        (["betas", "--family", "sym", "--m", "3", "--a", "1", "--A", "0.5"],
         "--out"),
        (["limits", "--alphas", "1,2,2"], "--out"),
        (["crosssection", "--alphas", "1.2,2,3", "--n", "9"], "--summary"),
        (["affine", "--alphas", "1.5,3", "--A", "0.5", "--n", "9"],
         "--summary"),
    ])
    def test_printed_document_is_the_written_one(self, argv, flag, tmp_path,
                                                  capsys):
        # printed JSON carried neither config nor version
        assert run(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["version"] == cli.__version__
        assert printed["config"]["command"] == argv[0]
        out = tmp_path / "doc.json"
        assert run(argv + [flag, str(out)]) == 0
        written = json.loads(out.read_text())
        del written["config"][flag[2:]]
        assert printed == written


class TestOtherCommands:
    def test_crosssection(self, tmp_path):
        rc = run(["crosssection", "--alphas", "1.2,2,3",
                  "--out", str(tmp_path / "cs.csv"),
                  "--summary", str(tmp_path / "cs.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "cs.json").read_text())
        assert max(doc["max_constraint_residuals"]) <= 1e-10
        header = (tmp_path / "cs.csv").read_text().splitlines()[0]
        assert header == "s,x1,x2,x3"

    def test_affine_summary(self, tmp_path):
        rc = run(["affine", "--m", "3", "--a", "2", "--alphas", "1,1.3",
                  "--A", "0.5", "--t-end", "4",
                  "--summary", str(tmp_path / "a.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["case"] == "b"
        assert doc["beta_closed_form_defect"] <= 1e-7

    def test_affine_symmetric_family(self, tmp_path):
        # the affine family has m-1 letters, so --family sym means
        # symmetric_alphas(m-1, a) on both affine paths
        rc = run(["mesh", "--kind", "affine", "--family", "sym", "--m", "4",
                  "--a", "2", "--A", "0.5", "--resolution", "8x8",
                  "--format", "json", "--out", str(tmp_path / "m.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["recipe"]["alphas"] == [1.0, 1.0, 0.5]
        rc = run(["affine", "--family", "sym", "--m", "4", "--a", "2",
                  "--A", "0.5", "--summary", str(tmp_path / "a.json")])
        assert rc == 0
        assert json.loads((tmp_path / "a.json").read_text())["case"] == "d"

    def test_report(self, tmp_path):
        rc = run(["report", "--m", "3", "--a", "1", "--family", "sym",
                  "--A", "1.0", "--out", str(tmp_path / "r.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["case"] == "d"
        assert doc["conservation_drift"] <= 1e-8
        assert abs(doc["betas"]["sum_betas"]) <= 1e-10


class TestNegativeValues:
    # argparse alone reads a token like -1e1, -inf or -1,1j,1 as an option
    # name, so each of these exited 2 with "expected one argument"
    @pytest.mark.parametrize("argv,key,want", [
        (["affine", "--A", "0.5", "--t-end", "-1e1"], "t_end", -10.0),
        (["affine", "--A", "0.5", "--t-end", "-inf"], "t_end", -np.inf),
        (["evolve", "--c", "-1e-3"], "c", -1e-3),
        (["evolve", "--w0", "-1,1j,1"], "w0", "-1,1j,1"),
        (["mesh", "--out", "m.json", "--t-end", "-.5"], "t_end", -0.5),
        (["betas", "--A", "1", "--alphas", "-1,2,2"], "alphas", "-1,2,2"),
    ])
    def test_parsed_as_values(self, argv, key, want):
        assert getattr(cli.build_parser().parse_args(argv), key) == want

    def test_negative_exponent_t_end_runs(self, tmp_path):
        summary = tmp_path / "a.json"
        rc = run(["affine", "--m", "3", "--a", "1", "--alphas", "1.5,3",
                  "--A", "0.5", "--t-end", "-1e0", "--summary", str(summary)])
        assert rc == 0
        assert json.loads(summary.read_text())["config"]["t_end"] == -1.0
        assert run(["evolve", "--m", "3", "--w0", "-1,1j,1", "--c", "-1e-3",
                    "--t-end", "2e-1", "--summary", str(summary)]) == 0
        # a non-finite t_end still reaches the driver's refusal
        assert run(["affine", "--m", "3", "--a", "1", "--alphas", "1.5,3",
                    "--A", "0.5", "--t-end", "-inf"]) == 2

    def test_option_names_still_options(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["affine", "--A", "0.5",
                                           "--t-end", "--n", "3"])
        assert exc.value.code == 2
