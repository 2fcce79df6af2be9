import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import ncwigner.cli as cli
from ncwigner import RankOneOperator, make_orbit_label, wigner_nc
from ncwigner.cli import main, read_field_file
from ncwigner.core import Domain4D, Grid1D, Grid2D, nc_domain
from ncwigner.oracles import gaussian_state_momentum
from ncwigner.starprod import marginal_momentum


def run(argv, capsys=None):
    code = main(argv)
    return code


def load_csv(path):
    rows = np.loadtxt(path, delimiter=",")
    return rows[:, 2] + 1j * rows[:, 3]


class TestWignerCommand:
    def test_qm_slice_smoke(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["wigner", "qm", "--k1", "1", "--alpha", "1",
                     "--state", "gaussian:0,0", "--grid", "128", "--extent", "10",
                     "--slice", "k3s=0,k4s=0", "--out", str(out)])
        assert code == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 128 * 128

    def test_degenerate_label_exit_3(self, tmp_path, capsys):
        code = main(["wigner", "generic", "--k1", "1", "--k2", "1", "--k3", "1",
                     "--state", "gaussian:0,0", "--grid", "8", "--extent", "2",
                     "--slice", "k3s=0,k4s=0", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_sector_mismatch_exit_3(self, tmp_path, capsys):
        code = main(["wigner", "tau0", "--k1", "1",
                     "--state", "gaussian:0,0", "--grid", "8", "--extent", "2",
                     "--slice", "k3s=0,k4s=0", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "tau_zero" in capsys.readouterr().err

    def test_field_file_round_trip_as_state(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["wigner", "standard", "--state", "gaussian:0,0",
                     "--state-grid", "64", "--state-extent", "8",
                     "--grid", "8", "--extent", "2",
                     "--slice", "q2=0,p2=0", "--out", str(out)]) == 0
        f = read_field_file(str(out))
        assert f.grid.axis0.n == 8
        # 17-digit serialisation is lossless
        w2 = tmp_path / "w2.csv"
        assert main(["wigner", "standard", "--state", "gaussian:0,0",
                     "--state-grid", "64", "--state-extent", "8",
                     "--grid", "8", "--extent", "2",
                     "--slice", "q2=0,p2=0", "--out", str(w2)]) == 0
        assert out.read_text() == w2.read_text()

    def test_state_is_stripped_before_it_is_parsed_and_recorded(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(["wigner", "standard", "--state", "gaussian:0,0 ",
                     "--state-grid", "16", "--state-extent", "4", "--grid", "4",
                     "--extent", "1", "--slice", "q2=0,p2=0", "--out", str(out)]) == 0
        assert "# state: gaussian:0,0" in out.read_text().splitlines()
        assert "Traceback" not in capsys.readouterr().err

    def test_a_field_the_writer_refuses_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(path, *args, **kwargs):
            raise ValueError(f"field file {path}: refused")

        monkeypatch.setattr(cli, "write_field_file", refuse)
        out = tmp_path / "w.csv"
        assert main(["wigner", "standard", "--state-grid", "16", "--state-extent", "4",
                     "--grid", "4", "--extent", "1", "--slice", "q2=0,p2=0",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"ncwig: error: --out: field file {out}: refused"
        assert not any("Traceback" in line for line in err)

    def test_formats(self, tmp_path):
        import json

        for fmt, name in (("gnuplot", "g.dat"), ("json", "j.json")):
            out = tmp_path / name
            assert main(["wigner", "nc", "--k1", "1", "--k2", "-1", "--k3", "1",
                         "--state", "gaussian:0,0", "--grid", "8", "--extent", "2",
                         "--slice", "p1nc=0,p2nc=0", "--format", fmt,
                         "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "j.json").read_text())
        assert len(doc["re"]) == 64
        gn = (tmp_path / "g.dat").read_text().splitlines()
        blanks = sum(1 for ln in gn if ln == "")
        assert blanks == 8  # one separator per axis0 block

    def test_bad_state_spec_exit_2(self, tmp_path, capsys):
        code = main(["wigner", "qm", "--k1", "1", "--state", "nonsense:1",
                     "--grid", "8", "--extent", "2", "--slice", "k3s=0,k4s=0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--state" in capsys.readouterr().err
        # an empty field is refused, not dropped with the later fields moved left
        for spec in ("gaussian:1,,0,0.5,0.2", "gaussian:,1,0", "gaussian:1,,0.5,0.2"):
            code = main(["wigner", "standard", "--grid", "8", "--extent", "2",
                         "--slice", "q2=0,p2=0", "--state", spec,
                         "--out", str(tmp_path / "a.csv")])
            err = capsys.readouterr().err
            assert code == 2 and "--state" in err and err.count("\n") == 1, spec
        assert not (tmp_path / "a.csv").exists()

    def test_argparse_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wigner", "qm", "--grid", "not-a-number", "--out", "x.csv"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err


class TestDisplacedStates:
    """A built-in state displaced to q0 along q^nc puts the images of its
    Wigner band at q0 - k pi/(|omega| h); its state step is refined until
    they stay out of the output window, each doubling charged."""

    def run(self, tmp_path, capsys, variant, state, extent="2.5", extra=()):
        out = tmp_path / "w.csv"
        code = main([*WIGNER[variant], "--state", state, "--grid", "16", "--extent", extent,
                     *extra, "--out", str(out)])
        err = capsys.readouterr().err
        grid = re.search(r"state-grid: n=(\d+)", err)
        return code, err, grid and int(grid.group(1)), code == 0 and read_field_file(str(out))

    @pytest.mark.parametrize("variant", ["nc", "generic"])
    @pytest.mark.parametrize("q0", ["12", "14", "16", "33.51"])
    def test_displaced_state_matches_a_fine_state_grid(self, tmp_path, capsys, variant, q0):
        # at the default 128 points the q0 = 14 nc slice read 0.0671 (94% of
        # the peak) where the fine grid reads <= 4e-18
        peak = np.max(np.abs(self.run(tmp_path, capsys, variant, "gaussian:0,0")[3].values))
        code, err, n, field = self.run(tmp_path, capsys, variant, f"gaussian:0,0,{q0},0")
        if code == 4:
            assert len([ln for ln in err.splitlines() if ln.startswith("ncwig: error:")]) == 1
            return
        assert code == 0 and n > 128
        fine = self.run(tmp_path, capsys, variant, f"gaussian:0,0,{q0},0",
                        extra=("--state-grid", "512"))[3]
        assert np.max(np.abs(field.values - fine.values)) <= 1e-8 * peak

    @pytest.mark.parametrize("state, extent", [
        *((s, e) for s in ("gaussian:0,0", "gaussian:1,2") for e in ("1", "2.5", "5", "7.5")),
        # kmax 14, tails 6 + sqrt(11): 2 pi/h = 33.5 on 128 points covers
        # kmax + 2 tails = 32.6
        ("gaussian:5,5", "7")])
    def test_undisplaced_state_keeps_its_grid_and_bytes(self, tmp_path, capsys, state, extent):
        # the window alone sets the grid, as before the state's band was
        # counted: 128 points over [-12, 12), the nc transform of that state
        code, _, n, field = self.run(tmp_path, capsys, "nc", state, extent=extent)
        assert code == 0 and n == 128
        hermite = tuple(int(k) for k in state.split(":")[1].split(","))
        f = gaussian_state_momentum(Grid2D.square(128, 12.0), 1.0, hermite=hermite)
        g = Grid1D.symmetric(16, float(extent))
        ref = wigner_nc(RankOneOperator(f, f), nc_domain(q1nc=g, q2nc=g, p1nc=0.0, p2nc=0.0),
                        make_orbit_label(1.0, -1.0, 1.0))
        assert field.values.tobytes() == ref.values.tobytes()

    def test_high_hermite_marginal_keeps_its_grid_and_bytes(self, tmp_path):
        # kmax 10 over the default int-extent 5, tails 6 + sqrt(25):
        # 2 pi/h = 33.5 on 128 points covers kmax + 2 tails = 32
        out = tmp_path / "m.csv"
        code = main([*MARGINAL, "--state", "gaussian:12,0", "--grid", "8", "--int-grid", "16",
                     "--out", str(out)])
        assert code == 0
        label = make_orbit_label(1.0, -1.0, 1.0)
        f = gaussian_state_momentum(Grid2D.square(128, 12.0), 1.0, hermite=(12, 0))
        q, p = Grid1D.symmetric(16, 5.0), Grid1D.symmetric(8, 5.0)
        w4 = wigner_nc(RankOneOperator(f, f), nc_domain(q1nc=q, q2nc=q, p1nc=p, p2nc=p), label)
        ref = marginal_momentum(w4, label)
        values = read_field_file(str(out)).values  # the real marginal, written as complex
        assert values.tobytes() == ref.values.astype(np.complex128).tobytes()

    def test_band_refinement_is_charged(self, tmp_path, capsys, monkeypatch):
        import ncwigner.core as core
        # q0 = 14 needs 256 points per axis; the budget holds 128
        monkeypatch.setattr(core, "_MAX_BYTES", cli._STATE_POINT_BYTES * 128 ** 2)
        code, err, _, _ = self.run(tmp_path, capsys, "nc", "gaussian:0,0,14,0")
        errors = [ln for ln in err.splitlines() if ln.startswith("ncwig: error:")]
        assert code == 4 and len(errors) == 1
        assert "the state's band need more than 128 state points per axis" in errors[0]


def old_field_rows(grids, values, fmt):
    """The writer's sample rows as the per-sample loop formatted them."""
    x0, x1 = (g.coords() for g in grids)
    v = np.asarray(values, dtype=np.complex128)
    f = cli._fnum
    rows = []
    if fmt == "csv":
        for j1 in range(grids[1].n):
            for j0 in range(grids[0].n):
                z = v[j0, j1]
                rows.append(",".join((f(x0[j0]), f(x1[j1]), f(z.real), f(z.imag))))
    else:
        for j0 in range(grids[0].n):
            for j1 in range(grids[1].n):
                z = v[j0, j1]
                rows.append(" ".join((f(x0[j0]), f(x1[j1]), f(z.real), f(z.imag))))
            rows.append("")
    return rows


class TestFieldFileWriter:
    @pytest.mark.parametrize("fmt", ["csv", "gnuplot"])
    def test_rows_match_per_sample_formatting(self, tmp_path, fmt):
        from ncwigner.core import Grid1D

        grids = (Grid1D(5, -0.5, 0.25), Grid1D(3, -1.0 / 3.0, 0.1))
        rng = np.random.default_rng(3)
        v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        v[0, 0] = complex(-0.0, 5e-324)
        v[2, 1] = complex(1e300, -1e300)
        v[4, 2] = complex(-5e-324, -0.0)
        out = tmp_path / "f.txt"
        cli.write_field_file(str(out), grids, v, {"k": "v"}, fmt=fmt)
        lines = out.read_text().split("\n")
        body = [ln for ln in lines[:-1] if not ln.startswith("#")]
        assert body == old_field_rows(grids, v, fmt)
        assert lines[-1] == ""

    def test_json_matches_json_dump(self, tmp_path):
        import json

        from ncwigner.core import Grid1D

        grids = (Grid1D(128, -0.5, 0.25), Grid1D(64, -1.0 / 3.0, 0.1))
        rng = np.random.default_rng(4)
        v = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
        v[0, 0] = complex(-0.0, 5e-324)
        v[1, 0] = complex(1e-05, 1e300)
        v[0, 1] = complex(1.0, -0.0)
        v[127, 63] = complex(-5e-324, 3.0)
        meta = {"re": "[1.0]", "im": "x", "representation": "momentum"}
        out = tmp_path / "f.json"
        cli.write_field_file(str(out), grids, v, meta, fmt="json")
        doc = {
            "format": "ncwigner-field",
            "version": 1,
            "meta": meta,
            "axes": [{"n": g.n, "origin": g.origin, "step": g.step} for g in grids],
            "layout": "axis0-fastest",
            "re": v.real.ravel(order="F").tolist(),
            "im": v.imag.ravel(order="F").tolist(),
        }
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "gnuplot", "json"])
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                     complex(-np.inf, 1.0)])
    def test_non_finite_values_are_refused(self, tmp_path, fmt, bad):
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        v = np.ones((4, 4), dtype=complex)
        v[2, 1] = bad
        out = tmp_path / "f.txt"
        with pytest.raises(ValueError, match="values must be finite") as exc:
            cli.write_field_file(str(out), (g, g), v, {}, fmt=fmt)
        assert "\n" not in str(exc.value)
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "gnuplot", "json"])
    def test_metadata_that_would_not_read_back_is_refused(self, tmp_path, fmt):
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        out = tmp_path / "f.txt"
        for meta in ({"a:b": "c"}, {"a\nb": "c"}, {"a\rb": "c"}, {"k": "a\nb"},
                     {"k": "a\rb"}):
            with pytest.raises(ValueError, match="would not read back") as exc:
                cli.write_field_file(str(out), (g, g), np.ones((4, 4)), meta, fmt=fmt)
            assert "\n" not in str(exc.value)
            assert not out.exists()
        # a ':' in a value reads back as it was written
        cli.write_field_file(str(out), (g, g), np.ones((4, 4)), {"state": "gaussian:0,0"},
                             fmt=fmt)
        parse = cli._parse_json_field if fmt == "json" else cli._parse_text_field
        assert parse(str(out), out.read_text())[-1]["state"] == "gaussian:0,0"

    @pytest.mark.parametrize("fmt", ["csv", "gnuplot", "json"])
    def test_metadata_with_edge_whitespace_is_refused(self, tmp_path, fmt):
        # the text readers strip each key and value and the json reader
        # keeps them, so such metadata would read back differently
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        out = tmp_path / "f.txt"
        for meta in ({"representation": "momentum "}, {" k": "v"}, {"k\t": "v"},
                     {"k": "\tv"}, {"k": " "}):
            with pytest.raises(ValueError, match="would not read back") as exc:
                cli.write_field_file(str(out), (g, g), np.ones((4, 4)), meta, fmt=fmt)
            assert "\n" not in str(exc.value)
            assert not out.exists()
        # inner whitespace and empty values read back as written
        cli.write_field_file(str(out), (g, g), np.ones((4, 4)), {"k": "a b", "e": ""},
                             fmt=fmt)
        parse = cli._parse_json_field if fmt == "json" else cli._parse_text_field
        meta = parse(str(out), out.read_text())[-1]
        assert (meta["k"], meta["e"]) == ("a b", "")

    def test_csv_round_trip_keeps_signed_zeros_bitwise(self, tmp_path):
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        parts = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.5, -0.0, -5e-324, 0.0])
        v = np.empty((4, 4), dtype=complex)
        v.real = np.resize(parts, (4, 4))
        v.imag = np.resize(parts[::-1], (4, 4))
        out = tmp_path / "f.csv"
        cli.write_field_file(str(out), (g, g), v, {}, fmt="csv")
        assert read_field_file(str(out)).values.tobytes() == v.tobytes()


class TestStarAndMarginalCommands:
    def test_singular_vartheta_exit_3(self, tmp_path, capsys):
        code = main(["star", "vartheta", "--hbar", "1", "--vartheta", "0",
                     "--state", "gaussian:0,0", "--grid", "8", "--extent", "2",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert "singular" in capsys.readouterr().err

    def test_star_b_runs(self, tmp_path):
        assert main(["star", "b", "--k1", "1", "--k2", "-1", "--k3", "1",
                     "--state", "gaussian:0,0", "--grid", "12", "--extent", "2",
                     "--out", str(tmp_path / "sb.csv")]) == 0

    def test_star_hbar_runs(self, tmp_path):
        assert main(["star", "hbar", "--hbar", "2", "--vartheta", "0.5",
                     "--bfield", "0.25", "--state", "gaussian:0,0",
                     "--state-grid", "64", "--state-extent", "8",
                     "--grid", "8", "--extent", "1.5",
                     "--out", str(tmp_path / "sh.csv")]) == 0

    def test_star_4d_uses_grid_as_given(self, tmp_path, capsys):
        out = tmp_path / "sg.csv"
        assert main(["star", "general", "--hbar", "2", "--vartheta", "0.5",
                     "--bfield", "0.25", "--state", "gaussian:0,0",
                     "--state-grid", "64", "--state-extent", "8",
                     "--grid", "24", "--extent", "1.5", "--out", str(out)]) == 0
        assert read_field_file(str(out)).values.shape == (24, 24)
        assert "star-grid" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["hbar", "general"])
    def test_star_4d_default_flags_run(self, tmp_path, kind):
        # the 4D kinds' default extent keeps the 32^4 grid inside the
        # kernels' cell-phase limit
        out = tmp_path / "s.csv"
        assert main(["star", kind, "--out", str(out)]) == 0
        axis = read_field_file(str(out)).grid.axis0
        assert (axis.n, axis.origin) == (32, -2.5)

    def test_star_4d_byte_estimate_before_transform(self, tmp_path, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("wigner_nc_params called before the 4D byte estimate")

        monkeypatch.setattr(cli, "wigner_nc_params", not_reached)
        assert main(["star", "hbar", "--grid", "64", "--out", str(tmp_path / "s.csv")]) == 4
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("ncwig: error:")]
        assert len(errors) == 1 and "need about 1342177280 bytes" in errors[0]

    def test_marginal_momentum(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["marginal", "momentum", "--k1", "1", "--k2", "-1", "--k3", "1",
                     "--state", "gaussian:0,0", "--grid", "16", "--extent", "4",
                     "--int-grid", "48", "--int-extent", "5",
                     "--out", str(out)]) == 0
        vals = load_csv(out).real
        assert vals.min() >= -1e-8 * vals.max()

    def test_marginal_position(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["marginal", "position", "--k1", "1", "--k2", "-1", "--k3", "1",
                     "--state", "gaussian:0,0", "--grid", "16", "--extent", "4",
                     "--int-grid", "48", "--int-extent", "5",
                     "--out", str(out)]) == 0
        f = read_field_file(str(out))
        assert f.values.shape == (16, 16)
        header = out.read_text().splitlines()
        assert "# transform: marginal-position" in header and "# coords: qnc" in header
        vals = f.values.real
        # |psi(q^nc)|^2 of the centred Gaussian peaks at the origin
        assert np.unravel_index(np.argmax(vals), vals.shape) == (8, 8)
        assert vals.min() >= -1e-8 * vals.max()


class TestVerifyAndLimit:
    def test_verify_empty_suite(self, tmp_path, capsys):
        assert main(["verify", "--suite", "", "--out", str(tmp_path / "e.txt")]) == 0
        assert (tmp_path / "e.txt").read_text() == ""

    def test_verify_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        argv = ["verify", "--suite", "group_associativity,uir_properties",
                "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_json_records(self, tmp_path):
        import json

        out = tmp_path / "v.json"
        assert main(["verify", "--suite", "group_associativity,qm_limit",
                     "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [r["name"] for r in doc] == ["group_associativity", "qm_limit"]
        for r in doc:
            assert set(r) == {"name", "metric", "tolerance", "passed", "details"}
            assert r["passed"] is True and r["metric"] <= r["tolerance"]
            assert isinstance(r["details"], dict) and r["details"]

    def test_verify_times_each_suite_once(self, capsys):
        # wigner_symmetries yields three reports; each suite gets one
        # timing line on stderr, covering that suite alone
        argv = ["verify", "--suite", "wigner_symmetries,group_associativity",
                "--seed", "7"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 4
        names = [re.fullmatch(r"\[ncwig\] (\w+): \d+\.\d\ds", ln).group(1)
                 for ln in err.splitlines()]
        assert names == ["wigner_symmetries", "group_associativity"]

    def test_limit_prints_decreasing(self, capsys):
        code = main(["limit", "--k1", "1", "--c", "0.25", "--halvings", "4",
                     "--state", "gaussian:0,0"])
        out = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert code == 0
        dists = [float(x) for x in out]
        assert len(dists) == 5
        assert all(a > b for a, b in zip(dists, dists[1:]))


NC_LABEL = ["--k1", "1", "--k2", "-1", "--k3", "1"]
WIGNER = {
    "nc": ["wigner", "nc", *NC_LABEL, "--slice", "p1nc=0,p2nc=0"],
    "generic": ["wigner", "generic", *NC_LABEL, "--slice", "k3s=0,k4s=0"],
    "tau0": ["wigner", "tau0", "--k1", "1", "--k2", "-1", "--slice", "k3s=0,k4s=0"],
    "qm": ["wigner", "qm", "--k1", "1", "--slice", "k3s=0,k4s=0"],
}
MARGINAL = ["marginal", "momentum", *NC_LABEL]
LABEL_FLAGS = ["--k2", "--k3", "--alpha", "--beta", "--gamma"]
PARAM_FLAGS = ["--hbar", "--vartheta", "--bfield"]
STAR_KINDS = ["vartheta", "b", "hbar", "general"]
# (command, flag) pairs where the command does not read the flag
UNREAD_FLAGS = [
    *((["wigner", "standard", "--slice", "q2=0,p2=0", flag, "1"], flag)
      for flag in ["--k1", *LABEL_FLAGS]),
    *(([*WIGNER[v], flag, "1"], flag)
      for v in WIGNER for flag in ("--planck-h", "--state-extent")),
    ([*MARGINAL, "--state-extent", "1"], "--state-extent"),
    *((["star", kind, "--state-extent", "1"], "--state-extent") for kind in ("vartheta", "b")),
    *((["star", kind, *NC_LABEL, flag, "1"], flag) for kind in STAR_KINDS for flag in PARAM_FLAGS),
    *((["star", kind, flag, "1"], flag) for kind in STAR_KINDS for flag in LABEL_FLAGS),
    # the limit study sets k2 = k3 = c 2^-m itself
    *((["limit", "--k1", "1", flag, "1"], flag) for flag in ("--k2", "--k3")),
]


class TestInputContract:
    """Bad input ends in its exit code (2 for arguments, 4 for grid guards)
    with one 'ncwig: error:' line, not a traceback."""

    def standard(self, tmp_path, state="gaussian:0,0", slice_="q2=0,p2=0"):
        return ["wigner", "standard", "--state", state, "--state-grid", "32",
                "--state-extent", "6", "--grid", "4", "--extent", "1",
                "--slice", slice_, "--out", str(tmp_path / "w.csv")]

    def expect_exit(self, argv, capsys, fragment, code=2):
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        errors = [ln for ln in err if ln.startswith("ncwig: error:")]
        assert len(errors) == 1 and fragment in errors[0]

    def test_missing_state_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        self.expect_exit(self.standard(tmp_path, state=f"file:{missing}"), capsys,
                           "No such file")

    def test_malformed_state_file(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        assert main(self.standard(tmp_path)[:-1] + [str(good)]) == 0
        lines = good.read_text().splitlines()
        lines[-1] = "0.5,0.5,abc,0"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        self.expect_exit(self.standard(tmp_path, state=f"file:{bad}"), capsys,
                           f"line {len(lines)}")

    def test_non_numeric_slice_value(self, tmp_path, capsys):
        self.expect_exit(self.standard(tmp_path, slice_="q1=abc,q2=0"), capsys,
                           "q1='abc'")

    def test_slice_pinning_one_coordinate(self, tmp_path, capsys):
        self.expect_exit(self.standard(tmp_path, slice_="q1=0"), capsys,
                           "two or four coordinates")

    def test_slice_pinning_a_coordinate_twice(self, tmp_path, capsys):
        self.expect_exit(self.standard(tmp_path, slice_="q2=0,q2=1,p2=0"), capsys,
                         "--slice: q2 is pinned twice")

    def test_nc_commands_do_not_materialise_points(self, tmp_path, monkeypatch):
        def no_points(self):
            raise AssertionError("Domain4D.points() called by a command")

        monkeypatch.setattr(Domain4D, "points", no_points)
        assert main(["marginal", "momentum", "--k1", "1", "--k2", "-1", "--k3", "1",
                     "--grid", "4", "--extent", "1", "--int-grid", "8",
                     "--int-extent", "2", "--out", str(tmp_path / "m.csv")]) == 0
        assert main(["wigner", "nc", "--k1", "1", "--k2", "-1", "--k3", "1",
                     "--grid", "4", "--extent", "1", "--slice", "p1nc=0,p2nc=0",
                     "--out", str(tmp_path / "w.csv")]) == 0
        # orbit domains too: the frequency bound and the transform both
        # take the open mesh of the axes
        assert main([*WIGNER["generic"], "--grid", "4", "--extent", "1",
                     "--out", str(tmp_path / "g.csv")]) == 0
        assert main(["star", "general", "--hbar", "2", "--vartheta", "0.5",
                     "--bfield", "0.25", "--state-grid", "64", "--state-extent", "8",
                     "--grid", "8", "--extent", "1.5",
                     "--out", str(tmp_path / "sg.csv")]) == 0

    @pytest.mark.parametrize("variant, label, transform", [
        ("nc", ["--k1", "1", "--k2", "-1", "--k3", "1"], "wigner_nc"),
        ("generic", ["--k1", "1", "--k2", "-1", "--k3", "1"], "wigner_generic"),
        ("standard", [], "cross_wigner_standard"),
    ])
    def test_free_slice_fails_before_state_and_transform(self, tmp_path, capsys,
                                                         monkeypatch, variant, label,
                                                         transform):
        def not_reached(*args, **kwargs):
            raise AssertionError("state or transform built before the --slice check")

        for name in (transform, "_momentum_state_for_output", "_position_state"):
            monkeypatch.setattr(cli, name, not_reached)
        self.expect_exit(["wigner", variant, *label, "--grid", "24", "--extent", "2",
                            "--out", str(tmp_path / "x.csv")], capsys,
                           "pin all but two coordinates")

    @pytest.mark.parametrize("kind, wrong", [("b", "position"), ("vartheta", "momentum")])
    def test_star_2d_state_file_wrong_rep(self, tmp_path, capsys, kind, wrong):
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(8, 2.0)
        path = tmp_path / "s.csv"
        cli.write_field_file(str(path), (g, g), np.ones((8, 8)), {"representation": wrong})
        self.expect_exit(["star", kind, "--hbar", "1", "--bfield", "0.5",
                            "--vartheta", "0.5", "--state", f"file:{path}",
                            "--grid", "8", "--extent", "1",
                            "--out", str(tmp_path / "x.csv")], capsys,
                           "representation")

    def test_grid_too_coarse_exit_4(self, tmp_path, capsys):
        # a 20-wide output slice asks for frequencies beyond a 16^2 state's band
        self.expect_exit(["wigner", "standard", "--state-grid", "16", "--state-extent", "6",
                          "--grid", "8", "--extent", "20", "--slice", "q2=0,p2=0",
                          "--out", str(tmp_path / "w.csv")], capsys, "Nyquist", code=4)

    def test_unknown_suite_exit_2_before_any_suite(self, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("a suite ran before the --suite check")

        monkeypatch.setattr(cli, "iter_verification_suites", not_reached)
        self.expect_exit(["verify", "--suite", "group_associativity,nope"], capsys,
                         "unknown suites ['nope']; available: group_associativity, ")

    @pytest.mark.parametrize("argv, late", [
        (["wigner", "standard", "--grid", "4", "--extent", "1", "--slice", "q2=0,p2=0"],
         ("_position_state", "cross_wigner_standard")),
        (["verify", "--suite", "group_associativity"], ("iter_verification_suites",)),
    ])
    def test_out_without_directory_refused_first(self, tmp_path, capsys, monkeypatch,
                                                 argv, late):
        def not_reached(*args, **kwargs):
            raise AssertionError("work done before the --out check")

        for name in late:
            monkeypatch.setattr(cli, name, not_reached)
        missing = tmp_path / "missing"
        self.expect_exit([*argv, "--out", str(missing / "x.csv")], capsys,
                         f"--out: no directory {str(missing)!r}")

    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch):
        # a directory passes the parent check but cannot be opened for writing
        self.expect_exit(self.standard(tmp_path)[:-1] + [str(tmp_path)], capsys, "--out: ")
        monkeypatch.setattr(cli, "iter_verification_suites", lambda config: iter(()))
        self.expect_exit(["verify", "--out", str(tmp_path)], capsys, "--out: ")

    @pytest.mark.parametrize("argv", [
        ["wigner", "standard", "--slice", "q2=0,p2=0", "--grid", "8", "--extent", "8e307"],
        ["star", "hbar", "--grid", "8", "--extent", "8e307"],
    ])
    def test_overflowing_centre_offsets_exit_4(self, tmp_path, capsys, argv):
        # finite coordinates whose centre offsets overflow in state steps
        self.expect_exit([*argv, "--out", str(tmp_path / "x.csv")], capsys,
                         "centre offsets reach inf state steps", code=4)
        assert not (tmp_path / "x.csv").exists()

    def test_huge_extent_keeps_the_error_line_short(self, tmp_path, capsys):
        assert main(["star", "vartheta", "--hbar", "1", "--vartheta", "1", "--extent", "1e300",
                     "--out", str(tmp_path / "x.csv")]) == 4
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("ncwig: error:")]
        assert len(errors) == 1 and len(errors[0]) < 160
        assert "needs 2.83e+301 state points" in errors[0]

    @pytest.mark.parametrize("fmt", ["csv", "gnuplot"])
    @pytest.mark.parametrize("case, fragment", [
        ("bad row", "line 9: expected four"),
        ("three columns", "line 9: expected four"),
        ("five columns", "line 7: expected four"),
        ("non-finite sample", "line 9: expected four"),
        ("overflowing sample", "line 9: expected four"),
        ("bad axis header", "malformed axis1 header"),
        ("missing axis header", "lacks the axis1 header"),
        ("missing row", "expected 16 rows, got 15"),
        ("header only", "no sample rows"),
    ])
    def test_malformed_text_field_file(self, tmp_path, capsys, fmt, case, fragment):
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        good = tmp_path / "good.txt"
        cli.write_field_file(str(good), (g, g), np.ones((4, 4)), {"representation": "position"},
                             fmt=fmt)
        lines = good.read_text().split("\n")
        assert lines[5].startswith("# columns") and lines[6][0] != "#"   # line 7: first row
        sep = "," if fmt == "csv" else " "
        if case == "bad row":
            lines[8] = sep.join(["0", "0", "abc", "0"])
        elif case == "three columns":
            lines[8] = sep.join(["0", "0", "1"])
        elif case == "five columns":
            lines = [ln if ln.startswith("#") or not ln else ln + sep + "1" for ln in lines]
        elif case == "non-finite sample":
            lines[8] = sep.join(["0", "0", "1", "nan"])
        elif case == "overflowing sample":
            lines[8] = sep.join(["0", "0", "1e999", "0"])
        elif case == "bad axis header":
            lines[3] = "# axis1: n=4 origin=inf step=0.5"
        elif case == "missing axis header":
            del lines[3]
        elif case == "missing row":
            del lines[8]
        else:
            lines = [ln for ln in lines if ln.startswith("#")]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(fragment)) as exc:
                read_field_file(str(bad))
        assert "\n" not in str(exc.value)
        self.expect_exit(self.standard(tmp_path, state=f"file:{bad}"), capsys, fragment)

    def test_swapped_rows_are_refused(self, tmp_path, capsys):
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        v = 4.0 * np.arange(4)[:, None] + np.arange(4)[None, :]   # values[1, 0] = 4
        good = tmp_path / "good.csv"
        cli.write_field_file(str(good), (g, g), v, {"representation": "position"})
        assert read_field_file(str(good)).values[1, 0] == 4
        lines = good.read_text().split("\n")
        assert lines[6:9] == ["-1,-1,0,0", "-0.5,-1,4,0", "0,-1,8,0"]
        lines[7], lines[8] = lines[8], lines[7]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        fragment = "line 8: x0,x1 should be -0.5,-1 in this row"
        with pytest.raises(ValueError, match=re.escape(fragment)) as exc:
            read_field_file(str(bad))
        assert "\n" not in str(exc.value)
        self.expect_exit(self.standard(tmp_path, state=f"file:{bad}"), capsys, fragment)

    @pytest.mark.parametrize("fmt", ["csv", "gnuplot"])
    @pytest.mark.parametrize("axis, shift, ok", [(0, 1e-3, False), (1, -1e-3, False),
                                                 (0, 1e-12, True), (1, -1e-12, True)])
    def test_edited_coordinate(self, tmp_path, fmt, axis, shift, ok):
        # off the header grid by more than 1e-9 of a step is refused; the
        # comment line in between must not shift the reported line number
        from ncwigner.core import Grid1D

        g0, g1 = Grid1D(4, -1.0, 0.5), Grid1D(3, 0.25, 0.75)
        good = tmp_path / "good.txt"
        cli.write_field_file(str(good), (g0, g1), np.ones((4, 3)),
                             {"representation": "position"}, fmt=fmt)
        lines = good.read_text().split("\n")
        sep = "," if fmt == "csv" else " "
        row = lines[10].split(sep)
        row[axis] = repr(float(row[axis]) + shift)
        lines[10] = sep.join(row)
        lines.insert(9, "# a comment")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        if ok:
            assert read_field_file(str(bad)).values.shape == (4, 3)
        else:
            with pytest.raises(ValueError, match="line 12: x0,x1 should be "):
                read_field_file(str(bad))

    def test_gnuplot_layout_header(self, tmp_path):
        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        v = np.arange(16.0).reshape(4, 4)
        headers = {}
        for fmt in ("csv", "gnuplot"):
            out = tmp_path / f"f.{fmt}"
            cli.write_field_file(str(out), (g, g), v, {}, fmt=fmt)
            headers[fmt] = [ln for ln in out.read_text().split("\n")
                            if ln.startswith("# layout:")]
        assert headers == {"csv": ["# layout: axis0-fastest"],
                           "gnuplot": ["# layout: axis1-fastest"]}
        # files from the writer that labelled gnuplot rows axis0-fastest still read
        old = tmp_path / "old.dat"
        old.write_text((tmp_path / "f.gnuplot").read_text().replace(
            "# layout: axis1-fastest", "# layout: axis0-fastest"))
        assert read_field_file(str(old)).values.tobytes() \
            == v.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("case, fragment", [
        ("truncated", "not valid json"),
        ("wrong format tag", "not an ncwigner-field version 1 json document"),
        ("one axis", "not an ncwigner-field version 1 json document"),
        ("float axis length", "malformed axis0 header"),
        ("short re", "expected 16 finite numbers"),
        ("non-finite im", "expected 16 finite numbers"),
        ("string sample", "expected 16 finite numbers"),
    ])
    def test_malformed_json_field_file(self, tmp_path, capsys, case, fragment):
        import json

        from ncwigner.core import Grid1D

        g = Grid1D.symmetric(4, 1.0)
        good = tmp_path / "good.json"
        cli.write_field_file(str(good), (g, g), np.ones((4, 4)), {"representation": "position"},
                             fmt="json")
        doc = json.loads(good.read_text())
        if case == "wrong format tag":
            doc["format"] = "other"
        elif case == "one axis":
            del doc["axes"][1]
        elif case == "float axis length":
            doc["axes"][0]["n"] = 4.0
        elif case == "short re":
            del doc["re"][3]
        elif case == "non-finite im":
            doc["im"][5] = math.inf
        elif case == "string sample":
            doc["re"][5] = "1.0"
        text = good.read_text()[:-20] if case == "truncated" else json.dumps(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(fragment)) as exc:
            read_field_file(str(bad))
        assert "\n" not in str(exc.value)
        self.expect_exit(self.standard(tmp_path, state=f"file:{bad}"), capsys, fragment)

    @pytest.mark.parametrize("argv, flag", [
        *(([*WIGNER[v], "--state-grid", "0"], "--state-grid") for v in WIGNER),
        ([*MARGINAL, "--state-grid", "0"], "--state-grid"),
        ([*WIGNER["nc"], "--state-grid", "-3"], "--state-grid"),
        ([*WIGNER["nc"], "--grid", "1"], "--grid"),
        ([*WIGNER["nc"], "--extent", "0"], "--extent"),
        ([*WIGNER["nc"], "--extent", "-1"], "--extent"),
        ([*WIGNER["nc"], "--state-grid", "1"], "--state-grid"),
        ([*WIGNER["qm"], "--state-extent", "-3"], "--state-extent"),
        ([*MARGINAL, "--int-grid", "1"], "--int-grid"),
        ([*MARGINAL, "--int-extent", "0"], "--int-extent"),
        (["wigner", "standard", "--planck-h", "0"], "--planck-h"),
        # h^2 underflows to 0 or overflows
        (["wigner", "standard", "--planck-h", "1e-320"], "--planck-h"),
        (["wigner", "standard", "--planck-h", "1e200"], "--planck-h"),
        (["limit", "--k1", "1", "--c", "0"], "--c"),
        (["star", "hbar", "--vartheta", "0.5", "--bfield", "0.5", "--extent", "-1"],
         "--extent"),
        (["star", "vartheta", "--vartheta", "0.5", "--grid", "0"], "--grid"),
        (["limit", "--k1", "1", "--halvings", "-1"], "--halvings"),
        *((["limit", "--k1", "1", "--tolerance", v], "--tolerance")
          for v in ("nan", "-1", "0", "inf")),
        (["verify", "--suite", "group_associativity", "--seed", "-1"], "--seed"),
        *(([*WIGNER["nc"], "--state", f"gaussian:{spec}"], "--state")
          for spec in ("a,0", "-1,0", "0,0,x,1", "0,0,nan,0")),
        # the label variants require --k1
        *((["wigner", v], "--k1") for v in WIGNER),
    ])
    def test_bad_numeric_argument_exit_2(self, tmp_path, capsys, argv, flag):
        # argparse refuses a bad flag value with its usage and one error
        # line; --state specs fail in the command with one 'ncwig: error:'
        out = [] if argv[0] == "limit" else ["--out", str(tmp_path / "x.csv")]
        try:
            code = main([*argv, *out])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert code == 2
        assert len(errors) == 1 and flag in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", UNREAD_FLAGS,
                             ids=[" ".join(argv) for argv, _ in UNREAD_FLAGS])
    def test_unread_flag_exit_2_before_any_state(self, tmp_path, capsys, monkeypatch,
                                                 argv, flag):
        # every flag a command takes acts: one it does not read is refused
        def not_reached(*args, **kwargs):
            raise AssertionError("state built before the flag check")

        for name in ("_gaussian", "_state_file", "gaussian_state", "gaussian_state_momentum"):
            monkeypatch.setattr(cli, name, not_reached)
        out = [] if argv[0] == "limit" else ["--out", str(tmp_path / "x.csv")]
        try:
            code = main([*argv, *out])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert code == 2
        assert len(errors) == 1 and flag in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, fragment", [
        ([*WIGNER["nc"], "--grid", "16", "--extent", "400"], "more than 4096 state points"),
        (["star", "vartheta", "--hbar", "1", "--vartheta", "0.05"], "needs 6225 state points"),
    ])
    def test_state_grid_cap_exit_4_before_building(self, tmp_path, capsys, monkeypatch,
                                                   argv, fragment):
        def not_reached(*args, **kwargs):
            raise AssertionError("state built before the state-grid cap check")

        for name in ("gaussian_state", "gaussian_state_momentum"):
            monkeypatch.setattr(cli, name, not_reached)
        self.expect_exit([*argv, "--out", str(tmp_path / "x.csv")], capsys, fragment, code=4)

    @pytest.mark.parametrize("argv, budget, fragment", [
        # the position state: 4 * 16 * 128^2 bytes
        (["wigner", "standard", "--grid", "4", "--extent", "1", "--slice", "q2=0,p2=0"],
         4 * 16 * 128 ** 2 - 1, "built-in states on 128x128 points need about 1048576 bytes"),
        # the momentum state's first doubling, 128 -> 256 points
        ([*WIGNER["nc"], "--grid", "4", "--extent", "10"], 4 * 16 * 128 ** 2,
         "need more than 128 state points per axis; states on 256x256 points need about "
         "4194304 bytes"),
        # the star-2D kernel chirp, charged before it is rounded up
        (["star", "vartheta", "--vartheta", "1", "--grid", "4"], 4 * 16 * 128 ** 2,
         "the kernel chirp needs 312 state points per axis, which need about"),
    ])
    def test_state_byte_budget_exit_4_before_building(self, tmp_path, capsys, monkeypatch,
                                                      argv, budget, fragment):
        import ncwigner.core as core

        def not_reached(*args, **kwargs):
            raise AssertionError("state built before its byte budget check")

        for name in ("gaussian_state", "gaussian_state_momentum"):
            monkeypatch.setattr(cli, name, not_reached)
        monkeypatch.setattr(core, "_MAX_BYTES", budget)
        self.expect_exit([*argv, "--out", str(tmp_path / "x.csv")], capsys, fragment, code=4)

    @pytest.mark.parametrize("spec, fragment", [
        ("171,0", "gaussian:171,0 cannot be evaluated in floating point"),
        ("160,0", "gaussian:160,0 has grid norm 0 on its 128x128 grid"),
        ("100,0", "gaussian:100,0 has grid norm 0.706"),
    ])
    def test_unresolved_builtin_state_exit_4(self, tmp_path, capsys, spec, fragment):
        # the default 128^2 grid of half-extent 10 cannot hold these states
        out = tmp_path / "x.csv"
        self.expect_exit(["wigner", "standard", "--state", f"gaussian:{spec}", "--grid", "4",
                          "--extent", "1", "--slice", "q2=0,p2=0", "--out", str(out)],
                         capsys, fragment, code=4)
        assert not out.exists()

    @pytest.mark.parametrize("argv, fragment", [
        ([*WIGNER["nc"], "--k1", "1e300"], "leaves the float range"),
        ([*WIGNER["qm"], "--k1", "1e300"], "leaves the float range"),
        # (k1 alpha)^2 underflows to 0
        ([*WIGNER["nc"], "--k1", "1e-300"], "leaves the float range"),
        ([*WIGNER["generic"], "--alpha", "1e-300"], "leaves the float range"),
        ([*WIGNER["nc"], "--k2", "1e300", "--k3=-1e300"], "k2 k3 beta gamma overflows"),
        # (k1 alpha)^2 is normal, |k1 alpha|^3 is not
        ([*WIGNER["nc"], "--k1", "1e150"], "the nc prefactor"),
    ])
    def test_out_of_range_label_exit_3(self, tmp_path, capsys, argv, fragment):
        self.expect_exit([*argv, "--grid", "4", "--extent", "1",
                          "--out", str(tmp_path / "x.csv")], capsys, fragment, code=3)

    def test_non_finite_nc_prefactor_writes_nothing(self, tmp_path, capsys, monkeypatch):
        import ncwigner.cli as cli

        def not_written(*args, **kwargs):
            raise AssertionError("write_field_file reached with a non-finite prefactor")

        monkeypatch.setattr(cli, "write_field_file", not_written)
        out = tmp_path / "a.csv"
        self.expect_exit(["wigner", "nc", "--k1", "1e150", "--k2", "-1", "--k3", "1",
                          "--slice", "q2nc=0,p2nc=0", "--grid", "8", "--out", str(out)],
                         capsys, "the nc prefactor", code=3)
        assert not out.exists()

    def test_star_4d_memory_guard_exit_4(self, tmp_path, capsys, monkeypatch):
        import ncwigner.core as core

        monkeypatch.setattr(core, "_MAX_BYTES", 5 * 16 * 8 ** 4 - 1)
        self.expect_exit(["star", "hbar", "--hbar", "2", "--vartheta", "0.5",
                          "--bfield", "0.25", "--state-grid", "64", "--state-extent", "8",
                          "--grid", "8", "--extent", "1.5", "--out", str(tmp_path / "s.csv")],
                         capsys, "need about 327680 bytes", code=4)

    def test_field_file_without_magic_line(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        assert main(self.standard(tmp_path)[:-1] + [str(good)]) == 0
        assert read_field_file(str(good)).values.shape == (4, 4)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(good.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(ValueError, match="ncwigner-field 1"):
            read_field_file(str(bad))
        self.expect_exit(self.standard(tmp_path, state=f"file:{bad}"), capsys,
                           "first line")


def readme_commands():
    """The ncwig commands of README's CLI block, continuation lines joined."""
    import pathlib

    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [ln.split()[1:] for ln in lines if ln.startswith("ncwig ")]


@pytest.mark.parametrize("argv", [argv for argv in readme_commands()
                                  if argv[:3] != ["verify", "--suite", "all"]],
                         ids=lambda argv: " ".join(argv[:2]))
def test_readme_examples_run(tmp_path, capsys, argv):
    # every documented run passes the byte budget and the state norm guard
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv = [*argv[:i], str(tmp_path / argv[i]), *argv[i + 1:]]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err


# Each state-building command at --state-grid 256 with small outputs, and
# its measured tracemalloc peak over the state charge
# cli._STATE_POINT_BYTES n^2 (n = 312 for star vartheta|b, whose chirp guard
# refines the grid), or None where the peak is within the charge.  Each case
# above its charge is a strict xfail quoting its ratio; the charge stays
# where it is until the per-command copies are cut.
_LABEL = ["--k1", "1", "--k2", "-1", "--k3", "1"]
_STATE = ["--state", "gaussian:0,0", "--state-grid", "256"]
_STATE_COMMANDS = [
    (2.041, ["wigner", "generic", *_LABEL, *_STATE, "--grid", "8", "--extent", "1",
             "--slice", "k3s=0,k4s=0"]),
    (None, ["wigner", "nc", *_LABEL, *_STATE, "--grid", "8", "--extent", "1",
            "--slice", "p1nc=0,p2nc=0"]),
    (None, ["wigner", "tau0", "--k1", "1", "--k2", "-1", *_STATE, "--grid", "8",
            "--extent", "1", "--slice", "k3s=0,k4s=0"]),
    (None, ["wigner", "qm", "--k1", "1", *_STATE, "--grid", "8", "--extent", "1",
            "--slice", "k3s=0,k4s=0"]),
    (None, ["wigner", "standard", *_STATE, "--state-extent", "8", "--grid", "8",
            "--extent", "1", "--slice", "q2=0,p2=0"]),
    (3.291, ["marginal", "momentum", *_LABEL, *_STATE, "--grid", "4", "--extent", "1",
             "--int-grid", "4", "--int-extent", "1"]),
    (1.904, ["star", "vartheta", "--vartheta", "1", *_STATE, "--grid", "8"]),
    (2.404, ["star", "b", "--bfield", "1", *_STATE, "--grid", "8"]),
    (1.810, ["star", "hbar", *_STATE, "--state-extent", "8", "--grid", "8", "--extent", "1"]),
    (1.843, ["star", "general", *_STATE, "--state-extent", "8", "--grid", "8",
             "--extent", "1"]),
]


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv[:2]), marks=() if ratio is None else pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"peak is {ratio}x the state charge"))
    for ratio, argv in _STATE_COMMANDS])
def test_state_command_peak_within_state_charge(tmp_path, monkeypatch, argv):
    sizes = []
    build = cli._gaussian

    def spy(state, rep, n, extent, scale):
        sizes.append(n)
        return build(state, rep, n, extent, scale)

    argv = argv + ["--out", str(tmp_path / "out.csv")]
    # an untraced first run takes the one-time imports (about 0.7 MB, 0.16x
    # the charge of wigner nc) out of the peak, whatever ran before
    assert main(argv) == 0
    monkeypatch.setattr(cli, "_gaussian", spy)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    (n,) = sizes
    charge = cli._STATE_POINT_BYTES * n * n
    assert peak <= charge, f"peak {peak} bytes is {peak / charge:.3f}x the charge {charge}"
