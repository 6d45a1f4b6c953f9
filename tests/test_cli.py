"""CLI tests: command behavior, CSV contract, determinism, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetalab
from zetalab import cli
from zetalab import moments as mo
from zetalab import predictions as pred
from zetalab import zero_catalog as zc
from zetalab.cli import cmd_dispatch


def run_cli(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZETALAB_CACHE", str(tmp_path / "cache"))
    code = cmd_dispatch(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestZerosCommand:
    def test_compute_and_report(self, tmp_path, monkeypatch, capsys):
        out_file = tmp_path / "zeros.txt"
        code, out, _ = run_cli(
            ["zeros", "--tmax", "100", "--out", str(out_file)],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        assert out.startswith("29 zeros, RvM expected 29.00, PASS")
        assert out_file.exists()

    def test_import_round_trip(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "in.txt"
        src.write_text("14.134725141734\n21.022039638771\n25.010857580146\n"
                       "30.424876125860\n32.935061587739\n37.586178158826\n"
                       "40.918719012148\n43.327073280915\n48.005150881167\n"
                       "49.773832477672\n")
        out_file = tmp_path / "out.txt"
        code, out, _ = run_cli(
            ["zeros", "--import", str(src), "--out", str(out_file)],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "10 zeros" in out

    def test_import_without_out_leaves_cache_empty(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "in.txt"
        src.write_text("14.134725141734\n21.022039638771\n25.010857580146\n")
        code, out, _ = run_cli(["zeros", "--import", str(src)],
                               tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "3 zeros" in out
        assert not list((tmp_path / "cache").glob("zeros-tmax-*.txt"))

    def test_compute_exports_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        export = zc.export_zeros

        def counted(table, path):
            calls.append(path)
            export(table, path)

        monkeypatch.setattr(zc, "export_zeros", counted)
        code, _, _ = run_cli(["zeros", "--tmax", "100"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert len(calls) == 1

    def test_bad_import_is_domain_exit(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("21.0\n14.1\n")
        code, _, err = run_cli(["zeros", "--import", str(src)],
                               tmp_path, monkeypatch, capsys)
        assert code == 1
        assert "error:" in err


class TestUsage:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(["zeros"])  # neither --tmax nor --import
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_a_handler_replaced_after_the_first_dispatch_runs(self, tmp_path, monkeypatch):
        """The parser is built once per process; dispatch looks cmd_<command> up
        on every call, so a wrapped or patched handler is the one that runs."""
        argv = ["predict", "--k", "0", "--a", "1", "--out", str(tmp_path / "p.csv")]
        assert cmd_dispatch(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args) or 7)
        assert cmd_dispatch(["report", "--tmax", "51.5", "--k", "0", "--a", "1",
                             "--out-dir", str(tmp_path / "r")]) == 7
        assert [args.command for args in seen] == ["report"]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["predict", "--k", "1", "--a", "1", "--threads", "2"],
        ["identity", "--kmax", "1", "--cache", "d"],
        ["report", "--tmax", "100", "--k", "0", "--a", "1", "--out-dir", "r", "--out", "f"],
    ])
    def test_options_the_command_does_not_read_exit_2(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(argv)
        assert exc.value.code == 2

    def test_unwritable_out_is_domain_exit(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "nodir" / "x.csv"
        code, out, err = run_cli(["predict", "--k", "1", "--a", "1", "--out", str(target)],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith(f"error: cannot write {target}")
        assert out == ""

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "x.csv"
        target.write_text("previous\n")
        make_writer = csv.writer

        def failing_writer(out, **kwargs):
            writer = make_writer(out, **kwargs)

            class Failing:
                writerow = writer.writerow

                def writerows(self, rows):
                    raise OSError("simulated failure after the header")

            return Failing()

        monkeypatch.setattr(csv, "writer", failing_writer)
        code, out, err = run_cli(["predict", "--k", "1", "--a", "1", "--out", str(target)],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith(f"error: cannot write {target}")
        assert target.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_out_dir_on_a_file_is_domain_exit(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(["report", "--tmax", "100", "--k", "0", "--a", "1",
                                "--out-dir", str(blocker / "r")],
                               tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: cannot create")
        code, _, err = run_cli(["zeros", "--tmax", "100", "--out", str(blocker / "z.txt")],
                               tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: cannot create")

    def test_cache_below_a_file_fails_before_the_scan(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        calls = []
        monkeypatch.setattr(zc, "find_zeros", lambda *a, **kw: calls.append(a))
        code, out, err = run_cli(["ftable", "--tmax", "100", "--cache", str(blocker / "c")],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: cannot create")
        assert out == "" and calls == []

    @pytest.mark.parametrize("argv", [["zeros", "--tmax", "7000"], ["ftable", "--tmax", "10"]])
    def test_height_outside_range_creates_no_cache(self, argv, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "d" / "c"
        code, out, err = run_cli(argv + ["--cache", str(cache)], tmp_path, monkeypatch, capsys)
        assert code == 1
        assert "outside [20, 6000]" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_console_entry_point(self):
        src = Path(zetalab.__file__).parents[1]  # importable in the child without an install
        proc = subprocess.run([sys.executable, "-m", "zetalab.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0
        assert "zetalab" in proc.stdout


NO_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not a runtime dependency")

sys.meta_path.insert(0, RefuseScipy())
import zetalab
from zetalab.cli import cmd_dispatch

codes = [cmd_dispatch(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "concurrent": sorted(m for m in sys.modules if m.startswith("concurrent"))}))
"""


def test_runtime_loads_no_scipy(tmp_path):
    """``import zetalab`` and the commands run with every scipy import refused,
    and with ``--threads 2`` they start no worker pool: the zero scan is serial."""
    src = Path(zetalab.__file__).parents[1]
    cache = str(tmp_path / "cache")
    argvs = [["report", "--tmax", "51.5", "--k", "0,1,2", "--a", "0.5", "--cache", cache,
              "--threads", "2", "--out-dir", str(tmp_path / "report")],
             ["zeros", "--tmax", "100", "--cache", cache, "--threads", "2"],
             ["ftable", "--tmax", "100", "--cache", cache, "--threads", "2",
              "--out", str(tmp_path / "f.csv")]]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": [], "concurrent": []}


def test_cli_reads_no_private_name_of_another_module():
    """``alias._name`` on an imported zetalab module couples the CLI to that
    module's internals; every helper it calls has a public name."""
    import ast
    import zetalab.cli

    tree = ast.parse(Path(zetalab.cli.__file__).read_text())
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or (node.module or "").startswith("zetalab"))
               for a in node.names}
    private = sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in aliases and node.attr.startswith("_"))
    assert {"mo", "pc", "pred", "zc"} <= aliases
    assert private == []


class TestPredictCommand:
    def test_value_and_csv_shape(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(["predict", "--k", "0", "--a", "1"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,a,coefficient_c,coefficient_d"
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx((1 - math.exp(-2.0)) / 4.0, rel=1e-12)

    def test_order_above_limit_is_domain_exit(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["predict", "--k", "9", "--a", "1"],
                               tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: k=9")

    def test_nan_a_is_named_in_the_refusal(self, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(["predict", "--k", "1", "--a", "nan"],
                                 tmp_path, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err == "error: a=nan must be positive and finite\n"


@pytest.mark.parametrize("argv, name, value", [
    (["predict", "--k", "1", "--a", "1e-160"], "a", 1e-160),
    (["predict", "--k", "1", "--a", "1e200"], "a", 1e200),
    (["tauberian", "--tmax", "100", "--k", "1", "--b", "1e-200"], "b", 1e-200),
    (["tauberian", "--tmax", "100", "--k", "1", "--b", "1e300"], "b", 1e300),
])
def test_powers_past_the_float_range_exit_1_without_a_traceback(tmp_path, argv, name, value):
    """An a or b whose powers overflow or underflow is named on one error line."""
    src = Path(zetalab.__file__).parents[1]
    cache = tmp_path / "cache"
    proc = subprocess.run([sys.executable, "-m", "zetalab.cli", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src),
                               "ZETALAB_CACHE": str(cache)})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: {name}={value} is out of range: "
                           "its powers leave the float range\n")


class TestIdentityCommand:
    def test_rows_and_threshold(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(["identity", "--kmax", "2"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 15  # 3 k-values x 5 a-values
        assert all(float(r["gr_residual"]) < 1e-8 for r in rows)

    def test_order_above_limit_is_domain_exit(self, tmp_path, monkeypatch, capsys):
        calls = []
        residual = pred.gr_identity_residual

        def counted(k, a):
            calls.append((k, a))
            return residual(k, a)

        monkeypatch.setattr(pred, "gr_identity_residual", counted)
        code, out, err = run_cli(["identity", "--kmax", "9"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: k=9")
        assert out == ""
        assert calls == []  # refused before the first quadrature

    @pytest.mark.parametrize("argv", [
        ["identity", "--kmax", "-1"],
        ["zeros", "--tmax", "100", "--threads", "0"],
        ["zeros", "--tmax", "100", "--threads", "-3"],
    ], ids=["kmax-1", "threads0", "threads-3"])
    def test_negative_kmax_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ZETALAB_CACHE", str(tmp_path / "cache"))
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(argv)
        assert exc.value.code == 2
        assert f"{argv[-2]}: must be at least" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


class TestFtableCommand:
    def test_csv_output(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["ftable", "--tmax", "100", "--alpha-max", "1", "--step", "0.5"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["alpha"] for r in rows] == ["0", "0.5", "1"]
        assert all(float(r["f_value"]) >= -1e-9 for r in rows)

    @pytest.mark.parametrize("option", ["--step", "--alpha-max"])
    def test_nan_grid_option_is_domain_exit(self, option, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(["ftable", "--tmax", "60", option, "nan"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""


class TestMomentsCommand:
    def test_all_methods_csv(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["moments", "--k", "1", "--a", "1", "--tmax", "200",
             "--method", "all"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        row = rows[0]
        for col in ("i_quadrature", "i_zero_pairs", "i_from_f",
                    "zeros_over_quad", "fromf_over_quad",
                    "coefficient_prediction"):
            assert col in row
        assert float(row["i_quadrature"]) > 0

    @pytest.mark.parametrize("method, column", [
        ("zeros", "i_zero_pairs"), ("quad", "i_quadrature"), ("fromF", "i_from_f")])
    def test_single_method(self, method, column, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["moments", "--k", "0,1", "--a", "0.5", "--tmax", "200",
             "--method", method],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        header, *rows = list(csv.reader(out.splitlines()))
        assert header == ["k", "a", "t", column, column + "_err", "coefficient_prediction"]
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("k, a", [(",", "1"), ("0", ",")])
    def test_empty_list_is_usage_error(self, k, a, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(["moments", "--k", k, "--a", a, "--tmax", "100",
                          "--method", "quad"])
        assert exc.value.code == 2

    def test_quad_reads_no_zero_table(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "quad-cache"
        code, _, _ = run_cli(
            ["moments", "--k", "0", "--a", "1", "--tmax", "200",
             "--method", "quad", "--cache", str(cache)],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        assert not cache.exists()


class TestTauberianCommand:
    def test_report_rows(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["tauberian", "--tmax", "200", "--k", "1", "--b", "2"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        rows = {r["quantity"]: float(r["value"])
                for r in csv.DictReader(out.splitlines())}
        assert {"lhs_A", "rhs_A", "lhs_over_rhs", "mass_sup"} <= set(rows)
        assert rows["rhs_A"] > 0
        assert "window_avg_0_1" in rows

    @pytest.mark.parametrize("b", ["0", "-1", "nan", "inf"])
    def test_bad_b_is_named_and_refused_before_the_scan(self, tmp_path, monkeypatch,
                                                        capsys, b):
        code, out, err = run_cli(["tauberian", "--tmax", "60", "--k", "1", "--b", b],
                                 tmp_path, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: b={float(b)} must be positive and finite\n"
        assert not (tmp_path / "cache").exists()


class TestDiscreteCommand:
    def test_csv_columns(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["discrete", "--k", "0", "--a", "1", "--tmax", "200"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        assert float(rows[0]["i_over_two_pi_d"]) > 0

    def test_twice_a_outside_envelope_fails_before_the_scan(self, tmp_path, monkeypatch,
                                                           capsys):
        code, out, err = run_cli(
            ["discrete", "--k", "0", "--a", "3", "--tmax", "200"],
            tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: a=3.0:")
        assert out == ""
        assert not (tmp_path / "cache").exists()

    def test_d_within_its_error_is_domain_exit(self, tmp_path, monkeypatch, capsys):
        def vanishing(ks, a, t, zeros, engine):
            return [mo.MomentEstimate("D_discrete", k, a, t, 0.5, 1.0) for k in ks]

        monkeypatch.setattr(mo, "d_k_batch", vanishing)
        code, out, err = run_cli(
            ["discrete", "--k", "0", "--a", "1", "--tmax", "200"],
            tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("error: 2 pi D_k")
        assert out == ""


class TestReportCommand:
    def test_files_and_determinism(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "report"
        args = ["report", "--tmax", "200", "--k", "0,1", "--a", "0.5,1",
                "--out-dir", str(out_dir), "--alpha-max", "6", "--step", "0.1"]
        code, _, _ = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 0
        names = ("ftable.csv", "moments.csv", "discrete.csv", "identity.csv")
        first = {n: (out_dir / n).read_bytes() for n in names}
        assert all(first[n] for n in names)
        code, _, _ = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 0
        second = {n: (out_dir / n).read_bytes() for n in names}
        assert first == second  # byte-identical rerun with the same cache

    def test_one_quadrature_sweep_per_a(self, tmp_path, monkeypatch, capsys):
        calls = []
        sweep = mo.i_k_quadrature_batch

        def counted(ks, a, t, engine):
            calls.append(a)
            return sweep(ks, a, t, engine)

        monkeypatch.setattr(mo, "i_k_quadrature_batch", counted)
        code, _, _ = run_cli(
            ["report", "--tmax", "200", "--k", "0,1", "--a", "0.5,1",
             "--out-dir", str(tmp_path / "r"), "--step", "0.1"],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        assert calls == [0.5, 1.0]

    @pytest.mark.parametrize("k,a,message", [("5", "1", "error: k=5"),
                                             ("0", "3", "error: a=3.0:")])
    def test_cell_outside_envelope_writes_nothing(self, k, a, message, tmp_path,
                                                  monkeypatch, capsys):
        """Every (k, a), and 2a for the discrete table, is checked before any work."""
        out_dir = tmp_path / "r"
        code, _, err = run_cli(
            ["report", "--tmax", "100", "--k", k, "--a", a, "--out-dir", str(out_dir)],
            tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith(message)
        assert not out_dir.exists()
        assert not (tmp_path / "cache").exists()

    def test_out_of_envelope_exits_1(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(
            ["report", "--tmax", "7000", "--k", "0", "--a", "1",
             "--out-dir", str(tmp_path / "r")],
            tmp_path, monkeypatch, capsys)
        assert code == 1
        assert "error:" in err
