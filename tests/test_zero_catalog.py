"""Zero table tests: census, reference ordinates, file format, cache."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import zero_catalog as zc
from zetalab.cli import cmd_dispatch
from zetalab.errors import (CoverageError, DomainError, IoError, MissedZeroError,
                            OrderError, ParseError, RangeError)
from zetalab.zero_catalog import (ZeroTable, export_zeros, find_zeros,
                                  import_zeros, load_or_find, verify_counts)
from zetalab.zeta_engine import (STRICT, ZetaEngine, _main_sum_length,
                                 riemann_siegel_theta_array)

# first ten ordinates, published values (good to ~1e-12 here)
REFERENCE_ZEROS = [
    14.134725141735, 21.022039638772, 25.010857580146, 30.424876125860,
    32.935061587739, 37.586178158826, 40.918719012148, 43.327073280915,
    48.005150881167, 49.773832477672,
]


@pytest.fixture(scope="module")
def table100(engine):
    return find_zeros(100.0, engine=engine)


class TestFindZeros:
    def test_census_to_100(self, table100):
        assert len(table100) == 29
        assert 14.134 <= table100.ordinates[0] <= 14.135

    def test_matches_reference_ordinates(self, table100):
        diffs = np.abs(table100.ordinates[:10] - np.array(REFERENCE_ZEROS))
        assert np.max(diffs) < 1e-6

    def test_ten_zeros_below_50(self, engine):
        tab = find_zeros(50.0, engine=engine)
        assert len(tab) == 10
        # bisection oracle on the bracketing interval [14, 15]
        lo, hi = 14.0, 15.0
        flo = engine.hardy_z(lo)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            fm = engine.hardy_z(mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        assert abs(tab.ordinates[0] - 0.5 * (lo + hi)) < 1e-8

    def test_exactly_two_sign_changes_below_25(self, engine):
        tab = find_zeros(25.0, engine=engine)
        assert len(tab) == 2
        ts = np.arange(12.0, 25.0, 0.01)
        z = engine.hardy_z_points(ts)
        flips = int(np.sum(np.sign(z[:-1]) * np.sign(z[1:]) < 0))
        assert flips == 2

    def test_tmax_domain(self):
        with pytest.raises(DomainError):
            find_zeros(10.0)

    def test_first_failed_census_raises(self, engine, monkeypatch):
        from zetalab.errors import MissedZeroError
        censuses = []

        def always_fail(table):
            censuses.append(len(table))
            return zc.CountReport(expected=99.0, actual=len(table), passed=False)

        monkeypatch.setattr(zc, "verify_counts", always_fail)
        with pytest.raises(MissedZeroError):
            zc.find_zeros(30.0, engine=engine)
        assert censuses == [3]  # one scan, no rescan

    def test_spacing_statistics_at_1000(self, zero_source):
        tab = zero_source.table(1000.0)
        gaps = np.diff(tab.ordinates)
        assert np.min(gaps) > 0
        window = tab.ordinates[tab.ordinates > 500.0]
        mean_gap = float(np.mean(np.diff(window)))
        model = 2 * math.pi / math.log(1000.0 / (2 * math.pi))
        assert abs(mean_gap - model) / model < 0.15


class TestRefinement:
    """The contract of the bracket refinement behind `find_zeros`."""

    def test_every_ordinate_sits_in_a_sign_change(self, engine, zero_source):
        r = zero_source.table(1000.0).ordinates
        half = 0.5 * zc.ROOT_TOL
        z_left = engine.hardy_z_points(r - half)
        z_right = engine.hardy_z_points(r + half)
        assert np.all(np.sign(z_left) * np.sign(z_right) < 0)

    @pytest.mark.parametrize("t_max, zeros", [(200.0, 79), (1000.0, 649)])
    def test_one_jet_call_and_fixed_rounds(self, t_max, zeros, monkeypatch):
        engine = ZetaEngine()
        brackets = zc._scan_sign_changes(engine, t_max)[0].size
        jets, rounds = [], []
        derivs, horner = engine._zeta_derivs, zc.horner

        def counted_derivs(s, jmax, step=None):
            if step is None:
                jets.append((np.size(s), jmax))
            return derivs(s, jmax, step)

        def counted_round(coeffs, h):
            rounds.append(np.size(h))
            return horner(coeffs, h)

        monkeypatch.setattr(engine, "_zeta_derivs", counted_derivs)
        monkeypatch.setattr(zc, "horner", counted_round)
        tab = find_zeros(t_max, engine=engine)
        assert len(tab) == zeros
        # zeta is summed at arbitrary heights once: the jets of all brackets
        assert jets == [(brackets, zc.JET)]
        # every bisection round evaluates each bracket once: 0.05 -> 7.45e-10
        assert len(rounds) == math.ceil(math.log2(zc.SCAN_STEP / zc.ROOT_TOL)) == 26
        assert rounds == [brackets] * 26

    @pytest.mark.parametrize("t_max", [100.0, 1000.0, 6000.0])
    def test_jet_agrees_with_hardy_z(self, t_max, engine):
        """The real jet is Z(x) cos(theta(x) - theta(c)) within the jet's own bound.

        The bound is sum_j err_j |h|^j / j! over the jet's entry errors, plus
        the Taylor remainder, plus the direct sum's own error; the rotation
        by e^{i theta(c)} has modulus 1.  In the remainder each main-sum
        term n^{-s_c} e^{-ih ln n} loses at most n^{-1/2} (|h| ln n)^{J+1}/(J+1)!;
        the smooth part, below sqrt(N) in size, is allowed
        2 sqrt(N) (|h| (ln N + 1))^{J+1}/(J+1)!, the + 1 covering the
        derivatives of its 1/(s - 1) factor.
        """
        lo = zc._scan_sign_changes(engine, t_max)[0]
        rng = np.random.default_rng(20240917)
        pick = rng.choice(lo.size, size=min(lo.size, 200), replace=False)
        centres = lo[pick] + 0.5 * zc.SCAN_STEP
        x = lo[pick] + zc.SCAN_STEP * rng.random(pick.size)
        got = zc.horner(engine.hardy_z_jets(centres, zc.JET).T, x - centres)
        ref = engine.hardy_z_points(x) * np.cos(
            riemann_siegel_theta_array(x) - riemann_siegel_theta_array(centres))

        _, err = engine._zeta_derivs(0.5 + 1j * centres, zc.JET)
        _, ref_err = engine.zeta_derivs_points(0.5, x, 0)
        h = np.abs(x - centres)
        order = zc.JET + 1
        powers = h[:, None] ** np.arange(order) / [math.factorial(j) for j in range(order)]
        n_len = _main_sum_length(float(np.max(x)), STRICT)
        logs = np.log(np.arange(1.0, n_len))
        majorant = (np.sum(logs ** order / np.sqrt(np.arange(1.0, n_len)))
                    + 2.0 * math.sqrt(n_len) * (math.log(n_len) + 1.0) ** order)
        remainder = h ** order / math.factorial(order) * majorant
        bound = np.sum(err * powers, axis=1) + remainder + ref_err[:, 0]
        assert np.all(np.abs(got - ref) <= bound)

    def test_rotation_keeps_the_sign_of_z(self, engine):
        """Over half of every scan bracket up to T = 6000, |theta(x) - theta(c)|
        stays below pi/2, so cos(theta(x) - theta(c)) > 0 and the real jet has
        the sign of Z.  Measured maximum: 0.0858, at the top bracket.

        Above 2 pi, theta is increasing, so the largest departure from
        theta(c) on [c - h, c + h] is at one of the two ends.
        """
        lo = zc._scan_sign_changes(engine, 6000.0)[0]
        assert lo[0] > 2 * math.pi
        half = 0.5 * zc.SCAN_STEP
        theta_c = riemann_siegel_theta_array(lo + half)
        worst = max(np.max(theta_c - riemann_siegel_theta_array(lo)),
                    np.max(riemann_siegel_theta_array(lo + zc.SCAN_STEP) - theta_c))
        assert worst < 0.5 * math.pi


class TestMpmathOracle:
    """Ordinates and Hardy Z above t = 120 against mpmath."""

    @pytest.mark.parametrize("n", [30, 120, 300, 500, 649])
    def test_zetazero(self, n, zero_source):
        mpmath = pytest.importorskip("mpmath")
        got = zero_source.table(1000.0).ordinates[n - 1]
        with mpmath.workdps(25):
            ref = float(mpmath.zetazero(n).imag)
        assert abs(got - ref) <= zc.ROOT_TOL

    @pytest.mark.parametrize("t", [130.5, 777.7, 1500.25, 3210.9, 4999.1, 5999.3])
    def test_hardy_z_against_siegelz(self, t, engine):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(25):
            ref = float(mpmath.siegelz(t))
        assert abs(engine.hardy_z(t) - ref) <= 1e-10


class TestVerifyCounts:
    def test_census_report_at_100(self, table100):
        rep = verify_counts(table100)
        assert rep.actual == 29
        assert rep.passed
        # formula value: (T/2pi) log(T/(2 pi e)) + 7/8
        assert rep.expected == pytest.approx(29.0023, abs=1e-3)

    def test_gross_mismatch_fails(self):
        stub = ZeroTable(np.array([14.13]), 100.0)
        assert not verify_counts(stub).passed

    @pytest.mark.parametrize("t", [3210.3524, 2448.9883])
    def test_tightest_heights_below_6000(self, t, zero_source):
        """The census's smallest margins up to 6000, just below a zero.

        There |N - RvM| reaches 0.65 of the tolerance, the most anywhere in
        [20, 6000]; the one scan at SCAN_STEP must pass here.
        """
        tab = zero_source.table(5000.0)
        head = tab.up_to(t)
        assert verify_counts(head).passed
        assert 0.0 < tab.ordinates[len(head)] - t < 1e-4   # the next zero

    def test_formula_tracks_census_at_1000(self, zero_source):
        tab = zero_source.table(1000.0)
        rep = verify_counts(tab)
        assert abs(rep.actual - rep.expected) <= 2.0

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            verify_counts(ZeroTable(np.array([]), 0.0))


class TestZeroTableType:
    def test_three_fields(self):
        from dataclasses import fields
        assert [f.name for f in fields(ZeroTable)] == ["ordinates", "t_max", "source"]

    def test_equality_and_hash_by_identity(self):
        """Comparing the ndarray field raised ValueError, hashing it TypeError."""
        table = ZeroTable(np.array([14.1, 21.0]), 30.0)
        twin = ZeroTable(np.array([14.1, 21.0]), 30.0)
        assert table == table and table != twin
        assert hash(table) == hash(table)
        assert len({table, twin}) == 2

    def test_rejects_decreasing(self):
        with pytest.raises(OrderError):
            ZeroTable(np.array([21.0, 14.1]), 30.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(RangeError):
            ZeroTable(np.array([-3.0, 14.1]), 30.0)

    @pytest.mark.parametrize("ordinates", [[14.1, math.nan], [math.nan, 14.1], [math.nan]])
    def test_rejects_nan_ordinate(self, ordinates):
        """A NaN ordinate passed every check, and f_alpha dropped it silently."""
        with pytest.raises(RangeError):
            ZeroTable(np.array(ordinates), 100.0)

    def test_rejects_beyond_tmax(self):
        with pytest.raises(RangeError):
            ZeroTable(np.array([14.1, 21.0]), 20.0)

    def test_rejects_nonfinite_tmax(self):
        for t_max in (math.nan, math.inf):
            with pytest.raises(RangeError):
                ZeroTable(np.array([1.0]), t_max)

    def test_nan_height_not_covered(self, table100):
        with pytest.raises(CoverageError):
            table100.require_coverage(math.nan)
        with pytest.raises(CoverageError):
            table100.up_to(math.nan)

    def test_truncation(self, table100):
        sub = table100.up_to(30.0)
        assert len(sub) == 3 and sub.t_max == 30.0
        with pytest.raises(CoverageError):
            table100.up_to(101.0)


class TestZerosFile:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("14.134725141734\n21.022039638771\n")
        tab = import_zeros(path)
        assert len(tab) == 2
        assert tab.t_max == 21.022039638771
        assert tab.source == "imported"

    def test_comments_and_metadata(self, tmp_path):
        """Unknown keys, such as the precision line of older files, are ignored."""
        path = tmp_path / "z.txt"
        path.write_text("# comment\n# precision=1e-7\n# origin=odlyzko\n14.13\n")
        tab = import_zeros(path)
        assert len(tab) == 1 and tab.t_max == 14.13

    def test_order_error_carries_line(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("21.0\n14.1\n")
        with pytest.raises(OrderError) as err:
            import_zeros(path)
        assert err.value.line_no == 2

    def test_bytes_that_are_not_text_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_bytes(b"\xff14.134725141734\n")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            import_zeros(path)
        assert cmd_dispatch(["zeros", "--import", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text")

    def test_nonpositive_is_range_error(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("-1.5\n")
        with pytest.raises(RangeError):
            import_zeros(path)

    def test_nan_tmax_header_is_range_error(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("# t_max=nan\n14.1\n")
        with pytest.raises(RangeError):
            import_zeros(path)

    def test_malformed_is_parse_error(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("14.1\nbogus\n")
        with pytest.raises(ParseError) as err:
            import_zeros(path)
        assert err.value.line_no == 2

    def test_round_trip_exact(self, tmp_path, engine):
        tab = find_zeros(50.0, engine=engine)
        path = tmp_path / "fifty.txt"
        export_zeros(tab, path)
        back = import_zeros(path)
        assert [f"{g:.12f}" for g in back.ordinates] \
            == [f"{g:.12f}" for g in tab.ordinates]
        export_zeros(back, tmp_path / "again.txt")

        def data_lines(p):
            return [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]

        assert data_lines(tmp_path / "again.txt") == data_lines(path)

    def test_export_empty_is_header_only(self, tmp_path):
        path = tmp_path / "empty.txt"
        export_zeros(ZeroTable(np.array([]), 0.0), path)
        lines = path.read_text().splitlines()
        assert lines and all(line.startswith("#") for line in lines)

    def test_export_unwritable_path(self, tmp_path, table100):
        from zetalab.errors import IoError
        with pytest.raises(IoError):
            export_zeros(table100, tmp_path / "no" / "such" / "dir" / "z.txt")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.001, 5000.0), min_size=1, max_size=40, unique=True))
    def test_round_trip_property(self, ords):
        import tempfile
        from pathlib import Path

        ords = sorted(ords)
        if any(b - a < 1e-9 for a, b in zip(ords, ords[1:])):
            return  # would collide at 12 fractional digits
        tab = ZeroTable(np.array(ords), max(ords))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "z.txt"
            export_zeros(tab, path)
            back = import_zeros(path)
        # half a quantum at 12 fractional digits plus float eps at ~5e3
        assert np.allclose(back.ordinates, tab.ordinates, atol=2e-12, rtol=0)


class TestCache:
    def test_load_or_find_round_trip(self, tmp_path):
        first = load_or_find(50.0, cache=tmp_path)
        assert (tmp_path / "zeros-tmax-50.0.txt").exists()
        second = load_or_find(50.0, cache=tmp_path)
        assert np.allclose(first.ordinates, second.ordinates, atol=1e-9)
        assert second.t_max == 50.0

    @pytest.fixture
    def parses(self, monkeypatch):
        """The source label of every zeros-file parse from here on."""
        seen = []
        parse = zc._parse_zeros

        def counting(path, data, source):
            seen.append(source)
            return parse(path, data, source)

        monkeypatch.setattr(zc, "_parse_zeros", counting)
        return seen

    def test_unchanged_file_is_parsed_once(self, tmp_path, parses):
        """A second read of the same bytes returns the verified table itself."""
        first = load_or_find(100.0, cache=tmp_path)
        second = load_or_find(100.0, cache=tmp_path)
        assert second is first
        assert parses == ["computed"]

    def test_same_bytes_under_another_t_max_are_refused(self, tmp_path):
        table = load_or_find(100.0, cache=tmp_path)
        data = (tmp_path / "zeros-tmax-100.0.txt").read_bytes()
        (tmp_path / "zeros-tmax-90.0.txt").write_bytes(data)
        with pytest.raises(ParseError, match="does not cover t_max=90.0"):
            load_or_find(90.0, cache=tmp_path)
        assert load_or_find(100.0, cache=tmp_path) is table

    def test_restored_file_loads_after_a_failed_check(self, tmp_path, parses):
        """A failed read stores nothing; the restored bytes load, from the
        memo while it still holds them and through every check once it does not."""
        table = load_or_find(100.0, cache=tmp_path)
        path = tmp_path / "zeros-tmax-100.0.txt"
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\n14.", b"\n15.", 1))
        with pytest.raises(ParseError, match="sha256"):
            load_or_find(100.0, cache=tmp_path)
        path.write_bytes(data)
        assert load_or_find(100.0, cache=tmp_path) is table
        load_or_find(50.0, cache=tmp_path)    # another table takes the memo
        again = load_or_find(100.0, cache=tmp_path)
        assert again is not table
        np.testing.assert_array_equal(again.ordinates, table.ordinates)
        assert len(parses) == 4

    def test_t_max_beyond_six_decimals_round_trips(self, tmp_path):
        t_max = 50.1234567891234
        for _ in range(2):      # computes and writes, then reads back
            tab = load_or_find(t_max, cache=tmp_path)
            assert tab.t_max == t_max
        assert [p.name for p in tmp_path.iterdir()] == [f"zeros-tmax-{t_max!r}.txt"]

    def test_nearby_heights_get_their_own_files(self, tmp_path):
        low = load_or_find(50.0, cache=tmp_path)
        high = load_or_find(50.0000001, cache=tmp_path)
        assert (low.t_max, high.t_max) == (50.0, 50.0000001)
        assert len(list(tmp_path.iterdir())) == 2

    def test_top_ordinate_stays_within_t_max(self, tmp_path):
        # to nearest at 12 fractional digits this ordinate prints as ...457
        t_max = 1234.5678901234567
        export_zeros(ZeroTable(np.array([14.134725141735, t_max]), t_max), tmp_path / "z")
        back = import_zeros(tmp_path / "z")
        assert back.t_max == t_max
        assert t_max - 1e-12 <= back.ordinates[-1] <= t_max

    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_failed_write_leaves_no_cache_entry(self, tmp_path, monkeypatch, step):
        """A write interrupted before or at the rename leaves nothing behind."""
        def fail(*args):
            raise OSError(f"simulated {step} failure")

        def open_then_fail(*args):
            open(*args).close()     # the temporary file exists when its write fails
            fail()

        if step == "write":
            monkeypatch.setattr(zc, "open", open_then_fail, raising=False)
        else:
            monkeypatch.setattr(zc.os, step, fail)
        with pytest.raises(IoError):
            load_or_find(50.0, cache=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_cache_file_fails_the_census(self, tmp_path, capsys):
        """A cache file cut short is refused on every read, by the API and the CLI."""
        load_or_find(100.0, cache=tmp_path)
        path = tmp_path / "zeros-tmax-100.0.txt"
        lines = path.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        ordinates = [line for line in lines if not line.startswith("#")]
        assert len(ordinates) == 29
        path.write_text("\n".join(header + ordinates[:10]) + "\n")
        with pytest.raises(MissedZeroError):
            load_or_find(100.0, cache=tmp_path)
        for command in ("ftable", "zeros"):
            assert cmd_dispatch([command, "--tmax", "100", "--cache", str(tmp_path)]) == 1
            out = capsys.readouterr()
            assert "census" in out.err
            assert "FAIL" not in out.out

    @pytest.mark.parametrize("edit", ["digit", "no digest"])
    def test_altered_cache_file_fails_its_digest(self, tmp_path, capsys, edit):
        """A cache file that passes the census but not its digest is refused."""
        load_or_find(100.0, cache=tmp_path)
        path = tmp_path / "zeros-tmax-100.0.txt"
        lines = path.read_text().splitlines()
        if edit == "digit":
            i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            lines[i] = lines[i][:-1] + str((int(lines[i][-1]) + 1) % 10)
        else:
            lines = [line for line in lines if not line.startswith("# sha256=")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="sha256") as err:
            load_or_find(100.0, cache=tmp_path)
        assert str(path) in str(err.value)
        for command in ("ftable", "zeros"):
            assert cmd_dispatch([command, "--tmax", "100", "--cache", str(tmp_path)]) == 1
            out = capsys.readouterr()
            assert "sha256" in out.err and str(path) in out.err
            assert out.out == ""

    def test_imported_table_in_the_cache_is_refused(self, tmp_path, capsys):
        """A table written by ``zeros --import --out`` into the cache keeps its
        source line, and a cache read refuses it instead of relabelling it."""
        src = tmp_path / "src.txt"
        export_zeros(find_zeros(100.0), src)
        cache = tmp_path / "cache"
        path = cache / "zeros-tmax-100.0.txt"
        assert cmd_dispatch(["zeros", "--import", str(src), "--out", str(path)]) == 0
        assert "# source=imported" in path.read_text().splitlines()
        capsys.readouterr()
        with pytest.raises(ParseError, match="source=imported") as err:
            load_or_find(100.0, cache=cache)
        assert str(path) in str(err.value)
        for command in ("ftable", "zeros"):
            assert cmd_dispatch([command, "--tmax", "100", "--cache", str(cache)]) == 1
            out = capsys.readouterr()
            assert "source=imported" in out.err and str(path) in out.err
            assert out.out == ""

    def test_cache_file_with_a_precision_line_is_a_hit(self, tmp_path, monkeypatch):
        """Files written before the precision line was dropped still load, unchanged."""
        load_or_find(100.0, cache=tmp_path)
        path = tmp_path / "zeros-tmax-100.0.txt"
        lines = path.read_text().splitlines()
        at = lines.index("# source=computed") + 1
        path.write_text("\n".join(lines[:at] + ["# precision=1e-09"] + lines[at:]) + "\n")
        before = path.read_text()

        def no_compute(*args, **kwargs):
            raise AssertionError("cache hit recomputed")

        monkeypatch.setattr(zc, "find_zeros", no_compute)
        tab = load_or_find(100.0, cache=tmp_path)
        assert len(tab) == 29 and tab.source == "computed"
        assert path.read_text() == before

    def test_digest_covers_the_ordinate_lines(self, tmp_path, table100):
        import hashlib
        path = tmp_path / "z.txt"
        export_zeros(table100, path)
        lines = path.read_text().splitlines()
        stated = [line for line in lines if line.startswith("# sha256=")]
        body = "".join(f"{line}\n" for line in lines if not line.startswith("#"))
        assert stated == [f"# sha256={hashlib.sha256(body.encode()).hexdigest()}"]
        assert len(import_zeros(path)) == 29

    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        from zetalab.zero_catalog import cache_dir
        monkeypatch.setenv("ZETALAB_CACHE", str(tmp_path / "mycache"))
        assert cache_dir() == tmp_path / "mycache"
