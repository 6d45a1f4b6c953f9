"""Pair statistics tests: brute-force equivalence, windows, GUE, asymptotics."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from zetalab import moments, pair_correlation
from zetalab.cli import cmd_dispatch
from zetalab.errors import CoverageError, DomainError, RangeError
from zetalab.pair_correlation import (GRID, PAIR_BLOCK, ROWS, FGrid, _pair_data,
                                      f_alpha, f_grid, f_window_integral,
                                      gue_integral, montgomery_asymptotic,
                                      pair_count, pair_cutoff, pair_sum,
                                      pair_weight)
from zetalab.kernels import KernelSpec, kernel_eval
from zetalab.zero_catalog import ZeroTable, load_or_find
from zetalab.zeta_engine import TWO_PI

EPS = np.finfo(float).eps


def brute_f(ordinates, t, alpha):
    log_t = math.log(t)
    acc = 0.0
    for gi in ordinates:
        for gj in ordinates:
            d = gi - gj
            acc += math.cos(alpha * log_t * d) * 4.0 / (4.0 + d * d)
    return 2.0 * math.pi / (t * log_t) * acc


class TestFAlpha:
    def test_brute_force_all_pairs_at_100(self, zero_source):
        tab = zero_source.table(100.0)
        assert len(tab) == 29
        for alpha in (0.0, 0.35, 1.5):
            assert f_alpha(tab, 100.0, alpha) == pytest.approx(
                brute_f(tab.ordinates, 100.0, alpha), rel=1e-12)

    def test_even_in_alpha(self, zero_source):
        tab = zero_source.table(100.0)
        for alpha in (0.2, 0.9, 3.7):
            assert f_alpha(tab, 100.0, alpha) == f_alpha(tab, 100.0, -alpha)

    def test_nonnegative_sampled(self, zero_source):
        tab = zero_source.table(1000.0)
        for alpha in np.linspace(0.0, 6.0, 61):
            assert f_alpha(tab, 1000.0, float(alpha)) >= -1e-9

    def test_coverage_and_domain(self, zero_source):
        tab = zero_source.table(100.0)
        with pytest.raises(CoverageError):
            f_alpha(tab, 200.0, 1.0)
        with pytest.raises(DomainError):
            f_alpha(tab, 30.0, 1.0)

    def test_diagonal_dominance_logged(self, zero_source):
        """Large-alpha behavior: off-diagonal decoheres toward the diagonal.

        Exploratory (logged, not asserted): the pair sum should sit within
        a factor of a few of the pure diagonal value.
        """
        tab = zero_source.table(1000.0)
        diag = 2 * math.pi * len(tab) / (1000.0 * math.log(1000.0))
        for alpha in (6.0, 8.0):
            val = f_alpha(tab, 1000.0, alpha)
            print(f"\nF({alpha}, 1000) = {val:.4f}; diagonal alone = {diag:.4f}")


class TestFGrid:
    def test_matches_pointwise(self, zero_source):
        tab = zero_source.table(100.0)
        grid = f_grid(tab, 100.0, 1.0, 0.5)
        assert grid.alphas.tolist() == [0.0, 0.5, 1.0]
        for a, v in zip(grid.alphas, grid.values):
            assert v == pytest.approx(f_alpha(tab, 100.0, float(a)), rel=1e-12)

    def test_degenerate_grid(self, zero_source):
        tab = zero_source.table(100.0)
        grid = f_grid(tab, 100.0, 0.0, 0.5)
        assert grid.alphas.tolist() == [0.0]

    def test_validation(self, zero_source):
        tab = zero_source.table(100.0)
        with pytest.raises(DomainError):
            f_grid(tab, 100.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            f_grid(tab, 100.0, 9.0, 0.5)
        for t in (1.0, 0.5):   # log T <= 0
            with pytest.raises(DomainError):
                f_grid(tab, t, 1.0, 0.5)
        with pytest.raises(DomainError):
            FGrid(100.0, np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_non_finite_inputs_refused(self, zero_source):
        tab = zero_source.table(100.0)
        for alpha_max, step in ((1.0, math.nan), (math.nan, 0.5), (1.0, math.inf)):
            with pytest.raises(DomainError):
                f_grid(tab, 100.0, alpha_max, step)

    def test_oversized_grid_refused_before_allocating(self, zero_source):
        tab = zero_source.table(100.0)
        for step in (1e-12, 1e-300):
            with pytest.raises(DomainError):
                f_grid(tab, 100.0, 1.0, step)

    def test_phase_recurrence_matches_direct_cosine(self, zero_source):
        """10^5 recurrence steps stay within 1e-10 of the direct cosine sum."""
        tab = zero_source.table(100.0)
        grid = f_grid(tab, 100.0, 8.0, 8e-5)
        assert grid.alphas.size == 100_001
        picks = [*range(0, grid.alphas.size, 100), grid.alphas.size - 1]
        for i in picks:
            direct = f_alpha(tab, 100.0, float(grid.alphas[i]))
            assert grid.values[i] == pytest.approx(direct, rel=1e-10)

    def test_blocked_product_matches_pointwise_at_1500(self, zero_source):
        """Several pair blocks, a short last one, and 301 samples (not a multiple of GRID)."""
        tab = zero_source.table(1500.0)
        n_pairs = _pair_data(tab, 1500.0)[1].size
        assert n_pairs > 2 * PAIR_BLOCK and n_pairs % PAIR_BLOCK
        grid = f_grid(tab, 1500.0, 6.0, 0.02)
        assert grid.alphas.size == 301 and 301 % GRID
        for a, v in zip(grid.alphas, grid.values):
            assert v == pytest.approx(f_alpha(tab, 1500.0, float(a)), rel=1e-12)

    def test_more_outer_rows_than_one_product_at_1000(self, zero_source):
        """3,001 samples need more than ROWS outer rows; the result is reproducible."""
        tab = zero_source.table(1000.0)
        grid = f_grid(tab, 1000.0, 6.0, 0.002)
        assert grid.alphas.size == 3001 and -(-3001 // GRID) > ROWS
        for i in [*range(0, 3001, 103), 3000]:
            assert grid.values[i] == pytest.approx(
                f_alpha(tab, 1000.0, float(grid.alphas[i])), rel=1e-12)
        again = f_grid(tab, 1000.0, 6.0, 0.002)
        assert np.array_equal(grid.values.view(np.uint64), again.values.view(np.uint64))

    def test_working_set_is_bounded(self, zero_source):
        """Pair blocks keep the peak near 10 MB; one unblocked product would need ~3.8 GB."""
        tab = zero_source.table(1000.0)
        tracemalloc.start()
        try:
            f_grid(tab, 1000.0, 6.0, 0.002)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestPairSum:
    def test_brute_force_all_pairs_at_100(self, zero_source):
        tab = zero_source.table(100.0)
        g = tab.ordinates
        kernel = lambda d: np.exp(-0.3 * np.asarray(d) ** 2)
        brute = sum(math.exp(-0.3 * (gi - gj) ** 2) * 4.0 / (4.0 + (gi - gj) ** 2)
                    for gi in g for gj in g)
        assert pair_sum(tab, 100.0, kernel) == pytest.approx(brute, rel=1e-12)

    def test_single_zero_is_the_diagonal(self):
        tab = ZeroTable(np.array([14.134725]), 60.0)
        assert pair_sum(tab, 60.0, lambda d: np.cos(2.0 * np.asarray(d)) + 2.0) == 3.0

    def test_coverage(self, zero_source):
        with pytest.raises(CoverageError):
            pair_sum(zero_source.table(100.0), 200.0, np.cos)

    def test_nan_height_not_covered(self):
        tab = ZeroTable(np.array([14.134725, 21.022040, 25.010858]), 30.0)
        with pytest.raises(CoverageError):
            pair_sum(tab, math.nan, np.cos)

    def test_pair_data_matches_a_loop_at_1500(self, zero_source):
        """The gathered differences keep the loop's (i, j) order, bit for bit."""
        t = 1500.0
        tab = zero_source.table(t)
        g = tab.ordinates[tab.ordinates <= t]
        lo = np.searchsorted(g, g - pair_cutoff(t), side="left")
        ref = np.array([g[i] - g[j] for i in range(g.size) for j in range(lo[i], i)])
        n, diffs, weights = _pair_data(tab, t)
        assert n == g.size and ref.size == 149_733
        assert np.array_equal(diffs.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(weights, pair_weight(ref))


def fresh_table(zero_source, t):
    """A table of its own, so no other test has gathered its pairs."""
    return ZeroTable(zero_source.table(t).ordinates, t)


class TestPairSet:
    """One pair set per (table, T), kept read-only on the table."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (table, t) of every pair-set build from here on."""
        seen = []
        gather = pair_correlation._gather_pairs

        def counting(zeros, t):
            seen.append((zeros, t))
            return gather(zeros, t)

        monkeypatch.setattr(pair_correlation, "_gather_pairs", counting)
        return seen

    def test_one_build_across_every_pair_route(self, zero_source, builds):
        t = 1500.0
        tab = fresh_table(zero_source, t)
        f_grid(tab, t, 1.0, 0.1)
        pair_sum(tab, t, np.cos)
        f_alpha(tab, t, 0.5)
        for k in (0, 1, 2):
            moments.i_k_from_zeros(k, 2.0, t, tab)
        assert builds == [(tab, t)]

    def test_one_build_across_a_command_and_a_cache_read(self, tmp_path, builds):
        """The table that ``ftable`` loaded is the one ``load_or_find`` returns
        next, pair set and all."""
        t = 1500.0
        assert cmd_dispatch(["ftable", "--tmax", "1500", "--cache", str(tmp_path),
                             "--out", str(tmp_path / "f.csv")]) == 0
        table = load_or_find(t, cache=tmp_path)
        for k in (0, 1, 2):
            moments.i_k_from_zeros(k, 2.0, t, table)
        assert builds == [(table, t)]

    def test_other_tables_and_heights_build_their_own(self, zero_source, builds):
        tab = fresh_table(zero_source, 200.0)
        twin = ZeroTable(tab.ordinates, tab.t_max)
        part = tab.up_to(150.0)
        for zeros, t in ((tab, 200.0), (twin, 200.0), (part, 150.0), (tab, 150.0)):
            pair_sum(zeros, t, np.cos)
        assert builds == [(tab, 200.0), (twin, 200.0), (part, 150.0), (tab, 150.0)]
        # the table keeps the last height only
        assert list(tab._pair_set) == [150.0]
        pair_sum(tab, 200.0, np.cos)
        assert len(builds) == 5

    def test_the_set_dies_with_its_table(self, zero_source):
        table = fresh_table(zero_source, 200.0)
        ref = weakref.ref(_pair_data(table, 200.0)[1])
        assert ref() is not None
        del table
        gc.collect()
        assert ref() is None

    def test_cached_arrays_and_ordinates_are_read_only(self, zero_source):
        source = np.array(zero_source.table(200.0).ordinates)
        tab = ZeroTable(source, 200.0)
        source[0] = 1.0   # the table holds its own copy
        assert tab.ordinates[0] != 1.0
        _, diffs, weights = _pair_data(tab, 200.0)
        for arr in (tab.ordinates, diffs, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_checks_run_on_a_warm_table(self, zero_source):
        tab = fresh_table(zero_source, 200.0)
        pair_sum(tab, 200.0, np.cos)
        with pytest.raises(CoverageError):
            pair_sum(tab, math.nan, np.cos)
        with pytest.raises(CoverageError):
            pair_sum(tab, 201.0, np.cos)
        with pytest.raises(DomainError):
            f_alpha(tab, math.nan, 0.5)
        with pytest.raises(DomainError):
            f_grid(tab, math.inf, 1.0, 0.1)
        assert list(tab._pair_set) == [200.0]

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_blocked_sum_matches_one_dot_at_1500(self, zero_source, k):
        """Blocks of PAIR_BLOCK pairs against one np.dot over every pair, f_2k."""
        t = 1500.0
        tab = zero_source.table(t)
        n, diffs, weights = _pair_data(tab, t)
        assert diffs.size > 2 * PAIR_BLOCK
        log_t = math.log(t)
        for a in (0.5, 1.0, 2.0):
            spec = KernelSpec("f", a / math.pi, 2 * k)
            kernel = lambda d: kernel_eval(spec, d * (log_t / TWO_PI))
            whole = n * kernel(0.0) + 2.0 * float(np.dot(weights, kernel(diffs)))
            assert pair_sum(tab, t, kernel) == pytest.approx(whole, rel=1e-14)


class TestWindowIntegral:
    def test_exact_on_constant(self):
        alphas = np.linspace(0.0, 4.0, 401)
        grid = FGrid(100.0, alphas, np.full_like(alphas, 2.5))
        assert f_window_integral(grid, 1.0, 2.0) == pytest.approx(5.0, rel=1e-12)
        assert f_window_integral(grid, 0.37, 1.11) == pytest.approx(2.5 * 1.11, rel=1e-12)

    def test_interpolated_endpoints(self):
        alphas = np.array([0.0, 1.0, 2.0])
        grid = FGrid(100.0, alphas, np.array([0.0, 1.0, 2.0]))  # F = alpha
        assert f_window_integral(grid, 0.5, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_window_bounds(self):
        grid = FGrid(100.0, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(RangeError):
            f_window_integral(grid, 0.5, 1.0)
        with pytest.raises(RangeError):
            f_window_integral(grid, 0.5, 0.0)

    def test_nonfinite_window_refused(self):
        grid = FGrid(100.0, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        for b, ell in ((math.nan, 1.0), (0.5, math.nan)):
            with pytest.raises(DomainError):
                f_window_integral(grid, b, ell)

    def test_unit_window_scale_at_2000(self, zero_source):
        """Desk-scale check that the mass in [1, 2] is of unit size."""
        tab = zero_source.table(2000.0)
        grid = f_grid(tab, 2000.0, 3.0, 0.02)
        val = f_window_integral(grid, 1.0, 1.0)
        assert 0.5 <= val <= 1.6
        print(f"\nwindow integral [1,2] at T=2000: {val:.4f}")


class TestPairCount:
    def test_brute_force_at_100(self, zero_source):
        tab = zero_source.table(100.0)
        g = tab.ordinates
        for beta in (0.5, 2.0, 10.0):
            s = 2 * math.pi * beta / math.log(100.0)
            brute = sum(1 for gi in g for gj in g if 0 < gi - gj <= s)
            assert pair_count(tab, 100.0, beta) == brute

    def test_empty_at_tiny_beta(self, zero_source):
        tab = zero_source.table(100.0)
        assert pair_count(tab, 100.0, 1e-12) == 0

    def test_non_finite_beta_refused(self, zero_source):
        tab = zero_source.table(100.0)
        for beta in (math.nan, math.inf):
            with pytest.raises(DomainError):
                pair_count(tab, 100.0, beta)

    def test_height_at_most_one_refused(self):
        """log T <= 0 makes the window 2 pi beta / log T meaningless."""
        tab = ZeroTable(np.array([14.134725, 21.022040]), 30.0)
        for t in (1.0, 0.5, -3.0):
            for beta in (1.0, 0.0):
                with pytest.raises(DomainError):
                    pair_count(tab, t, beta)
        assert pair_count(tab, 30.0, 1.0) == 0
        assert pair_count(tab, 30.0, 10.0) == 1

    def test_monotone_in_beta(self, zero_source):
        tab = zero_source.table(100.0)
        counts = [pair_count(tab, 100.0, b) for b in np.linspace(0.1, 12.0, 40)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestGueIntegral:
    def test_zero(self):
        assert gue_integral(0.0) == 0.0

    def test_non_finite_beta_refused(self):
        for beta in (math.nan, math.inf):
            with pytest.raises(DomainError):
                gue_integral(beta)

    def test_large_beta_closed_form(self):
        # int_0^50 = 49.5 + tail, tail ~ 1/(2 pi^2 50) ~ 1.01e-3
        assert abs(gue_integral(50.0) - 49.5) < 2.1e-3

    def test_against_simpson_oracle(self):
        for beta in (1.0, 2.5):
            ref = oracles.composite_simpson(
                lambda u: 1.0 - float(np.sinc(u)) ** 2, 0.0, beta, 4000)
            got = gue_integral(beta)
            assert got == pytest.approx(ref, abs=1e-9)
            assert 0.0 < gue_integral(1.0) < 1.0

    def test_small_beta_absolute_error_is_a_few_eps_beta(self):
        """1 - sinc^2 integrates to pi^2 b^3/9 - 2 pi^4 b^5/225 + pi^6 b^7/2205
        + O(b^9), the O(b^9) below 2e-19 b at b <= 1e-2; the cancelling
        closed form stays within 8 eps b of it (measured 3.8 eps b)."""
        for beta in np.geomspace(1e-6, 1e-2, 400):
            series = (math.pi ** 2 * beta ** 3 / 9 - 2 * math.pi ** 4 * beta ** 5 / 225
                      + math.pi ** 6 * beta ** 7 / 2205)
            assert abs(gue_integral(beta) - series) <= 8 * EPS * beta


class TestSineIntegral:
    def test_against_mpmath(self):
        """Within 4 eps relative of mpmath from 1e-12 to 1e12, across the
        change from quadrature to the asymptotic series at SI_CUT (measured
        2.6 eps)."""
        mpmath = pytest.importorskip("mpmath")
        cut = pair_correlation.SI_CUT
        xs = np.concatenate([np.geomspace(1e-12, 1.0, 100), np.linspace(0.01, 200.0, 4000),
                             [cut, np.nextafter(cut, 0.0), 1e3, 1e6, 1e12]])
        for x in xs:
            with mpmath.workdps(30):
                ref = float(mpmath.si(x))
            assert abs(pair_correlation._si(x) - ref) <= 4 * EPS * abs(ref)


class TestMontgomeryAsymptotic:
    def test_plug_in_values(self):
        big_l = math.log(100.0 / (2.0 * math.pi))
        assert montgomery_asymptotic(0.0, 100.0) == pytest.approx(
            (big_l ** 2 - 2.0 * big_l + 2.0) / math.log(100.0))
        t = math.exp(10.0)
        big_l = 10.0 - math.log(2.0 * math.pi)
        assert montgomery_asymptotic(1.0, t) == pytest.approx(
            math.exp(-20.0) * (big_l ** 2 - 2.0 * big_l + 2.0) / 10.0 + 1.0)

    @pytest.mark.parametrize("t", [50.0, 1000.0, 6000.0])
    def test_mean_log_square_against_quadrature(self, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = mpmath.quad(lambda u: mpmath.log(u / (2 * mpmath.pi)) ** 2,
                              [0, 2 * mpmath.pi, t]) / (t * mpmath.log(t))
        assert pair_correlation.mean_log_square(t) == pytest.approx(float(ref), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            montgomery_asymptotic(1.2, 100.0)
        with pytest.raises(DomainError):
            montgomery_asymptotic(0.5, 10.0)

    def test_non_finite_inputs_refused(self):
        for alpha, t in ((math.nan, 100.0), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(DomainError):
                montgomery_asymptotic(alpha, t)

    def test_tracks_empirical_at_depth(self, zero_source):
        tab = zero_source.table(1000.0)
        emp = f_alpha(tab, 1000.0, 0.5)
        asym = montgomery_asymptotic(0.5, 1000.0)
        assert abs(emp - asym) < 0.3


class TestWeight:
    def test_weight_shape(self):
        assert pair_weight(0.0) == 1.0
        assert pair_weight(2.0) == pytest.approx(0.5)
        u = np.linspace(-10, 10, 21)
        assert np.all(pair_weight(u) > 0)
