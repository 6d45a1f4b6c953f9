"""Prediction tests: coefficient closed forms, identity residual, comparator."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zetalab import predictions
from zetalab.errors import DomainError, PrecisionError, RangeError
from zetalab.pair_correlation import FGrid
from zetalab.predictions import (coefficient_c, coefficient_d,
                                 gr_identity_residual, tauberian_compare,
                                 window_mass_sup)

A_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
EPS = np.finfo(float).eps


def synthetic_grid(t, values_fn, alpha_max=20.0, step=1e-4):
    alphas = step * np.arange(int(round(alpha_max / step)) + 1)
    return FGrid(t, alphas, values_fn(alphas))


class TestCoefficientC:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_k0_reduction(self, a):
        got = coefficient_c(0, a)
        ref = (1.0 - math.exp(-2 * a)) / (4 * a * a)
        assert got == pytest.approx(ref, rel=1e-14)

    def test_k1_against_quadrature_oracle(self):
        got = coefficient_c(1, 1.0)
        assert got == pytest.approx(0.375 - 1.125 * math.exp(-2.0), rel=1e-13)
        part1, _ = quad(lambda x: x ** 3 * math.exp(-2 * x), 0, 1, epsabs=1e-13)
        part2, _ = quad(lambda x: x ** 2 * math.exp(-2 * x), 1, 60, epsabs=1e-13)
        assert got == pytest.approx(part1 + part2, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(0, 8), a=st.floats(0.05, 8.0))
    def test_positive(self, k, a):
        assert coefficient_c(k, a) > 0
        assert coefficient_d(k, a) > 0

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_decreasing_in_a(self, k):
        grid = np.linspace(0.1, 5.0, 60)
        vals = [coefficient_c(k, a) for a in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_guards(self):
        with pytest.raises(OverflowError):
            coefficient_c(9, 1.0)
        with pytest.raises(DomainError):
            coefficient_c(1, 0.0)
        with pytest.raises(DomainError):
            coefficient_c(-1, 1.0)

    @pytest.mark.parametrize("k, a, bound", [(0, 1e-4, 2), (0, 1e-8, 2), (4, 1e-3, 4),
                                             (0, 1e-40, 2), (1, 1e-40, 2), (1, 1e-100, 2),
                                             (8, 0.0999, 2)])
    def test_small_a_against_mpmath(self, k, a, bound):
        """Below 2a = 0.2 the closed form's two terms cancel (1e-8 relative at
        k = 0, a = 1e-8; no positive value at a = 1e-40); the sum of the two
        positive integrals is within ``bound`` eps of 60-digit mpmath."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            x = 2 * mpmath.mpf(a)
            ref = (mpmath.gammainc(2 * k + 2, 0, x) / x ** (2 * k + 2)
                   + mpmath.gammainc(2 * k + 1, x) / x ** (2 * k + 1))
            for got, want in ((coefficient_c(k, a), ref),
                              (coefficient_d(k, 2 * a), ref / (2 * mpmath.pi))):
                assert abs(got - want) <= bound * EPS * want

    @pytest.mark.parametrize("a", [1e-160, 1e200])
    def test_powers_past_the_float_range_are_named(self, a):
        """Powers of 2a leave the float range, and so does c_1; both
        coefficients refuse a."""
        for coefficient in (coefficient_c, coefficient_d):
            with pytest.raises(RangeError, match=re.escape(f"a={a} is out of range")):
                coefficient(1, a)

    def test_plain_floats_with_a_fault_guard(self, monkeypatch):
        """Both coefficients are floats; a non-positive closed form is a fault."""
        assert type(coefficient_c(1, 1.0)) is float and type(coefficient_d(1, 1.0)) is float
        monkeypatch.setattr(predictions, "_closed_form", lambda k, twoa: 0.0)
        for coefficient in (coefficient_c, coefficient_d):
            with pytest.raises(DomainError, match="positive"):
                coefficient(1, 1.0)


class TestCoefficientD:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_k0_reduction(self, a):
        got = coefficient_d(0, a)
        ref = (1.0 - math.exp(-a)) / (2 * math.pi * a * a)
        assert got == pytest.approx(ref, rel=1e-14)

    def test_relates_to_continuous_coefficient(self):
        for k in range(0, 9):
            for a in A_GRID:
                lhs = coefficient_d(k, a)
                rhs = coefficient_c(k, a / 2.0) / (2 * math.pi)
                assert lhs == pytest.approx(rhs, rel=1e-14)


class TestIdentityResidual:
    @pytest.mark.parametrize("k,a,tol", [(0, 1.0, 1e-9), (1, 1.0, 1e-9),
                                         (3, 0.5, 1e-8)])
    def test_spot_values(self, k, a, tol):
        assert gr_identity_residual(k, a) < tol

    def test_full_matrix(self):
        worst = max(gr_identity_residual(k, a)
                    for k in range(5) for a in A_GRID)
        assert worst < 1e-8
        print(f"\nworst identity residual on the k<=4 matrix: {worst:.3e}")

    def test_detects_shifted_closed_form(self, monkeypatch):
        closed = predictions._closed_form

        def shifted(k, twoa):
            value = closed(k, twoa)
            return value + np.longdouble(1e-9) if (k, float(twoa)) == (2, 0.5) else value

        monkeypatch.setattr(predictions, "_closed_form", shifted)
        assert gr_identity_residual(2, 0.25) == pytest.approx(1e-9, rel=0.1)

    def test_relative_residual_at_longdouble_rounding(self):
        worst = max(gr_identity_residual(k, a) / coefficient_c(k, a)
                    for k in range(9) for a in A_GRID)
        assert worst <= 1e-17

    def test_gauss_rules_exact_on_monomials(self):
        x, w, u, v = predictions._gauss_rules(predictions._GL_NODES)
        for m in range(2 * predictions._GL_NODES):
            legendre = np.sum(w * x ** m) * (m + 1)      # int_0^1 x^m dx = 1/(m+1)
            laguerre = np.sum(v * u ** m) / np.longdouble(math.factorial(m))
            assert abs(float(legendre - 1)) <= 1e-17, m
            assert abs(float(laguerre - 1)) <= 1e-17, m

    def test_coarse_rule_raises(self, monkeypatch):
        monkeypatch.setattr(predictions, "_GL_NODES", 3)
        with pytest.raises(PrecisionError):
            gr_identity_residual(2, 0.25)


class TestTauberian:
    def test_constant_grid_is_fixed_point(self):
        grid = synthetic_grid(5000.0, lambda al: np.ones_like(al))
        rep = tauberian_compare(grid, k=1, b=2.0)
        assert abs(rep.lhs_a - rep.rhs_a) < 1e-8
        for _, _, avg in rep.window_averages:
            assert avg == pytest.approx(1.0, abs=1e-12)

    def test_wiggle_grid_averages_near_one(self):
        t = 5000.0
        grid = synthetic_grid(t, lambda al: 1.0 + np.sin(10 * al) / math.log(t))
        rep = tauberian_compare(grid, k=1, b=2.0)
        for _, _, avg in rep.window_averages:
            assert abs(avg - 1.0) < 0.2

    def test_rhs_closed_form(self):
        grid = synthetic_grid(5000.0, lambda al: np.ones_like(al), alpha_max=25.0)
        for k in (0, 1, 2):
            for b in (1.0, 2.0):
                rep = tauberian_compare(grid, k=k, b=b)
                ref = sum(math.comb(2 * k, j) * math.factorial(j) / b ** (j + 1)
                          for j in range(2 * k + 1))
                assert rep.rhs_a == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("b", [1e-200, 1e-103, 1e300])
    def test_rhs_past_the_float_range_is_named(self, b):
        """A power of b overflows, underflows to 0, or makes rhs_A infinite."""
        grid = synthetic_grid(5000.0, lambda al: np.ones_like(al))
        with pytest.raises(RangeError, match=re.escape(f"b={b} is out of range")):
            tauberian_compare(grid, 1, b)

    def test_real_grid_report(self, zero_source):
        from zetalab.pair_correlation import f_grid
        tab = zero_source.table(1000.0)
        grid = f_grid(tab, 1000.0, 6.0, 0.02)
        rep = tauberian_compare(grid, k=1, b=2.0)
        assert rep.ratio > 0
        assert rep.mass_sup > 0
        print(f"\ntauberian at T=1000: lhs/rhs = {rep.ratio:.4f}, "
              f"windows = {[round(w[2], 3) for w in rep.window_averages]}, "
              f"mass_sup = {rep.mass_sup:.3f}")

    def test_grid_whose_alpha_1_node_rounds_down(self, zero_source):
        """At step 1/49 the node 49 step is 0.9999999999999999, and it
        samples alpha = 1 within the check's own 1e-9."""
        from zetalab.pair_correlation import f_grid
        grid = f_grid(zero_source.table(100.0), 100.0, 6.0, 1 / 49)
        assert grid.alphas[49] < 1.0
        rep = tauberian_compare(grid, k=1, b=2.0)
        assert rep.ratio > 0

    def test_short_grid_rejected(self):
        grid = FGrid(100.0, np.array([0.0, 1.0, 2.0]), np.ones(3))
        with pytest.raises(RangeError):
            tauberian_compare(grid, k=1, b=2.0)

    def test_mass_sup_linear_growth(self):
        # F = 1 gives cumulative alpha, so sup alpha/(alpha+1) < 1
        grid = synthetic_grid(100.0, lambda al: np.ones_like(al), alpha_max=8.0,
                              step=0.01)
        assert window_mass_sup(grid) == pytest.approx(8.0 / 9.0, rel=1e-3)
