"""Moment tests: synthetic closed forms, cross-method agreement, degenerate sums."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from zetalab import accumulate, zero_catalog, zeta_engine
from zetalab import moments as mo
from zetalab.errors import (CoverageError, DivisionError, DomainError,
                            RangeError)
from zetalab.pair_correlation import FGrid, f_grid
from zetalab.zero_catalog import ZeroTable
from zetalab.zeta_engine import EmProfile, EvalPoint, ZetaEngine

T_UNIT = 500.0
A_UNIT = 1.0


@pytest.fixture(scope="module")
def quads500(quad_memo):
    return {k: est for k, est in zip((0, 1, 2),
                                     quad_memo.batch((0, 1, 2), A_UNIT, T_UNIT))}


class TestQuadrature:
    def test_positive_with_small_err(self, quads500):
        for k, est in quads500.items():
            assert est.value > 0
            assert est.err_estimate < 0.01 * est.value

    def test_magnitude_scale(self, quads500):
        """I_k / (T log^(2k+2) T) stays within the expected desk-scale window."""
        for k, est in quads500.items():
            scaled = est.value / (T_UNIT * math.log(T_UNIT) ** (2 * k + 2))
            assert 1e-3 <= scaled <= 1e3

    def test_spike_is_finite_at_first_zero(self, engine, zero_source):
        tab = zero_source.table(T_UNIT)
        sigma = 0.5 + A_UNIT / math.log(T_UNIT)
        val = engine.log_derivative_k(EvalPoint(sigma, tab.ordinates[0]), 0)
        spike_scale = math.log(T_UNIT) / A_UNIT
        assert abs(val.value) < 20.0 * spike_scale
        assert abs(val.value) > 0.05 * spike_scale

    def test_refinement_doubling_within_err(self, engine_fast, zero_source, monkeypatch):
        tab = zero_source.table(200.0)
        base = mo.i_k_quadrature(0, 1.0, 200.0, engine_fast, tab)
        monkeypatch.setattr(mo, "NODES_PER_WIDTH", 32)
        denser = mo.i_k_quadrature(0, 1.0, 200.0, engine_fast, tab)
        assert abs(denser.value - base.value) <= base.err_estimate + denser.err_estimate

    @pytest.mark.parametrize("n", [12, 25, 101, 1000])
    def test_gregory_weights_exact_below_degree_6(self, n):
        w = mo._gregory_weights(0, n + 1, n)
        x = np.arange(n + 1) / n
        for degree in range(mo.GREGORY_ORDER):
            assert float(w @ x ** degree) / n == pytest.approx(
                1.0 / (degree + 1), rel=1e-13)
        if n < 100:  # degree 6 is not integrated exactly
            assert abs(float(w @ x ** 6) / n - 1.0 / 7.0) > 1e-12
        assert np.all(w > 0)  # the rounding bound relies on positive weights

    def test_gregory_weights_blocks_concatenate(self):
        n = 40
        whole = mo._gregory_weights(0, n + 1, n)
        blocks = [mo._gregory_weights(i0, min(i0 + 8, n + 1), n)
                  for i0 in range(0, n + 1, 8)]
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_rule_on_pole_near_the_axis(self):
        """A Lorentzian with its pole at distance d from the axis, sampled
        at NODES_PER_WIDTH nodes per d, as the sweep samples its integrand."""
        d, c, lo, hi = 0.3, 2.0, 0.0, 7.0
        f = lambda u: 1.0 / ((u - c) ** 2 + d * d)
        n = 2 * math.ceil(mo.NODES_PER_WIDTH * (hi - lo) / (2 * d))
        h = (hi - lo) / n
        rule = float(mo._gregory_weights(0, n + 1, n) @ f(lo + h * np.arange(n + 1))) * h
        ref, _ = quad(f, lo, hi, points=[c], epsabs=0.0, epsrel=1e-13, limit=200)
        assert rule == pytest.approx(ref, rel=1e-10)

    def test_err_covers_profile_gap(self, quad_memo, engine, zero_source):
        t = 200.0
        fast = quad_memo.batch((0, 1, 2), A_UNIT, t)
        strict = mo.i_k_quadrature_batch([0, 1, 2], A_UNIT, t, engine,
                                         zero_source.table(t))
        for f_est, s_est in zip(fast, strict):
            assert f_est.err_estimate >= abs(f_est.value - s_est.value)

    @pytest.mark.parametrize("t", [51.5, 200.0, 500.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_within_err_of_reference_sweep(self, quad_memo, zero_source, a, t):
        """FAST values lie within their own err_estimate of a sweep with a
        profile more accurate than STRICT."""
        reference = ZetaEngine(EmProfile(4.0, 16))
        refs = mo.i_k_quadrature_batch([0, 1, 2], a, t, reference,
                                       zero_source.table(t))
        for est, ref in zip(quad_memo.batch((0, 1, 2), a, t), refs):
            assert abs(est.value - ref.value) <= est.err_estimate

    def test_envelope_validation(self, engine_fast, zero_source):
        tab = zero_source.table(200.0)
        with pytest.raises(DomainError):
            mo.i_k_quadrature(5, 1.0, 200.0, engine_fast, tab)
        with pytest.raises(DomainError):
            mo.i_k_quadrature(0, 0.05, 200.0, engine_fast, tab)
        with pytest.raises(CoverageError):
            mo.i_k_quadrature(0, 1.0, 300.0, engine_fast, tab)


class TestZeroPairSum:
    def test_two_sided_agreement_k1_k2(self, quads500, zero_source):
        """The pair-sum representation against direct quadrature (k >= 1)."""
        tab = zero_source.table(T_UNIT)
        for k in (1, 2):
            pair = mo.i_k_from_zeros(k, A_UNIT, T_UNIT, tab)
            ratio = pair.value / quads500[k].value
            assert abs(ratio - 1.0) <= 0.25
            print(f"\npair-sum/quadrature at k={k}: {ratio:.4f}")

    def test_k0_overshoot_is_the_known_interference_gap(self, quads500, zero_source):
        """At k=0 the pair sum lacks the smooth-part interference and must
        overshoot the integral by roughly T log^2(T/2pi) / 2; the
        representation is a k >= 1 statement.  Recorded, not asserted.
        """
        tab = zero_source.table(T_UNIT)
        pair = mo.i_k_from_zeros(0, A_UNIT, T_UNIT, tab)
        gap = pair.value - quads500[0].value
        model = 0.5 * T_UNIT * math.log(T_UNIT / (2 * math.pi)) ** 2
        print(f"\nk=0 overshoot {gap:.1f} vs interference scale {model:.1f}")
        assert gap > 0

    def test_diagonal_sign_and_scale(self, zero_source):
        tab = zero_source.table(T_UNIT)
        for k in (0, 1, 2):
            est = mo.i_k_from_zeros(k, A_UNIT, T_UNIT, tab)
            assert est.value > 0

    def test_growth_with_k(self, zero_source):
        """I_(k+1)/I_k grows on the (log T)^2 scale."""
        tab = zero_source.table(T_UNIT)
        v0 = mo.i_k_from_zeros(0, A_UNIT, T_UNIT, tab).value
        v1 = mo.i_k_from_zeros(1, A_UNIT, T_UNIT, tab).value
        ratio = v1 / v0
        scale = math.log(T_UNIT) ** 2
        assert scale / 30.0 <= ratio <= scale * 30.0


class TestFromF:
    def test_synthetic_constant_grid_closed_form(self):
        """F = 1 grid: the integral reduces to a truncated Gamma integral."""
        t = 1000.0
        step = 5e-4
        alphas = step * np.arange(int(round(8.0 / step)) + 1)
        grid = FGrid(t, alphas, np.ones_like(alphas))
        for k in (0, 1, 2):
            for a in (0.5, 1.0, 2.0):
                est = mo.i_k_from_f(k, a, t, grid)
                exact = (math.gamma(2 * k + 1) / (2 * a) ** (2 * k + 1)
                         * float(gammainc(2 * k + 1, 2 * a * 8.0)))
                pred = t * math.log(t) ** (2 * k + 2) * exact
                assert est.value == pytest.approx(pred, rel=1e-6)

    def test_real_grid_against_quadrature_k1(self, quads500, zero_source):
        tab = zero_source.table(T_UNIT)
        grid = f_grid(tab, T_UNIT, 6.0, 0.02)
        est = mo.i_k_from_f(1, A_UNIT, T_UNIT, grid)
        assert abs(est.value / quads500[1].value - 1.0) <= 0.25

    def test_short_grid_rejected(self, zero_source):
        tab = zero_source.table(100.0)
        grid = f_grid(tab, 100.0, 2.0, 0.1)
        with pytest.raises(RangeError):
            mo.i_k_from_f(0, 1.0, 100.0, grid)

    def test_mismatched_t_rejected(self, zero_source):
        tab = zero_source.table(100.0)
        grid = f_grid(tab, 100.0, 6.0, 0.1)
        with pytest.raises(DomainError):
            mo.i_k_from_f(0, 1.0, 200.0, grid)


class TestDiscrete:
    def test_single_zero_equals_engine_evaluation(self, engine):
        gamma_1 = 14.134725141734694
        table = ZeroTable(np.array([gamma_1]), 20.0)
        est = mo.d_k(0, 1.0, 20.0, table, engine)
        direct = engine.log_derivative_k(
            EvalPoint(0.5 + 1.0 / math.log(20.0), gamma_1), 0)
        assert est.value == pytest.approx(direct.value.real, rel=1e-10)

    def test_k1_finite_at_1000(self, engine, zero_source):
        tab = zero_source.table(1000.0)
        est = mo.d_k(1, 1.0, 1000.0, tab, engine)
        assert math.isfinite(est.value)
        assert est.err_estimate < abs(est.value)

    def test_farmer_relation_at_500(self, quads500, engine, zero_source):
        tab = zero_source.table(T_UNIT)
        d_est = mo.d_k(0, 2.0 * A_UNIT, T_UNIT, tab, engine)
        ratio = quads500[0].value / (2.0 * math.pi * d_est.value)
        assert 0.7 <= ratio <= 1.3
        print(f"\nI_0 / 2piD_0 at T=500: {ratio:.4f}")

    def test_ratio_of_identity(self):
        i_est = mo.MomentEstimate("I_quadrature", 0, 1.0, 500.0, 1234.5, 0.1)
        d_est = mo.MomentEstimate("D_discrete", 0, 2.0, 500.0,
                                  1234.5 / (2.0 * math.pi), 0.0)
        assert mo._ratio_of(i_est, d_est) == pytest.approx(1.0, rel=1e-14)

    def test_division_guard(self):
        i_est = mo.MomentEstimate("I_quadrature", 0, 1.0, 500.0, 10.0, 0.1)
        d_est = mo.MomentEstimate("D_discrete", 0, 2.0, 500.0, 1e-12, 1.0)
        with pytest.raises(DivisionError):
            mo._ratio_of(i_est, d_est)


@pytest.mark.parametrize("module,name", [(accumulate, "tree_sum"),
                                         (mo, "weight_alpha_max"),
                                         (zeta_engine, "_logs"),
                                         (zeta_engine, "_LOGN"),
                                         (ZetaEngine, "_derivs_chunk_uniform"),
                                         (ZetaEngine, "_line_err"),
                                         (zero_catalog, "_bisect_brackets"),
                                         (zero_catalog, "BISECT_TOL"),
                                         (zeta_engine, "_bessel_iv")])
def test_unused_helpers_removed(module, name):
    assert not hasattr(module, name)


class TestEstimateType:
    def test_negative_moment_rejected(self):
        with pytest.raises(DomainError):
            mo.MomentEstimate("I_quadrature", 0, 1.0, 500.0, -1.0, 0.0)

    def test_discrete_may_be_negative(self):
        est = mo.MomentEstimate("D_discrete", 0, 1.0, 500.0, -1.0, 0.0)
        assert est.value == -1.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            mo.MomentEstimate("bogus", 0, 1.0, 500.0, 1.0, 0.0)
