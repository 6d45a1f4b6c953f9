"""Moment tests: synthetic closed forms, cross-method agreement, degenerate sums."""

import math
import tracemalloc

import importlib.util

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from zetalab import kernels, pair_correlation, predictions, zero_catalog, zeta_engine
from zetalab import moments as mo
from zetalab.errors import DivisionError, DomainError, RangeError
from zetalab.kernels import KernelSpec, kernel_eval
from zetalab.pair_correlation import FGrid, f_grid, pair_sum
from zetalab.zero_catalog import ZeroTable
from zetalab.zeta_engine import TWO_PI, EmProfile, EvalPoint, ZetaEngine

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

    def test_refinement_doubling_within_err(self, engine, monkeypatch):
        [base] = mo.i_k_quadrature_batch([0], 1.0, 200.0, engine)
        plan = mo.sweep_plan([0], 1.0, 200.0)
        doubled = mo.SweepPlan(*(2.0 * nu for nu in plan))
        monkeypatch.setattr(mo, "sweep_plan", lambda ks, a, t: doubled)
        [denser] = mo.i_k_quadrature_batch([0], 1.0, 200.0, engine)
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

    @staticmethod
    def lorentzian_rule(t, d=0.3, c=3.0):
        """A Lorentzian with its pole at distance d from the axis, on [1, T],
        through the sweeps that sweep_plan sets for k = 0, sampled as they
        sample their integrand: (the rule's value, quad's, the sweep count)."""
        f = lambda u: 1.0 / ((u - c) ** 2 + d * d)

        class Lorentzian:
            def log_deriv_uniform(self, sigma, t0, step, count, kmax):
                u = t0 + step * np.arange(count)
                return np.sqrt(f(u))[:, None], np.zeros((count, 1))

        a = d * math.log(t)
        [rule] = mo.i_k_quadrature_batch([0], a, t, Lorentzian())
        ref, _ = quad(f, 1.0, t, points=[c], epsabs=0.0, epsrel=1e-13, limit=200)
        return rule.value, ref, len(mo._sweeps(t, d, mo.sweep_plan([0], a, t)))

    def test_rule_on_pole_near_the_axis(self):
        """On [1, 8], long enough for an end its own sweep."""
        value, ref, _ = self.lorentzian_rule(8.0)
        assert value == pytest.approx(ref, rel=1e-10)

    def test_one_sweep_plan(self):
        """At T = 5, [1, T] is shorter than 4 _WINDOW_HALF d, so one sweep at
        the largest density covers it, its window all ones."""
        value, ref, sweeps = self.lorentzian_rule(5.0)
        assert sweeps == 1
        assert value == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("t", [51.5, 200.0, 500.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_within_err_of_reference_sweep(self, quad_memo, a, t):
        """STRICT values lie within their own err_estimate of a sweep with a
        more accurate profile."""
        reference = ZetaEngine(EmProfile(4.0, 16))
        refs = mo.i_k_quadrature_batch([0, 1, 2], a, t, reference)
        for est, ref in zip(quad_memo.batch((0, 1, 2), a, t), refs):
            assert abs(est.value - ref.value) <= est.err_estimate

    def test_envelope_validation(self, engine):
        with pytest.raises(DomainError):
            mo.i_k_quadrature_batch([5], 1.0, 200.0, engine)
        with pytest.raises(DomainError):
            mo.i_k_quadrature_batch([0], 0.05, 200.0, engine)

    @pytest.mark.parametrize("call", [
        lambda engine: mo.i_k_quadrature_batch([1.5], 1.0, 100.0, engine),
        lambda engine: predictions.coefficient_c(1.5, 1.0),
        lambda engine: kernel_eval(KernelSpec("f", 1.0, 1.5), 0.3),
        lambda engine: engine.log_derivative_k(EvalPoint(0.8, 100.0), 1.5),
    ], ids=["quadrature", "coefficient_c", "kernel", "log_derivative_k"])
    def test_non_integral_order_refused(self, engine, call):
        """Each raised a bare TypeError from math.factorial or range."""
        with pytest.raises(DomainError, match="must be an integer"):
            call(engine)

    def test_no_orders_refused(self, engine):
        with pytest.raises(DomainError):
            mo.i_k_quadrature_batch([], 1.0, 200.0, engine)

    def test_sweeps_walk_engine_blocks(self):
        """At (T, a) = (1000, 0.5) the interior sweep holds 75,537 nodes.  Each
        engine call takes at most CHUNK of them and starts on an even node
        index, and the calls of each sweep tile its n + 1 nodes once."""
        t, a, ks = 1000.0, 0.5, [0, 1, 2]
        calls = []

        class Recorder:
            def log_deriv_uniform(self, sigma, t0, step, count, kmax):
                calls.append((t0, step, count))
                return np.ones((count, kmax + 1), complex), np.zeros((count, kmax + 1))

        mo.i_k_quadrature_batch(ks, a, t, Recorder())
        assert max(count for _, _, count in calls) == ZetaEngine.CHUNK
        for lo, hi, _, _ in mo._sweeps(t, a / math.log(t), mo.sweep_plan(ks, a, t)):
            step = calls[0][1]
            n = round((hi - lo) / step)
            assert n % 2 == 0 and lo + n * step == pytest.approx(hi, rel=1e-14)
            node = 0
            while node < n + 1:
                t0, h, count = calls.pop(0)
                assert h == step
                assert t0 == lo + node * step
                assert node % 2 == 0 and 0 < count <= ZetaEngine.CHUNK
                node += count
            assert node == n + 1
        assert not calls


#: the calibration grid of the node-density model: (T, a)
DENSITY_CELLS = [(t, a) for t in (51.5, 200.0, 1000.0) for a in (0.5, 1.0, 2.0, 5.0)]
DENSITY_CELLS.append((200.0, 0.1))


class TestDensityModel:
    @pytest.mark.parametrize("t, a", DENSITY_CELLS)
    @pytest.mark.parametrize("ks", [(0, 1, 2), (4,)], ids=["k012", "k4"])
    def test_calibration(self, quad_memo, engine, monkeypatch, ks, t, a):
        """Against sweeps at 32 nodes per width (each end at twice its
        density, and never below 32): the gap lies within err_estimate, and
        within the modelled error of both rules plus the engine's error,
        which the two rules sample at different nodes (twice the denser
        rule's propagated part).  Against the 16-nodes-per-width single sweep
        it replaces: the value lies within that rule's err_estimate."""
        plan = mo.sweep_plan(list(ks), a, t)
        dense_plan = mo.SweepPlan(32.0, *(max(32.0, 2.0 * nu) for nu in plan[1:]))
        dense = mo._quadrature_parts(list(ks), a, t, dense_plan, engine)
        got = quad_memo.batch(ks, a, t)
        monkeypatch.setattr(mo, "sweep_plan", lambda ks, a, t: mo.SweepPlan(16.0, 16.0, 16.0))
        parent = mo.i_k_quadrature_batch(list(ks), a, t, engine)
        for k, est, ref, old in zip(ks, got, dense, parent):
            gap = abs(est.value - ref[0])
            assert gap <= est.err_estimate
            model = (mo._modelled_error(k, a, t, plan) + mo._modelled_error(k, a, t, dense_plan)
                     + 2.0 * ref[2])
            assert gap <= model
            assert abs(est.value - old.value) <= old.err_estimate

    @pytest.mark.parametrize("ks", [[0], [0, 1, 2], [4]])
    def test_plan_meets_the_target(self, ks):
        """Every modelled term is under the target for every requested order,
        and an end has its own sweep only when it needs more than the interior."""
        for t, a in DENSITY_CELLS:
            plan = mo.sweep_plan(ks, a, t)
            d = a / math.log(t)
            for k in ks:
                assert mo._interior_error(plan.interior, k) <= mo.DENSITY_TARGET
                assert mo._end_error_1(plan.left, k, d, t) <= 1.000001 * mo.DENSITY_TARGET
                assert mo._end_error_t(plan.right, k, t) <= 1.000001 * mo.DENSITY_TARGET
            assert plan.left >= plan.interior and plan.right >= plan.interior
            ends = [(lo == 1.0, nu) for lo, _, nu, _ in mo._sweeps(t, d, plan)[1:]]
            assert ends == [(at_1, nu) for at_1, nu in ((True, plan.left), (False, plan.right))
                            if nu > plan.interior]


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

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_brute_force_double_sum_at_100(self, zero_source, k, a):
        """Every ordered pair (g, g') with the kernel written out from its definition."""
        t = 100.0
        tab = zero_source.table(t)
        log_t = math.log(t)
        b = a / math.pi
        n = 2 * k
        acc = 0.0
        for gi in tab.ordinates:
            for gj in tab.ordinates:
                d = gi - gj
                x = d * log_t / (2.0 * math.pi)
                h = ((-1j) ** n * math.factorial(n) * (b + 1j * x) ** (-(n + 1))).real
                acc += h * 4.0 / (4.0 + d * d)
        want = (-1.0) ** k / (2.0 * math.pi) ** n * log_t ** (n + 1) * acc
        got = mo.i_k_from_zeros(k, a, t, tab).value
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_f_kernel_matches_the_signed_h_sum_at_1000(self, zero_source, k):
        """The f_2k pair sum is the (-1)^k h^(2k) pair sum bit for bit."""
        t = 1000.0
        tab = zero_source.table(t)
        log_t = math.log(t)
        for a in (0.5, 1.0, 2.0):
            spec = KernelSpec("h", a / math.pi, 2 * k)
            total = pair_sum(tab, t, lambda d: kernel_eval(spec, d * (log_t / TWO_PI)))
            want = ((-1.0) ** k / (2.0 ** (2 * k) * math.pi ** (2 * k))
                    * log_t ** (2 * k + 1) * total)
            assert mo.i_k_from_zeros(k, a, t, tab).value == want

    def test_warm_call_works_in_blocks(self, zero_source):
        """A warm call's temporaries are a few PAIR_BLOCK-long arrays; over all
        of the 149,733 pairs at T = 1500 they took 8.4 MB."""
        t = 1500.0
        tab = zero_source.table(t)
        mo.i_k_from_zeros(2, 2.0, t, tab)
        tracemalloc.start()
        try:
            mo.i_k_from_zeros(2, 2.0, t, tab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_tail_factor_against_scipy(self, n):
        """Q(n, x) = e^{-x} sum_{j<n} x^j/j! against scipy's gammaincc on
        x in [0, 200]: within 1e-13 relative, the accuracy of gammaincc
        there (measured 115 eps from mpmath, the closed form 3.1 eps)."""
        xs = np.linspace(0.0, 200.0, 2001)
        got = np.array([mo._gamma_q(n, x) for x in xs])
        assert np.all(np.abs(got - gammaincc(n, xs)) <= 1e-13 * gammaincc(n, xs))

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_tail_factor_against_mpmath(self, n):
        """Within 8 eps relative of mpmath's regularized gamma on x in [0, 200]."""
        mpmath = pytest.importorskip("mpmath")
        for x in np.linspace(0.0, 200.0, 201):
            with mpmath.workdps(30):
                ref = float(mpmath.gammainc(n, x, regularized=True))
            assert abs(mo._gamma_q(n, x) - ref) <= 8 * np.finfo(float).eps * ref

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
    def test_below_the_first_zero_is_zero(self, engine):
        table = ZeroTable(np.array([]), 10.0)
        for k, est in zip((0, 1, 2), mo.d_k_batch([0, 1, 2], 1.0, 10.0, table, engine)):
            assert (est.kind, est.k, est.value, est.err_estimate) == ("D_discrete", k, 0.0, 0.0)

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

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_err_covers_reference_engine_gap(self, engine, zero_source, a):
        """err_estimate covers the move to a more accurate profile, and so do
        the summed per-zero errors alone, without the |Im| part."""
        t = 1000.0
        tab = zero_source.table(t)
        reference = ZetaEngine(EmProfile(4.0, 16))
        sigma, g = 0.5 + 2.0 * a / math.log(t), tab.ordinates
        for k in (0, 1, 2):
            est = mo.d_k(k, 2.0 * a, t, tab, engine)
            ref = mo.d_k(k, 2.0 * a, t, tab, reference)
            assert est.err_estimate >= abs(est.value - ref.value)
            vals, err = engine.log_deriv_line(sigma, g, 2 * k)
            ref_vals, _ = reference.log_deriv_line(sigma, g, 2 * k)
            gap = abs(np.sum(vals[:, 2 * k]) - np.sum(ref_vals[:, 2 * k]))
            assert gap <= np.sum(err[:, 2 * k])

    def test_ratio_of_identity(self):
        i_est = mo.MomentEstimate("I_quadrature", 0, 1.0, 500.0, 1234.5, 0.1)
        d_est = mo.MomentEstimate("D_discrete", 0, 2.0, 500.0,
                                  1234.5 / (2.0 * math.pi), 0.0)
        assert mo.ratio_of(i_est, d_est) == pytest.approx(1.0, rel=1e-14)

    def test_division_guard(self):
        i_est = mo.MomentEstimate("I_quadrature", 0, 1.0, 500.0, 10.0, 0.1)
        d_est = mo.MomentEstimate("D_discrete", 0, 2.0, 500.0, 1e-12, 1.0)
        with pytest.raises(DivisionError):
            mo.ratio_of(i_est, d_est)


@pytest.mark.parametrize("module,name", [(mo, "weight_alpha_max"),
                                         (zeta_engine, "_logs"),
                                         (zeta_engine, "_LOGN"),
                                         (ZetaEngine, "_derivs_chunk_uniform"),
                                         (ZetaEngine, "_line_err"),
                                         (zero_catalog, "_bisect_brackets"),
                                         (zero_catalog, "BISECT_TOL"),
                                         (zero_catalog, "RESCAN_STEP"),
                                         (zero_catalog, "_find_pass"),
                                         (zero_catalog, "FALSE_POSITION_ROUNDS"),
                                         (zeta_engine, "_bessel_iv"),
                                         (zeta_engine, "FAST"),
                                         (zeta_engine, "_stirling_coefficient"),
                                         (zeta_engine, "_STIRLING_C"),
                                         (zeta_engine, "_THETA_SHIFT"),
                                         (mo, "farmer_ratio"),
                                         (mo, "i_k_quadrature"),
                                         (mo, "_quadrature"),
                                         (mo, "_SEGMENT"),
                                         (mo, "_pair_data"),
                                         (kernels, "_h_deriv"),
                                         (kernels, "_l_deriv"),
                                         (kernels, "_f_parity_coeffs"),
                                         (kernels, "h_even_deriv_at_zero"),
                                         (pair_correlation, "WEIGHT_ID"),
                                         (ZeroTable(np.array([14.134725]), 20.0),
                                          "_pair_cache")])
def test_unused_helpers_removed(module, name):
    assert not hasattr(module, name)


def test_accumulate_module_removed():
    assert importlib.util.find_spec("zetalab.accumulate") is None


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
