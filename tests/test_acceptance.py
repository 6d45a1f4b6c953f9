"""Acceptance criteria, one test per criterion (parametrized per cell).

Each check prints a PASS/FAIL line (run with -s or -rA to see them all) and
asserts the stated tolerance.  Heavy sweeps are shared through the
session-scoped memo fixtures so the whole module stays inside its runtime
budgets.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from zetalab import moments as mo
from zetalab.kernels import KernelSpec, kernel_eval, kernel_fourier
from zetalab.pair_correlation import (f_alpha, f_grid, gue_integral,
                                      montgomery_asymptotic, pair_count)
from zetalab.predictions import (coefficient_c, coefficient_d,
                                 gr_identity_residual)
from zetalab.zero_catalog import find_zeros, verify_counts

A_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def report(line: str, ok: bool) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'}  {line}")


@pytest.fixture(scope="module")
def fgrid1000(zero_source):
    return f_grid(zero_source.table(1000.0), 1000.0, 6.0, 0.02)


# -- criterion 1: zero census ------------------------------------------------

class TestCriterion01ZeroCensus:
    def test_census_at_100(self, engine):
        tab = find_zeros(100.0, engine=engine)
        ok = len(tab) == 29 and 14.134 <= tab.ordinates[0] <= 14.135
        report(f"criterion 1a [census at 100]: {len(tab)} zeros, "
               f"first at {tab.ordinates[0]:.6f}", ok)
        assert ok

    @pytest.mark.parametrize("t_max", [100.0, 500.0, 1000.0, 5000.0, 6000.0])
    def test_count_formula(self, zero_source, t_max):
        rep = verify_counts(zero_source.table(t_max))
        diff = abs(rep.actual - rep.expected)
        ok = rep.passed and diff <= 2.0
        report(f"criterion 1b [census at {t_max:g}]: actual {rep.actual}, "
               f"expected {rep.expected:.2f}, |diff| {diff:.3f}", ok)
        assert ok

    def test_runtime_budget(self, zero_source):
        zero_source.table(5000.0)
        elapsed = zero_source.timings.get(5000.0, 0.0)
        ok = elapsed <= 300.0
        report(f"criterion 1c [runtime at 5000]: {elapsed:.1f}s (budget 300s)", ok)
        assert ok


# -- criterion 2: Fourier pairs ----------------------------------------------

class TestCriterion02FourierPairs:
    SPECS = ([KernelSpec("h", b, 2 * k) for b in (0.3, 1.0) for k in (0, 1, 2)]
             + [KernelSpec("l", b, 0) for b in (0.3, 1.0)])

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_transform_pair(self, spec):
        worst = 0.0
        for y in (0.0, 0.3, 1.0, 2.0):
            if y == 0.0:
                num, _ = quad(lambda x: kernel_eval(spec, x), 0, np.inf, limit=800)
            else:
                num, _ = quad(lambda x: kernel_eval(spec, x), 0, np.inf,
                              weight="cos", wvar=2 * math.pi * y, limit=800)
            worst = max(worst, abs(2 * num - kernel_fourier(spec, y)))
        ok = worst < 1e-7
        report(f"criterion 2 [{spec.family} b={spec.b} n={spec.deriv_order}]: "
               f"worst |quad - closed| = {worst:.2e}", ok)
        assert ok


# -- criterion 3: Gamma-integral identity --------------------------------------

class TestCriterion03GammaIdentity:
    def test_residual_matrix(self):
        worst = 0.0
        for k in range(0, 5):
            for a in A_GRID:
                worst = max(worst, gr_identity_residual(k, a))
        ok = worst < 1e-8
        report(f"criterion 3 [identity residual k<=4]: worst {worst:.2e}", ok)
        assert ok


# -- criterion 4: k=0 reduction -------------------------------------------------

class TestCriterion04K0Reduction:
    def test_closed_forms(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.0):
            c = coefficient_c(0, a)
            d = coefficient_d(0, a)
            worst = max(worst,
                        abs(c - (1 - math.exp(-2 * a)) / (4 * a * a)) / c,
                        abs(d - (1 - math.exp(-a)) / (2 * math.pi * a * a)) / d)
        ok = worst < 1e-14
        report(f"criterion 4a [k=0 closed forms]: worst rel {worst:.2e}", ok)
        assert ok

    def test_discrete_continuous_relation(self):
        worst = 0.0
        for k in range(0, 9):
            for a in A_GRID:
                lhs = coefficient_d(k, a)
                rhs = coefficient_c(k, a / 2.0) / (2 * math.pi)
                worst = max(worst, abs(lhs - rhs) / rhs)
        ok = worst < 1e-14
        report(f"criterion 4b [d(k,a) = c(k,a/2)/2pi]: worst rel {worst:.2e}", ok)
        assert ok


# -- criterion 5: two-sided moment check ---------------------------------------

CRIT5_CELLS = [(k, a, t) for t in (1000.0, 3000.0)
               for a in (0.5, 1.0, 2.0) for k in (0, 1, 2)]


class TestCriterion05TwoSided:
    @pytest.mark.parametrize("k,a,t", CRIT5_CELLS,
                             ids=[f"k{k}-a{a}-T{t:g}" for k, a, t in CRIT5_CELLS])
    def test_cell(self, quad_memo, zero_source, k, a, t):
        quad_est = quad_memo.batch((0, 1, 2), a, t)[k]
        pair_est = mo.i_k_from_zeros(k, a, t, zero_source.table(t))
        rel = abs(quad_est.value - pair_est.value) / quad_est.value
        ok = rel <= 0.25
        report(f"criterion 5 [k={k} a={a} T={t:g}]: quad {quad_est.value:.5g}, "
               f"pair-sum {pair_est.value:.5g}, rel diff {rel:.3f}", ok)
        if k == 0 and not ok:
            pytest.fail(
                f"rel diff {rel:.3f} > 0.25: the zero-pair representation of "
                "the second moment is a k >= 1 statement; at k = 0 it omits "
                "the smooth-part interference (about T log^2(T/2pi) / 2) "
                "that only differentiation suppresses, so it overshoots the "
                "true integral at any finite height.  See the decisions "
                "ledger for the full analysis.")
        assert ok

    def test_runtime_budget(self, quad_memo):
        ok = quad_memo.elapsed <= 1800.0
        report(f"criterion 5 [runtime]: quadrature sweeps took "
               f"{quad_memo.elapsed:.0f}s (budget 1800s)", ok)
        assert ok


# -- criterion 6: pair-correlation integral route --------------------------------

CRIT6_CELLS = [(k, a) for a in (0.5, 1.0, 2.0) for k in (0, 1, 2)]


class TestCriterion06FromF:
    @pytest.mark.parametrize("k,a", CRIT6_CELLS,
                             ids=[f"k{k}-a{a}" for k, a in CRIT6_CELLS])
    def test_cell(self, quad_memo, fgrid1000, k, a):
        t = 1000.0
        quad_est = quad_memo.batch((0, 1, 2), a, t)[k]
        f_est = mo.i_k_from_f(k, a, t, fgrid1000)
        rel = abs(quad_est.value - f_est.value) / quad_est.value
        ok = rel <= 0.25
        report(f"criterion 6 [k={k} a={a}]: quad {quad_est.value:.5g}, "
               f"from-F {f_est.value:.5g}, rel diff {rel:.3f}", ok)
        if not ok and k == 0:
            pytest.fail(
                f"rel diff {rel:.3f} > 0.25: the F-integral route is the "
                "Fourier dual of the zero-pair sum and inherits its k >= 1 "
                "restriction; at k = 0 the same smooth-part interference "
                "makes it overshoot.  See the decisions ledger.")
        if not ok and (k, a) == (2, 0.5):
            pytest.fail(
                f"rel diff {rel:.3f} > 0.25: with the mandated grid cutoff "
                "alpha_max = 6, the weight alpha^4 e^(-alpha) still carries "
                "~28% of its mass beyond the grid (its truncated-tail term "
                "is reported in err_estimate), so this cell undershoots by "
                "construction.  See the decisions ledger.")
        assert ok


# -- criterion 7: moment / discrete-moment relation ------------------------------

class TestCriterion07DiscreteRelation:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_cell(self, quad_memo, zero_source, engine, k):
        t, a = 3000.0, 1.0
        i_est = quad_memo.batch((0, 1, 2), a, t)[k]
        d_est = mo.d_k(k, 2.0 * a, t, zero_source.table(t), engine)
        ratio = i_est.value / (2.0 * math.pi * d_est.value)
        ok = 0.7 <= ratio <= 1.3
        report(f"criterion 7 [k={k}]: I/(2piD) = {ratio:.4f}", ok)
        assert ok


# -- criterion 8: small-alpha formula ---------------------------------------------

class TestCriterion08SmallAlpha:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_point(self, zero_source, alpha):
        t = 5000.0
        emp = f_alpha(zero_source.table(t), t, alpha)
        asym = montgomery_asymptotic(alpha, t)
        diff = abs(emp - asym)
        ok = diff <= 0.3
        report(f"criterion 8 [alpha={alpha}]: empirical {emp:.4f}, "
               f"model {asym:.4f}, |diff| {diff:.4f}", ok)
        if not ok and alpha == 0.1:
            pytest.fail(
                f"|diff| {diff:.3f} > 0.3: the model's neglected relative "
                "correction decays only like 1/log T; near alpha = 0 it "
                "shows up as log(T/2pi)-vs-log(T) scale mismatch worth "
                "~0.8 in absolute terms at T = 5000, far above the 0.3 "
                "budget.  See the decisions ledger.")
        assert ok


# -- criterion 9: GUE integral -----------------------------------------------------

class TestCriterion09Gue:
    def test_values(self):
        v0 = gue_integral(0.0)
        v50 = gue_integral(50.0)
        ok = v0 == 0.0 and abs(v50 - 49.5) <= 2.1e-3
        report(f"criterion 9 [GUE]: integral(0) = {v0}, integral(50) = "
               f"{v50:.6f}", ok)
        assert ok

    def test_pair_count_vs_gue_logged(self, zero_source):
        """Exploratory: normalized pair counts against the conjectured
        density at T = 5000.  Logged only; the limit statement is not
        checkable at any finite height.
        """
        t = 5000.0
        tab = zero_source.table(t)
        t_effective = len(tab) * 2.0 * math.pi / math.log(t / (2.0 * math.pi))
        for beta in (0.5, 1.0, 2.0):
            normalized = pair_count(tab, t, beta) \
                / (t_effective * math.log(t) / (2.0 * math.pi))
            print(f"\nexploratory pair count beta={beta}: normalized "
                  f"{normalized:.4f} vs GUE {gue_integral(beta):.4f}")


# -- criterion 10: property bundle --------------------------------------------------

class TestCriterion10Properties:
    def test_bundle(self, zero_source, engine):
        start = time.perf_counter()
        rng = np.random.default_rng(11)

        # kernel parity and scaling
        for _ in range(200):
            b = rng.uniform(0.05, 4.0)
            x = rng.uniform(-30.0, 30.0)
            n = int(rng.integers(0, 9))
            spec = KernelSpec("h", b, n)
            sign = 1.0 if n % 2 == 0 else -1.0
            assert kernel_eval(spec, -x) == pytest.approx(
                sign * kernel_eval(spec, x), rel=1e-12, abs=1e-300)
            assert kernel_eval(spec, x) == pytest.approx(
                b ** (-(n + 1)) * kernel_eval(KernelSpec("h", 1.0, n), x / b),
                rel=1e-12, abs=1e-300)

        # F nonnegativity and evenness
        tab100 = zero_source.table(100.0)
        for alpha in np.linspace(0.0, 6.0, 40):
            v = f_alpha(tab100, 100.0, float(alpha))
            assert v >= -1e-9
            assert v == f_alpha(tab100, 100.0, -float(alpha))

        # pair-count brute-force equivalence at T = 100
        g = tab100.ordinates
        for beta in (0.5, 2.0, 10.0):
            s = 2 * math.pi * beta / math.log(100.0)
            brute = sum(1 for gi in g for gj in g if 0 < gi - gj <= s)
            assert pair_count(tab100, 100.0, beta) == brute

        # quadrature step-halving stability at modest height
        est = mo.i_k_quadrature(0, 1.0, 200.0, engine)
        assert est.err_estimate < 0.01 * est.value

        elapsed = time.perf_counter() - start
        ok = elapsed <= 120.0
        report(f"criterion 10 [property bundle]: all green in {elapsed:.1f}s "
               f"(budget 120s)", ok)
        assert ok
