"""Engine tests: values against independent oracles, invariants, error paths."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from zetalab import moments as mo
from zetalab import zeta_engine
from zetalab.errors import DomainError, NearZeroError, PrecisionError
from zetalab.zeta_engine import (STRICT, ComplexEval, EmProfile, EvalPoint, ZetaEngine,
                                 _em_block, _em_smooth_derivs, riemann_siegel_theta)

ZETA2 = math.pi ** 2 / 6
ZETA_PRIME_2 = -0.93754825431584375370
LOG_DERIV_2 = -0.56996099309453280640      # -sum Lambda(n)/n^2
LOG_DERIV_PRIME_2 = 0.88448183396352388520  # +sum Lambda(n) log n /n^2
GAMMA_1 = 14.134725141734694
EPS = np.finfo(float).eps


class TestZetaValues:
    def test_zeta_at_2_closed_form(self, engine):
        got = engine.zeta(2.0 + 0j)
        assert abs(got.value - ZETA2) <= max(got.abs_error, 1e-12)

    def test_real_axis_matches_dirichlet_sum(self, engine):
        for sigma in (1.5, 2.0, 2.5, 3.0):
            got = engine.zeta(complex(sigma, 0.0))
            ref = oracles.dirichlet_zeta(complex(sigma, 0.0))
            assert abs(got.value - ref) < 1e-10

    def test_critical_strip_matches_eta_series(self, engine):
        for s in (0.6 + 100j, 0.55 + 17.3j, 0.9 + 60j):
            got = engine.zeta(s)
            ref = oracles.eta_zeta(s)
            assert abs(got.value - ref) < 1e-8

    def test_conjugate_symmetry(self, engine):
        rng = np.random.default_rng(7)
        for _ in range(12):
            s = complex(rng.uniform(0.51, 2.5), rng.uniform(-300, 300))
            up = engine.zeta(s).value
            down = engine.zeta(s.conjugate()).value
            assert abs(up - down.conjugate()) < 1e-10


class TestDerivatives:
    def test_zeta_prime_at_2(self, engine):
        derivs = engine.zeta_derivatives(EvalPoint(2.0, 0.0), 1)
        assert abs(derivs[1].value - ZETA_PRIME_2) < 1e-10
        live = oracles.dirichlet_zeta_deriv(2.0 + 0j)
        assert abs(derivs[1].value - live) < 1e-10

    def test_first_derivative_vs_central_difference(self, engine):
        rng = np.random.default_rng(3)
        h = 1e-4
        for _ in range(10):
            sigma = rng.uniform(0.7, 2.5)
            t = rng.uniform(2.0, 150.0)
            d = engine.zeta_derivatives(EvalPoint(sigma, t), 1)
            fd = (engine.zeta(complex(sigma + h, t)).value
                  - engine.zeta(complex(sigma - h, t)).value) / (2 * h)
            assert abs(d[1].value - fd) < 1e-5

    def test_line_path_matches_cauchy_path(self, engine):
        for sigma, t in ((0.55, 50.0), (0.8, 11.0), (2.0, 300.0)):
            line, _ = engine.zeta_derivs_points(sigma, np.array([t]), 4)
            cauchy = engine.zeta_derivatives(EvalPoint(sigma, t), 4)
            for j in range(5):
                scale = max(1.0, abs(cauchy[j].value))
                assert abs(line[0, j] - cauchy[j].value) < 1e-9 * scale

    def test_uniform_grid_matches_point_evaluation(self, engine):
        ts = 40.0 + 0.013 * np.arange(100)
        uni, _ = engine.zeta_derivs_uniform(0.8, 40.0, 0.013, 100, 2)
        pts, _ = engine.zeta_derivs_points(0.8, ts, 2)
        assert np.max(np.abs(uni - pts)) < 1e-10

    def test_cheaper_profile_agrees_with_strict(self, engine):
        cheaper = ZetaEngine(EmProfile(1.5, 10))
        for t in (100.0, 1000.0, 3000.0):
            a, _ = engine.zeta_derivs_points(0.6, np.array([t]), 0)
            b, _ = cheaper.zeta_derivs_points(0.6, np.array([t]), 0)
            assert abs(a[0, 0] - b[0, 0]) < 1e-5

    def test_jmax_validation(self, engine):
        with pytest.raises(DomainError):
            engine.zeta_derivatives(EvalPoint(2.0, 0.0), 13)

    def test_pole_guard(self):
        with pytest.raises(DomainError):
            EvalPoint(1.0, 0.0)
        with pytest.raises(DomainError):
            ZetaEngine().zeta_derivatives(EvalPoint(1.0, 1e-5), 1)

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            EvalPoint(0.5, 10.0)
        with pytest.raises(DomainError):
            EvalPoint(3.5, 10.0)


# heights paired with each main-sum length: N = 32 is the floor for small
# t, 414 and 2400 are the STRICT lengths at t = 1000 and t = 6000
SMOOTH_HEIGHTS = {32: (3.0, -14.13, 50.0), 414: (-700.0, 1000.0),
                  2400: (3000.0, -6000.0)}


def _uniform_block(sigma: float, top: float, step: float) -> np.ndarray:
    """The points of one uniform block ending at height top, at most CHUNK
    long and starting no lower than t = 2, laid out as a sweep lays them."""
    count = min(ZetaEngine.CHUNK, int((top - 2.0) / step) + 1)
    return sigma + 1j * (top - (count - 1) * step + step * np.arange(count))


class TestKernel:
    @pytest.mark.parametrize("n_len", sorted(SMOOTH_HEIGHTS))
    @pytest.mark.parametrize("r_terms", [10, 12, 14])
    @pytest.mark.parametrize("sigma", [0.52, 1.5])
    def test_smooth_part_against_mpmath(self, sigma, r_terms, n_len):
        pytest.importorskip("mpmath")
        jmax = 5
        s = sigma + 1j * np.array(SMOOTH_HEIGHTS[n_len])
        got = _em_smooth_derivs(s, n_len, jmax, r_terms)
        ref = np.array([oracles.em_smooth_part_derivs(z, n_len, jmax, r_terms)
                        for z in s])
        # N^{-s} in float64 carries the rounding of its phase t ln N, about
        # |t| ln N eps relative, in every column alike
        tol = 1e-12 + np.max(np.abs(s.imag)) * math.log(n_len) * np.finfo(float).eps
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.max(np.abs(got - ref), axis=0) <= tol * scale)

    def test_blocks_of_different_lengths_match_single_points(self, engine):
        """More than CHUNK points: each block sums to its own max |t|."""
        rng = np.random.default_rng(11)
        chunk = ZetaEngine.CHUNK
        sigma = rng.uniform(0.55, 2.5, chunk + 1000)
        t = np.concatenate([rng.uniform(-300.0, 300.0, chunk),
                            rng.uniform(-300.0, 1500.0, 1000)])
        s = sigma + 1j * t
        vals, err = engine._zeta_derivs(s, 0)
        assert vals.shape == err.shape == (s.size, 1)
        for lo, hi in ((0, chunk), (chunk, s.size)):
            for i in rng.choice(np.arange(lo, hi), 8, replace=False):
                assert abs(vals[i, 0] - engine.zeta(s[i]).value) <= err[i, 0]

    def test_height_bands_match_single_points(self, engine):
        """Unsorted heights over several bands come back in input order."""
        rng = np.random.default_rng(12)
        band = ZetaEngine.BAND
        t = rng.uniform(-6000.0, 6000.0, 2 * band + 90)
        s = rng.choice([0.5, 0.9], t.size) + 1j * t
        vals, err = engine._zeta_derivs(s, 0)
        single = np.array([engine.zeta(z).value for z in s])
        assert np.all(np.abs(vals[:, 0] - single) <= err[:, 0])
        top = np.argsort(np.abs(t))[-(t.size % band or band):]   # holds max |t|
        _, top_err = engine._zeta_derivs(s[top], 0)
        assert np.array_equal(err[top], top_err)

    @pytest.mark.parametrize("top", [20.0, 50.0, 100.0, 200.0, 500.0, 1000.0])
    def test_uniform_blocks_within_their_bounds(self, top):
        """Every entry of a uniform block is within the block's own truncation
        plus rounding bound of the same block summed point by point."""
        for step in (0.0018, 0.004, 0.05):
            for sigma in (0.5, 0.6, 1.0, 1.5):
                s = _uniform_block(sigma, top, step)
                for jmax in (0, 3, 5):
                    vals, trunc, rounding = _em_block(s, jmax, STRICT, step)
                    ref, _, _ = _em_block(s, jmax, STRICT, None)
                    assert np.all(np.abs(vals - ref) <= trunc + rounding), (step, sigma, jmax)

    @pytest.mark.parametrize("sigma, top", [(0.5, 20.0), (0.6, 1000.0)])
    def test_uniform_block_ends_against_mpmath(self, sigma, top):
        pytest.importorskip("mpmath")
        step = 0.0018
        s = _uniform_block(sigma, top, step)
        vals, trunc, rounding = _em_block(s, 5, STRICT, step)
        for m in (-65, -2, -1):
            ref, _ = oracles.mp_zeta_and_log_derivs(s[m], 5)
            assert np.all(np.abs(vals[m] - ref) <= trunc + rounding), m

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 4095, 4097])
    @pytest.mark.parametrize("jmax", [0, 5])
    def test_uniform_tail_and_shape(self, engine, count, jmax):
        """Counts around the grid row and CHUNK lengths: the padded tail is dropped."""
        uni, err = engine.zeta_derivs_uniform(0.6, 300.0, 0.013, count, jmax)
        pts, pts_err = engine.zeta_derivs_points(0.6, 300.0 + 0.013 * np.arange(count), jmax)
        assert uni.shape == err.shape == (count, jmax + 1)
        assert np.all(np.abs(uni - pts) <= err + pts_err)

    def test_empty_input(self, engine):
        for vals, err in (engine.zeta_derivs_points(0.8, np.array([]), 3),
                          engine.zeta_derivs_uniform(0.8, 10.0, 0.1, 0, 3)):
            assert vals.shape == err.shape == (0, 4)


class TestLogDerivative:
    def test_value_at_2_against_von_mangoldt_sum(self, engine):
        got = engine.log_derivative_k(EvalPoint(2.0, 0.0), 0)
        live, tail = oracles.log_deriv_series(0, 2.0 + 0j)
        assert abs(got.value - LOG_DERIV_2) < 1e-10
        assert abs(got.value - live) < 2.0 * tail

    def test_termwise_derivative_series(self, engine):
        got = engine.log_derivative_k(EvalPoint(2.0, 0.0), 1)
        live, tail = oracles.log_deriv_series(1, 2.0 + 0j)
        assert abs(got.value - LOG_DERIV_PRIME_2) < 1e-10
        assert abs(got.value - live) < 2.0 * tail
        assert abs(got.value) == pytest.approx(abs(live), rel=1e-4)

    def test_recursion_k0_equals_ratio(self, engine):
        for sigma, t in ((0.7, 33.0), (1.5, 5.0), (0.55, 120.0)):
            ld = engine.log_derivative_k(EvalPoint(sigma, t), 0)
            derivs = engine.zeta_derivatives(EvalPoint(sigma, t), 1)
            ratio = derivs[1].value / derivs[0].value
            assert abs(ld.value - ratio) <= 1e-10 * abs(ratio)

    def test_zero_sum_representation(self, engine, zero_source):
        """k=2 log-derivative against the truncated sum over zeros.

        (zeta'/zeta)'' (s) ~ 2 sum_rho (s - rho)^(-3) truncated to
        |gamma - t| <= 50, matching within the truncation tail.
        """
        table = zero_source.table(100.0)
        s = complex(0.55, 50.0)
        zsum = 2.0 * complex(np.sum((s - (0.5 + 1j * table.ordinates)) ** -3.0))
        got = engine.log_derivative_k(EvalPoint(0.55, 50.0), 2).value
        # tail: both spectral sides beyond distance 50 plus the 1/t^2 term
        density = math.log(100.0 / (2 * math.pi)) / (2 * math.pi)
        tail = 2.0 * (2 * 2.0 * density / (2 * 50.0 ** 2)) + 5.0 / 50.0 ** 2
        assert abs(got - zsum) < tail

    def test_magnitude_bound(self, engine):
        """|log-derivative| <= C log t / (sigma - 1/2)^(k+1) with C <= 50."""
        worst = 0.0
        for sigma in (0.55, 0.6, 0.75, 1.0, 1.5):
            for t in (10.0, 50.0, 100.0, 500.0, 1000.0):
                for k in (0, 1, 2, 3, 4):
                    v = engine.log_derivative_k(EvalPoint(sigma, t), k).value
                    c = abs(v) * (sigma - 0.5) ** (k + 1) / math.log(t)
                    worst = max(worst, c)
        assert worst <= 50.0
        print(f"\nfitted magnitude-bound constant: {worst:.3f}")

    @pytest.mark.parametrize("t, a", [(1000.0, 0.5), (200.0, 2.0)])
    def test_bulk_errors_bound_reference_gap(self, engine, t, a):
        """Per node of the top 4096 nodes of a quadrature sweep, the propagated
        error of each order k <= 2 covers the move to a more accurate profile."""
        log_t = math.log(t)
        nu = mo.sweep_plan([0, 1, 2], a, t).interior
        n = 2 * math.ceil(nu * (t - 1.0) * log_t / (2.0 * a))
        h, count = (t - 1.0) / n, 4096
        args = (0.5 + a / log_t, t - (count - 1) * h, h, count, 2)
        vals, err = engine.log_deriv_uniform(*args)
        ref, _ = ZetaEngine(EmProfile(4.0, 16)).log_deriv_uniform(*args)
        assert vals.shape == err.shape == (count, 3)
        assert np.all(np.abs(vals - ref) <= err)

    def test_line_errors_match_single_points(self, engine):
        """A line evaluation propagates the same way as a single point."""
        vals, err = ZetaEngine(ZetaEngine.SINGLE).log_deriv_line(0.7, np.array([77.0]), 3)
        one = engine.log_derivative_k(EvalPoint(0.7, 77.0), 3)
        assert vals[0, 3] == pytest.approx(one.value, rel=1e-12)
        assert err[0, 3] == pytest.approx(one.abs_error, rel=1e-12)

    def test_near_zero_guard(self, engine):
        z = np.array([[1e-13 + 0j, 1.0 + 0j]])
        with pytest.raises(NearZeroError):
            engine._log_deriv_recursion(z, 0, np.zeros(z.shape))


#: written by tests/data/make_mp_reference.py
MP_REFERENCE = Path(__file__).with_name("data") / "mp_reference.json"


@pytest.fixture(scope="module")
def mp_reference():
    """mpmath zeta^(j), j <= 9, and (zeta'/zeta)^(k), k <= 8, at seeded points.

    24 points over sigma in [0.505, 2], t in [10, 6000], plus the two that
    sit closest to the single-point bounds: (0.52, 5990), where k = 4 was
    refused before the single points got their own profile, and
    (0.55, 5000), where the STRICT truncation bound of zeta^(4) is 2.9e-7.
    Read from ``MP_REFERENCE``; ``test_reference_file_matches_live_mpmath``
    recomputes two of the points.
    """
    doc = json.loads(MP_REFERENCE.read_text())
    return [(p["sigma"], p["t"], [complex(*v) for v in p["zeta"]],
             [complex(*v) for v in p["log_derivs"]]) for p in doc["points"]]


def _single_point_pairs(engine, reference):
    """(engine value, mpmath value) for every zeta^(j) and returned log-derivative."""
    pairs = []
    for sigma, t, zetas, logs in reference:
        p = EvalPoint(sigma, t)
        pairs += zip(engine.zeta_derivatives(p, 9), zetas)
        pairs += [(engine.log_derivative_k(p, k), ref) for k, ref in enumerate(logs)]
    return pairs


class TestSinglePoint:
    def test_reference_file_matches_live_mpmath(self, mp_reference):
        """The two lowest points, recomputed, so a stale reference file fails."""
        pytest.importorskip("mpmath")
        assert len(mp_reference) == 26
        assert [p[:2] for p in mp_reference[-2:]] == [(0.52, 5990.0), (0.55, 5000.0)]
        for sigma, t, zetas, logs in sorted(mp_reference, key=lambda p: p[1])[:2]:
            for stored, live in zip((zetas, logs),
                                    oracles.mp_zeta_and_log_derivs(complex(sigma, t), 9)):
                assert len(stored) == len(live)
                assert np.allclose(stored, live, rtol=1e-14, atol=0)

    def test_errors_bound_the_mpmath_gap(self, engine, mp_reference):
        pairs = _single_point_pairs(engine, mp_reference)
        worst = max(abs(got.value - ref) / got.abs_error for got, ref in pairs)
        assert worst <= 1.0
        print(f"\nworst |diff| / abs_error over {len(pairs)} values: {worst:.3f}")

    def test_relative_error_against_mpmath(self, engine, mp_reference):
        pairs = _single_point_pairs(engine, mp_reference)
        assert max(abs(got.value - ref) / abs(ref) for got, ref in pairs) <= 1e-9

    def test_points_domain_raises_nothing(self, engine):
        rng = np.random.default_rng(17)
        for sigma, t, k in zip(rng.uniform(0.52, 2.0, 200), rng.uniform(10.0, 6000.0, 200),
                               rng.integers(0, 4, 200)):
            got = engine.log_derivative_k(EvalPoint(sigma, t), int(k))
            assert got.abs_error < 1e-8 * max(1.0, abs(got.value))

    def test_k4_near_the_line_at_the_top_height(self, engine):
        got = engine.log_derivative_k(EvalPoint(0.52, 5990.0), 4)
        assert got.abs_error < 1e-8 * abs(got.value)

    def test_no_refusal_up_to_k8(self, engine):
        """The k! in the magnitude guard admits every order on the whole domain."""
        rng = np.random.default_rng(31)
        for sigma, t, k in zip(rng.uniform(0.52, 2.0, 500), rng.uniform(10.0, 6000.0, 500),
                               rng.integers(0, 9, 500)):
            engine.log_derivative_k(EvalPoint(sigma, t), int(k))

    def test_value_above_the_magnitude_bound_raises(self, engine, monkeypatch):
        p, k = EvalPoint(1.858, 1072.3), 6
        value = abs(engine.log_derivative_k(p, k).value)
        scale = math.factorial(k) * math.log(p.t) / (p.sigma - 0.5) ** (k + 1)
        monkeypatch.setattr(zeta_engine, "LOG_DERIV_BOUND_C", 1.01 * value / scale)
        engine.log_derivative_k(p, k)
        monkeypatch.setattr(zeta_engine, "LOG_DERIV_BOUND_C", 0.99 * value / scale)
        with pytest.raises(PrecisionError, match="magnitude"):
            engine.log_derivative_k(p, k)

    def test_profile_does_not_follow_the_engine(self, engine):
        p = EvalPoint(0.6, 3000.0)
        other = ZetaEngine(EmProfile(4.0, 16))
        assert engine.zeta_derivatives(p, 3) == other.zeta_derivatives(p, 3)

    def test_scalars_do_not_follow_the_engine(self, engine):
        """zeta and hardy_z are SINGLE blocks of one, as zeta_derivatives is."""
        cheaper = ZetaEngine(EmProfile(1.5, 10))
        for s in (2.0 + 0j, 0.6 + 100j, 0.5 - 3000j, 0.9 + 5990j):
            assert cheaper.zeta(s) == engine.zeta(s)
        assert engine.zeta(0.6 + 100j) == engine.zeta_derivatives(EvalPoint(0.6, 100.0), 0)[0]
        for t in (14.0, 130.5, 3210.9):
            assert cheaper.hardy_z(t) == engine.hardy_z(t)

    def test_recursion_errors_match_scalar_loop(self, engine):
        """The vectorized error propagation against a plain per-point loop."""
        rng = np.random.default_rng(6)
        z = rng.normal(size=(20, 10)) + 1j * rng.normal(size=(20, 10))
        err = rng.uniform(1e-12, 1e-9, size=z.shape)
        vals, g_err = engine._log_deriv_recursion(z, 8, err)
        for row, e, want_vals, want_err in zip(z, err, vals, g_err):
            g, ge = [0j] * 10, [0.0] * 10
            for n in range(1, 10):
                acc, acc_err = row[n], e[n]
                for j in range(n - 1):
                    c = math.comb(n - 1, j)
                    acc -= c * g[j + 1] * row[n - 1 - j]
                    acc_err += c * (abs(g[j + 1]) * e[n - 1 - j] + ge[j + 1] * abs(row[n - 1 - j]))
                g[n] = acc / row[0]
                ge[n] = (acc_err + abs(g[n]) * e[0]) / abs(row[0])
            assert np.allclose(want_vals, g[1:], rtol=1e-13, atol=0.0)
            assert np.allclose(want_err, ge[1:], rtol=1e-13, atol=0.0)

    def test_recursion_errors_bound_perturbations(self, engine):
        """First-order propagation covers perturbations of z within err."""
        rng = np.random.default_rng(5)
        z = rng.normal(size=(50, 6)) + 1j * rng.normal(size=(50, 6))
        err = 1e-9 * np.abs(z)
        exact = np.zeros(z.shape)
        vals, g_err = engine._log_deriv_recursion(z, 4, err)
        same, _ = engine._log_deriv_recursion(z, 4, exact)
        assert np.array_equal(vals, same)
        for _ in range(20):
            phase = np.exp(2j * np.pi * rng.uniform(size=z.shape))
            moved, _ = engine._log_deriv_recursion(z + err * phase, 4, exact)
            assert np.all(np.abs(moved - vals) <= g_err * (1.0 + 1e-6))


def _power_sum(coeffs, x):
    """sum_d coeffs[d] x^d, term by term from the running power x^d."""
    total, power = 0.0 * x, 1.0 + 0.0 * x
    for c in coeffs:
        total = total + c * power
        power = power * x
    return total


class TestHorner:
    """Small integer coefficients at dyadic points, where every product and
    sum is exact, so Horner's rule equals the power sum bit for bit."""

    rng = np.random.default_rng(20261020)

    @pytest.mark.parametrize("x", [np.arange(-12, 13) / 8.0,
                                   (np.arange(-12, 13) + 1j * np.arange(12, -13, -1)) / 8.0],
                             ids=["real", "complex"])
    def test_list_of_floats(self, x):
        """The theta and Stirling series: one coefficient list for every point."""
        coeffs = [3.0, -1.0, 2.0, 5.0, -4.0, 1.0, 7.0]
        got = zeta_engine.horner(coeffs, x)
        assert got.dtype == x.dtype and got.shape == x.shape
        assert np.array_equal(got, _power_sum(coeffs, x))

    def test_per_point_rows(self):
        """The zero jets: row m of the coefficients belongs to point m."""
        coeffs = self.rng.integers(-9, 10, size=(40, 9)).astype(float)
        x = self.rng.integers(-16, 17, size=40) / 16.0
        got = zeta_engine.horner(coeffs.T, x)
        assert got.shape == x.shape
        assert np.array_equal(got, _power_sum(coeffs.T, x))

    def test_per_column_coefficients(self):
        """The smooth part: column j of the result has its own polynomial."""
        coeffs = self.rng.integers(-9, 10, size=(5, 8)).astype(float)
        x = ((self.rng.integers(-16, 17, size=30) + 1j * self.rng.integers(-16, 17, size=30))
             / 16.0)[:, None]
        got = zeta_engine.horner(coeffs.T, x)
        assert got.shape == (30, 5)
        assert np.array_equal(got, _power_sum(coeffs.T, x))


class TestTheta:
    def test_against_stirling_oracle(self):
        for t in (2.0, 5.0, 14.1, 100.0, 1000.0):
            assert abs(riemann_siegel_theta(t) - oracles.stirling_theta(t)) < 1e-9

    def test_asymptotic_self_check(self):
        t = 100.0
        asym = t / 2 * math.log(t / (2 * math.pi)) - t / 2 - math.pi / 8
        # next correction is 1/(48t); the one after contributes ~1.2e-9
        assert abs(riemann_siegel_theta(t) - asym) <= 1.0 / (48 * t) + 5e-9

    def test_monotone_above_10(self):
        ts = np.linspace(10.0, 500.0, 191)
        vals = [riemann_siegel_theta(t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            riemann_siegel_theta(1.0)

    def test_against_mpmath_on_both_sides_of_the_cut(self):
        """Within 32 eps max(1, |theta|) of mpmath on [2, 6000]: every 0.01
        up to 30, across the cut at 11.69, then 4,001 points; measured 9.8
        below the cut and 8.9 above it."""
        mpmath = pytest.importorskip("mpmath")
        cut = zeta_engine._THETA_CUT
        ts = np.concatenate([np.arange(2.0, 30.0, 0.01), np.linspace(30.0, 6000.0, 4001),
                             [cut, np.nextafter(cut, 0.0)]])
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.siegeltheta(t)) for t in ts])
        got = zeta_engine.riemann_siegel_theta_array(ts)
        assert np.any(ts < cut) and np.any(ts >= cut)
        assert np.all(np.abs(got - ref) <= 32 * EPS * np.maximum(1.0, np.abs(ref)))

    def test_in_place_series_equals_the_formula_bit_for_bit(self):
        """Above the cut, on the zero scan's heights to T = 6000, the series
        as one expression with its temporaries gives the same floats."""
        ts = 2.0 + 0.05 * np.arange(120_000)
        th = ts[ts >= zeta_engine._THETA_CUT]
        formula = (0.5 * th * (np.log(th / zeta_engine.TWO_PI) - 1.0) - math.pi / 8
                   + zeta_engine.horner(zeta_engine._THETA_C, 1.0 / (th * th)) / th)
        assert np.array_equal(zeta_engine.riemann_siegel_theta_array(th), formula)

    def test_odd(self):
        ts = np.concatenate([np.geomspace(1e-8, 1e5, 500), np.linspace(0.0, 40.0, 401)])
        theta = zeta_engine.riemann_siegel_theta_array
        assert np.array_equal(theta(-ts), -theta(ts))
        assert theta(np.array([0.0]))[0] == 0.0

    def test_same_values_as_scipy_wherever_hardy_z_evaluates(self):
        """hardy_z_points and hardy_z_uniform take any real t, so theta
        follows scipy's log-gamma over both signs from 1e-8 to 1e6 within
        64 eps max(1, |theta|), the rounding of the two (measured 30.5, at
        t = 19.57, where scipy is the further from mpmath)."""
        special = pytest.importorskip("scipy.special")
        ts = np.concatenate([np.linspace(-50.0, 50.0, 10001), np.geomspace(1e-8, 1e6, 3000),
                             -np.geomspace(1e-8, 1e6, 300)])
        ref = np.imag(special.loggamma(0.25 + 0.5j * ts)) - 0.5 * ts * math.log(math.pi)
        got = zeta_engine.riemann_siegel_theta_array(ts)
        assert np.all(np.abs(got - ref) <= 64 * EPS * np.maximum(1.0, np.abs(ref)))


class TestBernoulli:
    def test_correctly_rounded_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for n in range(61):
            exact = Fraction(*mpmath.bernfrac(n))
            assert zeta_engine._bernoulli_fraction(n) == exact
            assert zeta_engine._bernoulli(n) == float(exact)
            with mpmath.workprec(53):
                assert zeta_engine._bernoulli(n) == float(mpmath.bernoulli(n))


class TestHardyZ:
    def test_sign_change_brackets_first_zero(self, engine):
        assert engine.hardy_z(14.0) * engine.hardy_z(15.0) < 0

    def test_squared_modulus_identity(self, engine):
        for t in (20.0, 50.0, 100.0):
            z = engine.hardy_z(t)
            mod = abs(engine.zeta(complex(0.5, t)).value)
            assert z * z == pytest.approx(mod * mod, rel=1e-8)

    def test_vanishes_at_first_zero(self, engine):
        assert abs(engine.hardy_z(GAMMA_1)) <= 1e-6

    def test_domain(self, engine):
        with pytest.raises(DomainError):
            engine.hardy_z(1.0)


class TestComplexEval:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ComplexEval(complex(float("nan"), 0.0), 0.0)
        with pytest.raises(DomainError):
            ComplexEval(1.0 + 0j, -1.0)
