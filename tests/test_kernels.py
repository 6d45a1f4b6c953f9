"""Kernel tests: closed forms, parity, scaling, Fourier pairs, boundedness."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zetalab.errors import DomainError, UnsupportedError
from zetalab.kernels import KernelSpec, _inv_power, kernel_eval, kernel_fourier

widths = st.floats(0.05, 4.0)
points = st.floats(-30.0, 30.0)
orders = st.integers(0, 8)


def fd_derivative(f, x, n, h):
    return sum((-1) ** i * math.comb(n, i) * f(x + (n / 2 - i) * h)
               for i in range(n + 1)) / h ** n


class TestClosedForms:
    def test_peak_values(self):
        assert kernel_eval(KernelSpec("h", 1.0), 0.0) == pytest.approx(1.0)
        assert kernel_eval(KernelSpec("h", 1.0, 2), 0.0) == pytest.approx(-2.0)
        assert kernel_eval(KernelSpec("l", 2.0), 0.0) == pytest.approx(0.25)

    def test_base_kernels_match_rational_formulas(self):
        xs = np.linspace(-5, 5, 41)
        for b in (0.3, 1.0, 2.5):
            h_direct = b / (b * b + xs ** 2)
            l_direct = (b * b - xs ** 2) / (b * b + xs ** 2) ** 2
            assert np.allclose(kernel_eval(KernelSpec("h", b), xs), h_direct, atol=1e-14)
            assert np.allclose(kernel_eval(KernelSpec("l", b), xs), l_direct, atol=1e-14)

    @pytest.mark.parametrize("family", ["h", "l"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivatives_against_finite_differences(self, family, order):
        for b in (0.5, 1.3):
            f = lambda x: kernel_eval(KernelSpec(family, b), x)
            got = kernel_eval(KernelSpec(family, b, order), 0.41)
            coarse = fd_derivative(f, 0.41, order, 2e-2)
            fine = fd_derivative(f, 0.41, order, 1e-2)
            richardson = (4.0 * fine - coarse) / 3.0
            assert got == pytest.approx(richardson, rel=5e-5, abs=1e-10)

    def test_f_family_parity_selection(self):
        b = 0.6
        x = 0.8
        # k even: Re{(-i)^k} h^(k); k odd: Re{(-i)^(k+1)} l^(k-1)
        assert kernel_eval(KernelSpec("f", b, 0), x) \
            == pytest.approx(kernel_eval(KernelSpec("h", b, 0), x))
        assert kernel_eval(KernelSpec("f", b, 1), x) \
            == pytest.approx(-kernel_eval(KernelSpec("l", b, 0), x))
        assert kernel_eval(KernelSpec("f", b, 2), x) \
            == pytest.approx(-kernel_eval(KernelSpec("h", b, 2), x))
        assert kernel_eval(KernelSpec("f", b, 3), x) \
            == pytest.approx(kernel_eval(KernelSpec("l", b, 2), x))

    def test_even_f_is_signed_even_h_exactly(self):
        """f_2k = (-1)^k h^(2k) bit for bit, the identity i_k_from_zeros rests on."""
        xs = np.array([0.0, -0.0, 1e-300, 0.41, -2.5, 37.0, -1e3, 1e8, -1e15])
        for b in (0.05, 0.6, 3.0):
            for k in range(9):
                f = kernel_eval(KernelSpec("f", b, 2 * k), xs)
                h = (-1) ** k * kernel_eval(KernelSpec("h", b, 2 * k), xs)
                assert np.all(f == h)
                for x in xs:
                    assert kernel_eval(KernelSpec("f", b, 2 * k), float(x)) \
                        == (-1) ** k * kernel_eval(KernelSpec("h", b, 2 * k), float(x))

    def test_diagonal_positivity(self):
        for b in (0.1, 0.5, 2.0):
            for k in range(5):
                sign = (-1.0) ** k * kernel_eval(KernelSpec("h", b, 2 * k), 0.0)
                assert sign == pytest.approx(math.factorial(2 * k) / b ** (2 * k + 1))


class TestLargeArguments:
    @pytest.mark.parametrize("family", ["h", "l", "f"])
    @pytest.mark.parametrize("order, x", [(16, 1e20), (4, 1e80), (1, 1e160)])
    def test_far_tail_is_finite(self, family, order, x):
        """(1 + ix/b)^(m+1) overflows here; its reciprocal must not come back nan."""
        spec = KernelSpec(family, 1.0, order)
        vals = kernel_eval(spec, np.array([x, -x, 1e300]))
        assert np.all(np.isfinite(vals)) and np.all(np.abs(vals) <= 1e-300)
        assert math.isfinite(kernel_eval(spec, x))

    def test_within_the_pinned_bound_of_the_direct_power(self):
        """On |x| <= 1e3, where (1 + ix/b)^-(m+1) does not overflow, the values
        move from it by at most 4e-15 m!/b^(m+1), the kernel's scale at x = 0."""
        xs = np.concatenate([np.linspace(-1e3, 1e3, 4001),
                             np.random.default_rng(0).uniform(-30.0, 30.0, 2000)])
        worst = 0.0
        for family in ("h", "l", "f"):
            for order in range(17):
                for b in (0.05, 0.3, 1.0, 4.0):
                    m = order + (family == "l")
                    c = (-1) ** order if family == "f" else (-1j) ** order
                    direct = np.real(c * math.factorial(m) * b ** -(m + 1)
                                     * (1.0 + 1j * (xs / b)) ** -(m + 1))
                    got = kernel_eval(KernelSpec(family, b, order), xs)
                    worst = max(worst, np.max(np.abs(got - direct)) * b ** (m + 1)
                                / math.factorial(m))
        assert worst <= 4e-15

    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e3])
    def test_w_within_two_ulp_of_the_complex_reciprocal(self, b):
        """The real-arithmetic w against numpy's 1/(1 + iy), |y| <= 1e150."""
        rng = np.random.default_rng(1)
        y = np.concatenate([rng.uniform(-3.0, 3.0, 20000),
                            rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-150.0, 150.0, 20000),
                            [0.0, 1.0, -1.0, 1e150, -1e150]])
        x = y * b
        got = _inv_power(b, 1, x)
        want = np.reciprocal(1.0 + 1j * (x / b)) * b ** -1.0
        for part in ("real", "imag"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.all(np.abs(g - w) <= 2.0 * np.spacing(np.abs(w)))

    def test_scalar_gets_the_bits_of_the_same_x_in_an_array(self):
        """A scalar x gives bit for bit the value that x gives inside an array.

        numpy's complex reciprocal takes another path on a 0-d array than
        on a 1-d one, so a w from np.reciprocal(1 + iy) fails this; the
        real-arithmetic w of _inv_power does not."""
        rng = np.random.default_rng(3)
        xs = np.concatenate([[0.0, 1.0, -1.0, 1e150, -1e150],
                             rng.normal(0.0, 2.0, 200), np.geomspace(1e-6, 1e6, 100),
                             -np.geomspace(1e-6, 1e6, 100)])
        for family in ("h", "l", "f"):
            for order in range(9):
                for b in (0.032, 0.5, 1.59):
                    spec = KernelSpec(family, b, order)
                    scalars = np.array([kernel_eval(spec, float(x)) for x in xs])
                    assert np.array_equal(scalars.view(np.int64),
                                          kernel_eval(spec, xs).view(np.int64))

    def test_w_raises_no_warning_up_to_the_float_range(self):
        """y*y overflows past 1e154; the form in 1/y never squares |y| > 1."""
        y = np.array([1e154, -1e160, 1e200, 1e308, -1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _inv_power(1.0, 1, y)
        assert np.all(w.real >= 0.0) and np.all(w.real <= 1e-300)
        assert np.array_equal(w.imag, -1.0 / y)


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(DomainError):
            KernelSpec("g", 1.0)

    def test_bad_width(self):
        with pytest.raises(DomainError):
            KernelSpec("h", 0.0)

    def test_order_cap(self):
        for spec in (("h", 1.0, 17), ("f", 1.0, 17)):
            with pytest.raises(DomainError):
                KernelSpec(*spec)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(b=widths, x=points, n=orders)
    def test_parity(self, b, x, n):
        spec = KernelSpec("h", b, n)
        sign = 1.0 if n % 2 == 0 else -1.0
        assert kernel_eval(spec, -x) == pytest.approx(sign * kernel_eval(spec, x),
                                                      rel=1e-12, abs=1e-300)
        spec_l = KernelSpec("l", b, n)
        assert kernel_eval(spec_l, -x) == pytest.approx(
            sign * kernel_eval(spec_l, x), rel=1e-12, abs=1e-300)

    @settings(max_examples=120, deadline=None)
    @given(b=widths, x=points, n=orders)
    def test_scaling_law(self, b, x, n):
        lhs = kernel_eval(KernelSpec("h", b, n), x)
        rhs = b ** (-(n + 1)) * kernel_eval(KernelSpec("h", 1.0, n), x / b)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("b", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_even_derivative_boundedness(self, b, m):
        """sup |h^(2m)| b^(2m-1) (b^2+x^2) finite and stable under refinement."""
        def weighted_sup(n_grid):
            xs = np.linspace(-50 * b, 50 * b, n_grid)
            h_vals = np.abs(kernel_eval(KernelSpec("h", b, 2 * m), xs))
            l_vals = np.abs(kernel_eval(KernelSpec("l", b, 2 * m), xs))
            poly = b * b + xs ** 2
            return (float(np.max(h_vals * b ** (2 * m - 1) * poly)),
                    float(np.max(l_vals * b ** (2 * m) * poly)))

        coarse = weighted_sup(20001)
        fine = weighted_sup(40001)
        for c, f in zip(coarse, fine):
            assert math.isfinite(f)
            assert f <= c * 1.05 + 1e-9  # stable: refinement cannot blow up


class TestFourier:
    def test_table_values(self):
        assert kernel_fourier(KernelSpec("h", 1.0), 0.0) == pytest.approx(math.pi)
        assert kernel_fourier(KernelSpec("l", 1.0), 0.0) == 0.0
        assert kernel_fourier(KernelSpec("h", 1.0, 2), 1.0) == pytest.approx(
            -4.0 * math.pi ** 3 * math.exp(-2.0 * math.pi))

    def test_exponential_decay_shape(self):
        for b in (0.3, 1.0):
            for y in (0.5, 1.5):
                ratio = kernel_fourier(KernelSpec("h", b), y) \
                    / kernel_fourier(KernelSpec("h", b), 0.0)
                assert ratio == pytest.approx(math.exp(-2 * math.pi * b * y), rel=1e-12)

    def test_odd_order_h_unsupported(self):
        for spec in (KernelSpec("h", 1.0, 1), KernelSpec("h", 1.0, 3),
                     KernelSpec("l", 1.0, 1), KernelSpec("l", 1.0, 3)):
            with pytest.raises(UnsupportedError):
                kernel_fourier(spec, 0.5)

    @pytest.mark.parametrize("spec", [
        KernelSpec("h", 1.0), KernelSpec("h", 0.3), KernelSpec("l", 1.0),
        KernelSpec("l", 0.3), KernelSpec("h", 1.0, 2), KernelSpec("h", 0.3, 2),
        KernelSpec("h", 1.0, 4), KernelSpec("h", 0.3, 4),
        KernelSpec("l", 1.0, 2), KernelSpec("l", 1.0, 4),
        KernelSpec("h", 1.0, 6), KernelSpec("h", 1.0, 8),
        KernelSpec("f", 0.7, 1), KernelSpec("f", 0.7, 2),
        KernelSpec("f", 0.7, 3), KernelSpec("f", 0.7, 4),
        KernelSpec("f", 0.7, 8),
    ], ids=str)
    def test_quadrature_agreement(self, spec):
        for y in (0.0, 0.3, 1.0, 2.0):
            if y == 0.0:
                num, _ = quad(lambda x: kernel_eval(spec, x), 0, np.inf, limit=800)
            else:
                num, _ = quad(lambda x: kernel_eval(spec, x), 0, np.inf,
                              weight="cos", wvar=2 * math.pi * y, limit=800)
            assert abs(2 * num - kernel_fourier(spec, y)) < 1e-7

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_convolution_identity(self, k):
        """(f*f)(y) equals the transform of fhat^2, anchoring the pair chain."""
        spec = KernelSpec("f", 0.6, k)
        for y in (0.0, 0.5):
            conv, _ = quad(lambda u: kernel_eval(spec, u) * kernel_eval(spec, y - u),
                           -np.inf, np.inf, limit=800)
            dual, _ = quad(lambda al: kernel_fourier(spec, al) ** 2
                           * math.cos(2 * math.pi * al * y), 0, 40, limit=400)
            assert abs(conv - 2 * dual) < 1e-6
