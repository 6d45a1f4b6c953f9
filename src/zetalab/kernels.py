"""Closed-form Poisson-kernel family and its Fourier transforms.

The three families are

* ``h``: h_b(x) = b / (b^2 + x^2) = Re{ 1/(b + ix) },
* ``l``: l_b(x) = (b^2 - x^2) / (b^2 + x^2)^2 = Re{ 1/(b + ix)^2 },
* ``f``: f_k = Re{(-i)^k} h_b^(k) + Re{(-i)^(k+1)} l_b^(k-1), of which
  exactly one term survives depending on the parity of k; f_k is
  ``KernelSpec("f", b, k)``, so even orders give f_2k = (-1)^k h_b^(2k).

Every kernel of every order is one closed form,

    kernel(x) = Re{ c m! (b + ix)^(-(m+1)) },

with the constant c and the index m read off the spec:

    ============  ==========  =====
    kernel        c           m
    ============  ==========  =====
    h_b^(n)       (-i)^n      n
    l_b^(n)       (-i)^n      n + 1
    f_k           (-1)^k      k
    ============  ==========  =====

so all evaluations are machine precision; no recurrences, no symbolic
algebra.  Fourier transforms use the convention
fhat(y) = int e^{-2 pi i x y} f(x) dx, under which the closed form maps to

    fhat(y) = pi c (2 pi |y|)^m e^{-2 pi b |y|}.

That is real only for real c; the transforms of odd-order h and l, where
c is imaginary, are not provided (only real ones appear downstream).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedError

FAMILIES = ("h", "l", "f")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel function: family, width b, and order.

    The order is the n of h_b^(n) and l_b^(n), and the k of f_k.
    """

    family: str
    b: float
    deriv_order: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise DomainError(f"kernel width b={self.b} must be positive")
        if not isinstance(self.deriv_order, numbers.Integral):
            raise DomainError(f"deriv_order={self.deriv_order!r} must be an integer")
        if not (0 <= self.deriv_order <= 16):
            raise DomainError(f"deriv_order={self.deriv_order} outside [0, 16]")


def _closed_form(spec: KernelSpec) -> tuple[complex, int]:
    """(c, m) with kernel(x) = Re{ c m! (b + ix)^(-(m+1)) }."""
    n = spec.deriv_order
    if spec.family == "f":
        return (-1) ** n, n
    return (-1j) ** n, n if spec.family == "h" else n + 1


def _inv_power(b: float, m: int, x):
    """(b + ix)^(-m) as b^(-m) w^m with w = 1/(1 + ix/b).

    Raising b + ix itself would scale its imaginary part by b^(m-1) and
    underflow into subnormals for tiny x, losing relative precision.
    |w| <= 1, so w^m cannot overflow, where (1 + ix/b)^m does once
    |x/b|^m passes the float range and its reciprocal comes back nan.
    The product is built by repeated multiplication in place, cheaper than
    numpy's general complex power, starting from b^(-m) w so that no
    partial product falls below the result in magnitude.

    w is Smith's division of 1 by 1 + iy, y = x/b, in real arithmetic:
    u/D - i c/D with u = 1/max(1, |y|), c = clip(y, -1, 1) and D = u + c y,
    written into the parts of one complex buffer.  That is (1 - iy)/(1 + y^2)
    for |y| <= 1 and the same in 1/y for |y| > 1, so no intermediate
    exceeds |y| (y^2 would overflow past 1e154).  On arrays it equals
    np.reciprocal(1 + iy) bit for bit; it stays because on a scalar x
    np.reciprocal takes another path than inside an array: 12,226 of the
    32,805 values of ``test_scalar_gets_the_bits_of_the_same_x_in_an_array``
    then moved, by up to 9.7e-13 relative.
    """
    y = np.divide(x, -b, out=np.empty(np.shape(x)))   # -y, so that Im w = c/D
    u = np.abs(y, out=np.empty_like(y))
    np.maximum(u, 1.0, out=u)
    np.divide(1.0, u, out=u)
    c = np.clip(y, -1.0, 1.0)
    den = np.multiply(c, y, out=y)
    den += u
    w = np.empty(den.shape, dtype=complex)
    np.divide(u, den, out=w.real)
    np.divide(c, den, out=w.imag)
    power = w * b ** (-m)
    for _ in range(m - 1):
        power *= w
    return power


def kernel_eval(spec: KernelSpec, x):
    """Evaluate the kernel (or its derivative) at x; accepts arrays."""
    c, m = _closed_form(spec)
    out = np.real(c * math.factorial(m) * _inv_power(spec.b, m + 1, np.asarray(x, dtype=float)))
    return float(out) if np.ndim(x) == 0 else out


def kernel_fourier(spec: KernelSpec, y):
    """Closed-form Fourier transform pi c (2 pi |y|)^m e^{-2 pi b |y|} at y.

    Raises UnsupportedError for odd-order h and l, whose c is imaginary.
    """
    c, m = _closed_form(spec)
    if c.imag:
        raise UnsupportedError(
            f"odd-order family-{spec.family} transforms are not provided")
    ay = np.abs(np.asarray(y, dtype=float))
    out = math.pi * c.real * (2.0 * math.pi * ay) ** m * np.exp(-2.0 * math.pi * spec.b * ay)
    return float(out) if np.ndim(y) == 0 else out
