"""Closed-form Poisson-kernel family and its Fourier transforms.

The three families are

* ``h``: h_b(x) = b / (b^2 + x^2) = Re{ 1/(b + ix) },
* ``l``: l_b(x) = (b^2 - x^2) / (b^2 + x^2)^2 = Re{ 1/(b + ix)^2 },
* ``f``: the parity-selected combination
  f_{k}(x) = Re{(-i)^k} h_b^(k)(x) + Re{(-i)^(k+1)} l_b^(k-1)(x),
  of which exactly one term survives depending on the parity of k.

Every derivative of every order comes from one complex closed form, so all
evaluations are machine precision; no recurrences, no symbolic algebra.
Fourier transforms use the convention  fhat(y) = int e^{-2 pi i x y} f(x) dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedError

FAMILIES = ("h", "l", "f")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel function: family, width b, and derivative order.

    For family ``f`` the derivative order is implied by ``k_parity_index``
    and must not be set independently.
    """

    family: str
    b: float
    deriv_order: int = 0
    k_parity_index: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise DomainError(f"kernel width b={self.b} must be positive")
        if self.family == "f":
            if self.k_parity_index is None or self.k_parity_index < 0:
                raise DomainError("family f requires k_parity_index >= 0")
            if self.deriv_order != 0:
                raise DomainError(
                    "family f derives its order from k_parity_index; "
                    "deriv_order must be left at 0")
            if self.k_parity_index > 16:
                raise DomainError("k_parity_index above 16 unsupported")
        else:
            if self.k_parity_index is not None:
                raise DomainError("k_parity_index is only valid for family f")
            if not (0 <= self.deriv_order <= 16):
                raise DomainError(f"deriv_order={self.deriv_order} outside [0, 16]")


def _inv_power(b: float, m: int, x):
    """(b + ix)^(-m) as b^(-m) (1 + ix/b)^(-m).

    Raising b + ix itself would scale its imaginary part by b^(m-1) and
    underflow into subnormals for tiny x, losing relative precision.
    """
    return b ** (-m) * (1.0 + 1j * (np.asarray(x) / b)) ** (-m)


def _h_deriv(b: float, n: int, x):
    """(h_b)^(n)(x) = Re{ (-i)^n n! (b + ix)^(-(n+1)) }."""
    return np.real((-1j) ** n * math.factorial(n) * _inv_power(b, n + 1, x))


def _l_deriv(b: float, n: int, x):
    """(l_b)^(n)(x) = Re{ (-i)^n (n+1)! (b + ix)^(-(n+2)) }."""
    return np.real((-1j) ** n * math.factorial(n + 1) * _inv_power(b, n + 2, x))


def _f_parity_coeffs(k: int) -> tuple[int, int]:
    """(Re{(-i)^k}, Re{(-i)^(k+1)}) as exact integers."""
    re_table = (1, 0, -1, 0)
    return re_table[k % 4], re_table[(k + 1) % 4]


def kernel_eval(spec: KernelSpec, x):
    """Evaluate the kernel (or its derivative) at x; accepts arrays."""
    x_arr = np.asarray(x, dtype=float)
    if spec.family == "h":
        out = _h_deriv(spec.b, spec.deriv_order, x_arr)
    elif spec.family == "l":
        out = _l_deriv(spec.b, spec.deriv_order, x_arr)
    else:
        k = spec.k_parity_index
        c_h, c_l = _f_parity_coeffs(k)
        if c_h:
            out = c_h * _h_deriv(spec.b, k, x_arr)
        else:
            out = c_l * _l_deriv(spec.b, k - 1, x_arr)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def kernel_fourier(spec: KernelSpec, y):
    """Closed-form Fourier transform of the kernel at frequency y.

    h_b at order 0 maps to pi e^{-2 pi b |y|}; l_b at order 0 to
    2 pi^2 |y| e^{-2 pi b |y|}; h_b at even order 2k picks up the factor
    (2 pi i y)^{2k} = (-1)^k (2 pi y)^{2k}.  Odd-order transforms of h are
    not provided (only even orders ever appear downstream).
    """
    y_arr = np.asarray(y, dtype=float)
    ay = np.abs(y_arr)
    decay = np.exp(-2.0 * math.pi * spec.b * ay)
    if spec.family == "h":
        n = spec.deriv_order
        if n % 2:
            raise UnsupportedError("odd-order family-h transforms are not provided")
        k = n // 2
        out = (-1.0) ** k * 2.0 ** n * math.pi ** (n + 1) * y_arr ** n * decay
    elif spec.family == "l":
        n = spec.deriv_order
        base = 2.0 * math.pi ** 2 * ay * decay
        if n == 0:
            out = base
        else:
            # (2 pi i y)^n times the base transform; imaginary for odd n
            if n % 2:
                raise UnsupportedError("odd-order family-l transforms are not provided")
            out = (-1.0) ** (n // 2) * (2.0 * math.pi) ** n * y_arr ** n * base
    else:
        k = spec.k_parity_index
        even = 1.0 if k % 2 == 0 else 0.0
        odd = 1.0 - even
        poly = even * y_arr ** k + odd * (y_arr ** (k - 1) if k >= 1 else 0.0) * ay
        out = poly * (-1.0) ** k * 2.0 ** k * math.pi ** (k + 1) * decay
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(out)
    return out


def h_even_deriv_at_zero(b: float, k: int) -> float:
    """(-1)^k (h_b)^(2k)(0) = (2k)! / b^(2k+1), always positive."""
    return math.factorial(2 * k) / b ** (2 * k + 1)
