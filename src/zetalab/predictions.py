"""Closed-form predicted moment coefficients and their consistency checks.

Under the pair-correlation hypothesis, the continuous moment I_k(a,T)
grows like c_k(a) T (log T)^(2k+2) with

    c_k(a) = (2k+1)!/(2a)^(2k+2)
             - sum_{m=1}^{2k+1} m (2k)!/(2k+1-m)! e^(-2a)/(2a)^(m+1),

and the discrete moment D_k(a,T) like d_k(a) T (log T)^(2k+2) with
d_k(a) = c_k(a/2)/(2 pi).  The same c_k(a) equals the elementary integral
int_0^1 x^(2k+1) e^(-2ax) dx + int_1^inf x^(2k) e^(-2ax) dx, which
``gr_identity_residual`` verifies in longdouble: Gauss-Legendre on [0, 1],
guarded by a one- against two-panel comparison that raises PrecisionError
when they disagree, and Gauss-Laguerre on the tail, exact for every k up
to 8 (Golub & Welsch, Math. Comp. 23, 1969).  Factorials are exact
integers up to k = 8; beyond that the evaluation refuses, with
OrderLimitError, rather than lose precision.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, OrderLimitError, PrecisionError, RangeError
from .pair_correlation import FGrid, f_window_integral

_K_LIMIT = 8


def validate(k: int, a: float, name: str = "a") -> None:
    """Refuse a negative k, a k above the factorial limit, or an ``a`` that is
    not positive and finite; ``name`` is the caller's name for ``a``."""
    if not isinstance(k, numbers.Integral):
        raise DomainError(f"k={k!r} must be an integer")
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k > _K_LIMIT:
        raise OrderLimitError(
            f"k={k} above {_K_LIMIT}: factorial evaluation would lose precision")
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"{name}={a} must be positive and finite")


def _closed_form(k: int, twoa) -> float:
    """(2k+1)!/x^(2k+2) - sum_m m (2k)!/(2k+1-m)! e^(-x)/x^(m+1) at x=2a.

    Below x = 0.2, where those terms cancel, the identity's two integrals as
    positive series: e^(-x) sum_{m>=0} n! x^m/(n+1+m)! with n = 2k+1, and
    e^(-x) sum_{j<n} (2k)!/j! x^(j-n).  Factorial coefficients are exact
    integers; passing a longdouble for ``twoa`` evaluates the whole
    expression in extended precision.  A non-finite value raises OverflowError.
    """
    one = twoa / twoa
    decay = np.exp(-twoa) if isinstance(twoa, np.longdouble) else math.exp(-twoa)
    n = 2 * k + 1
    if twoa < 0.2:
        head, term, m = 0.0 * one, one / (n + 1), 0
        while head + term != head:
            head, term, m = head + term, term * twoa / (n + 2 + m), m + 1
        tail = sum(math.factorial(n - 1) // math.factorial(j) * twoa ** (j - n)
                   for j in reversed(range(n)))
        value = decay * (head + tail)
    else:
        tail = 0.0 * one
        for m in range(1, n + 1):
            coeff = m * math.factorial(n - 1) // math.factorial(n - m)
            tail = tail + coeff * decay / twoa ** (m + 1)
        value = math.factorial(n) * one / twoa ** (n + 1) - tail
    if not math.isfinite(value):
        raise OverflowError(f"c_{k} at 2a={twoa} leaves the float range")
    return value


@contextlib.contextmanager
def _float_range(name: str, value: float):
    """An overflow or a division by zero in the block: RangeError naming ``name``."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise RangeError(f"{name}={value} is out of range: "
                         "its powers leave the float range") from exc


def _positive(value: float, k: int, a: float) -> float:
    """``value``, or DomainError when the closed form is not positive (a fault)."""
    if not value > 0.0:
        raise DomainError(f"coefficient must be positive, got {value} (k={k}, a={a})")
    return value


def coefficient_c(k: int, a: float) -> float:
    """Predicted coefficient of T (log T)^(2k+2) in the continuous moment."""
    validate(k, a)
    with _float_range("a", a):
        return _positive(_closed_form(k, 2.0 * a), k, a)


def coefficient_d(k: int, a: float) -> float:
    """Predicted coefficient for the discrete moment: c_k(a/2) / (2 pi)."""
    validate(k, a)
    with _float_range("a", a):
        return _positive(_closed_form(k, a) / (2.0 * math.pi), k, a)


#: nodes of each Gauss rule behind the identity residual
_GL_NODES = 20


@lru_cache(maxsize=None)
def _gauss_rules(n: int) -> tuple[np.ndarray, ...]:
    """n-point Gauss-Legendre on [0, 1] and Gauss-Laguerre on [0, inf) in longdouble.

    ``leggauss`` and ``laggauss`` give the nodes to float64 accuracy; three
    Newton steps on each three-term recurrence, run in longdouble, finish
    them.  The weights are 2/((1-x^2) P_n'(x)^2), halved for [0, 1], and
    1/(u L_n'(u)^2).  Returns (x, w, u, v).
    """
    def polish(x, p1, step, deriv):
        for _ in range(3):
            p_prev, p = np.ones_like(x), p1(x)
            for m in range(1, n):
                p_prev, p = p, step(m, x, p, p_prev)
            dp = deriv(x, p, p_prev)
            x = x - p / dp
        return x, dp

    x, dp = polish(leggauss(n)[0].astype(np.longdouble), lambda x: x,
                   lambda m, x, p, q: ((2 * m + 1) * x * p - m * q) / (m + 1),
                   lambda x, p, q: n * (x * p - q) / (x * x - 1))
    u, du = polish(laggauss(n)[0].astype(np.longdouble), lambda u: 1 - u,
                   lambda m, u, p, q: ((2 * m + 1 - u) * p - m * q) / (m + 1),
                   lambda u, p, q: n * (p - q) / u)
    rules = ((1 + x) / 2, 1 / ((1 - x * x) * dp * dp), u, 1 / (u * du * du))
    for arr in rules:
        arr.flags.writeable = False
    return rules


def gr_identity_residual(k: int, a: float) -> float:
    """|int_0^1 x^(2k+1) e^(-2ax) dx + int_1^inf x^(2k) e^(-2ax) dx - c_k(a)|.

    Both integrals are summed with ``_GL_NODES``-point Gauss rules in
    longdouble, since targets as large as ~1e7 are checked at absolute 1e-8.
    The head is Gauss-Legendre over [0, 1] as one panel and as two; their
    difference above 1e-9 relative raises PrecisionError, and the value is
    the two-panel sum.  With x = 1 + u/(2a) the tail is
    e^(-2a)/(2a) int_0^inf (1 + u/(2a))^(2k) e^(-u) du, which Gauss-Laguerre
    integrates exactly for 2k <= 2 _GL_NODES - 1.
    """
    validate(k, a)
    x, w, u, v = _gauss_rules(_GL_NODES)
    twoa = np.longdouble(2.0) * np.longdouble(a)

    def head(panels: int) -> np.longdouble:
        xs = (np.arange(panels)[:, None] + x) / panels
        return np.sum(xs ** (2 * k + 1) * np.exp(-twoa * xs) @ w) / panels

    coarse, fine = head(1), head(2)
    if abs(float(fine - coarse)) > 1e-9 * max(1.0, abs(float(fine))):
        raise PrecisionError("identity quadrature failed to converge")
    tail = np.exp(-twoa) / twoa * np.sum(v * (1 + u / twoa) ** (2 * k))
    return abs(float(fine + tail - _closed_form(k, twoa)))


# --------------------------------------------------------------------------
# Tauberian comparator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TauberianReport:
    """Side-by-side of the weighted-integral and window-average forms.

    No pass/fail: the two sides are asymptotically equivalent, which a
    finite zero table can illustrate but never confirm.
    """

    lhs_a: float
    rhs_a: float
    window_averages: tuple[tuple[float, float, float], ...]
    mass_sup: float

    @property
    def ratio(self) -> float:
        return self.lhs_a / self.rhs_a


def window_mass_sup(grid: FGrid) -> float:
    """sup over beta of (int_0^beta F) / (beta + 1), a boundedness diagnostic."""
    xs, ys = grid.alphas, grid.values
    if xs.size < 2:
        return 0.0
    cums = np.concatenate(([0.0], np.cumsum(np.diff(xs) * 0.5 * (ys[1:] + ys[:-1]))))
    return float(np.max(cums / (xs + 1.0)))


def tauberian_compare(grid: FGrid, k: int, b: float) -> TauberianReport:
    """Weighted-integral form vs window averages of the shifted F grid.

    lhs_A = int_0^(amax-1) F(u+1) (u+1)^2k e^(-bu) du  (trapezoid on grid),
    rhs_A = int_0^inf (u+1)^2k e^(-bu) du  (exact via binomial expansion),
    window_averages = mean of F(u+1) over u in (0,1), (1,2), (0,2).
    """
    validate(k, b, "b")
    with _float_range("b", b):
        rhs = sum(math.comb(2 * k, j) * math.factorial(j) / b ** (j + 1)
                  for j in range(2 * k + 1))
        if math.isinf(rhs):
            raise OverflowError
    if grid.alpha_max < 3.0:
        raise RangeError("grid must reach alpha >= 3 for the shifted windows")
    # a node step * m that rounds just below 1 still samples alpha = 1
    sel = grid.alphas >= 1.0 - 1e-9
    xs = grid.alphas[sel] - 1.0
    ys = grid.values[sel]
    if xs.size < 2 or abs(xs[0]) > 1e-9:
        raise RangeError("grid must sample alpha = 1 for the shifted integral")
    weight = (xs + 1.0) ** (2 * k) * np.exp(-b * xs)
    lhs = float(np.trapezoid(weight * ys, xs))
    windows = []
    for c, d in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.0)):
        avg = f_window_integral(grid, 1.0 + c, d - c) / (d - c)
        windows.append((c, d, avg))
    return TauberianReport(lhs, rhs, tuple(windows), window_mass_sup(grid))
