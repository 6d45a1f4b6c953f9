"""Closed-form predicted moment coefficients and their consistency checks.

Under the pair-correlation hypothesis, the continuous moment I_k(a,T)
grows like c_k(a) T (log T)^(2k+2) with

    c_k(a) = (2k+1)!/(2a)^(2k+2)
             - sum_{m=1}^{2k+1} m (2k)!/(2k+1-m)! e^(-2a)/(2a)^(m+1),

and the discrete moment D_k(a,T) like d_k(a) T (log T)^(2k+2) with
d_k(a) = c_k(a/2)/(2 pi).  The same c_k(a) equals the elementary integral
int_0^1 x^(2k+1) e^(-2ax) dx + int_1^inf x^(2k) e^(-2ax) dx, which
``gr_identity_residual`` verifies by composite Gauss-Legendre quadrature
in longdouble, guarded by a panel-halving comparison that raises
PrecisionError when the two rules disagree.  Factorials are exact
integers up to k = 8; beyond that the evaluation refuses, with
OrderLimitError, rather than lose precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, OrderLimitError, PrecisionError, RangeError
from .pair_correlation import FGrid, f_window_integral

_K_LIMIT = 8


@dataclass(frozen=True)
class CoefficientResult:
    k: int
    a: float
    value: float
    target: str  # "I_continuous" or "D_discrete"

    def __post_init__(self):
        if self.target not in ("I_continuous", "D_discrete"):
            raise DomainError(f"unknown coefficient target {self.target!r}")
        if not self.value > 0.0:
            raise DomainError(
                f"coefficient must be positive, got {self.value} (k={self.k}, a={self.a})")


def _validate(k: int, a: float) -> None:
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k > _K_LIMIT:
        raise OrderLimitError(
            f"k={k} above {_K_LIMIT}: factorial evaluation would lose precision")
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError("a must be positive")


def _closed_form(k: int, twoa) -> float:
    """(2k+1)!/x^(2k+2) - sum_m m (2k)!/(2k+1-m)! e^(-x)/x^(m+1) at x=2a.

    Factorial coefficients are exact integers; passing a longdouble for
    ``twoa`` evaluates the whole expression in extended precision.
    """
    one = twoa / twoa
    head = math.factorial(2 * k + 1) * one / twoa ** (2 * k + 2)
    decay = np.exp(-twoa) if isinstance(twoa, np.longdouble) else math.exp(-twoa)
    tail = 0.0 * one
    for m in range(1, 2 * k + 2):
        coeff = m * math.factorial(2 * k) // math.factorial(2 * k + 1 - m)
        tail = tail + coeff * decay / twoa ** (m + 1)
    return head - tail


def coefficient_c(k: int, a: float) -> CoefficientResult:
    """Predicted coefficient of T (log T)^(2k+2) in the continuous moment."""
    _validate(k, a)
    return CoefficientResult(k, a, _closed_form(k, 2.0 * a), "I_continuous")


def coefficient_d(k: int, a: float) -> CoefficientResult:
    """Predicted coefficient for the discrete moment: c_k(a/2) / (2 pi)."""
    _validate(k, a)
    return CoefficientResult(k, a, _closed_form(k, a) / (2.0 * math.pi), "D_discrete")


#: Gauss-Legendre nodes per panel of the identity quadrature
_GL_NODES = 20


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1] in longdouble.

    ``leggauss`` gives them to float64 accuracy; Newton steps on the
    three-term Legendre recurrence, run in longdouble, finish the nodes.
    """
    x = leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        p_prev, p = np.ones_like(x), x
        for m in range(1, n):
            p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
        dp = n * (x * p - p_prev) / (x * x - 1)
        x = x - p / dp
    w = 2 / ((1 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre_longdouble(power: int, a: float, lo: float, hi: float,
                               n_panels: int) -> np.longdouble:
    """Composite Gauss-Legendre of x^power e^(-2ax) on [lo, hi] in extended precision.

    The identity this feeds is checked at absolute 1e-8 against targets as
    large as ~1e7, i.e. near the float64 noise floor, so the quadrature side
    runs in longdouble.  The rule runs on n_panels and on 2 n_panels equal
    panels; their difference guards the truncation error, and the value is
    the finer rule.
    """
    x, w = _gauss_legendre(_GL_NODES)

    def rule(m: int) -> np.longdouble:
        edges = np.linspace(np.longdouble(lo), np.longdouble(hi), m + 1)
        half = (edges[1] - edges[0]) / 2
        xs = np.add.outer(edges[:-1] + half, half * x)
        ys = xs ** power * np.exp(np.longdouble(-2.0 * a) * xs)
        return half * np.sum(ys @ w)

    coarse = rule(n_panels)
    fine = rule(2 * n_panels)
    if abs(float(fine - coarse)) > 1e-9 * max(1.0, abs(float(fine))):
        raise PrecisionError("identity quadrature failed to converge")
    return fine


def gr_identity_residual(k: int, a: float) -> float:
    """|quadrature of the split Gamma integrals minus the closed form|.

    int_0^1 x^(2k+1) e^(-2ax) dx + int_1^cut x^(2k) e^(-2ax) dx + tail,
    with the cut chosen so the analytic tail bound is below 1e-12 absolute
    (the comparison is against an absolute residual threshold).  Both
    integrals use composite Gauss-Legendre with ``_GL_NODES`` nodes per
    panel in longdouble: [0, 1] as one panel, [1, cut] in panels at most
    1/(2a) wide, over which e^(-2ax) falls by at most a factor e.  Each
    part is summed again on panels of half that width, which gives the
    value; a difference above 1e-9 relative between the two sums raises
    PrecisionError.
    """
    _validate(k, a)

    def tail_majorant(cut: float) -> float:
        # beyond cut > k/a the integrand decays faster than the geometric
        # envelope cut^2k e^(-2a x); integrate that envelope
        return cut ** (2 * k) * math.exp(-2 * a * cut) / (2 * a * (1.0 - k / (a * cut)))

    cut = max(2.0, 4.0 * k / a + 2.0)
    while tail_majorant(cut) > 1e-12:
        cut *= 1.5
    part1 = _gauss_legendre_longdouble(2 * k + 1, a, 0.0, 1.0, 1)
    part2 = _gauss_legendre_longdouble(2 * k, a, 1.0, cut, math.ceil(2.0 * a * (cut - 1.0)))
    total = part1 + part2 + np.longdouble(tail_majorant(cut))
    closed = _closed_form(k, np.longdouble(2.0) * np.longdouble(a))
    return abs(float(total - closed))


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
    _validate(k, b)
    if grid.alpha_max < 3.0:
        raise RangeError("grid must reach alpha >= 3 for the shifted windows")
    sel = grid.alphas >= 1.0
    xs = grid.alphas[sel] - 1.0
    ys = grid.values[sel]
    if xs.size < 2 or xs[0] > 1e-9:
        raise RangeError("grid must sample alpha = 1 for the shifted integral")
    weight = (xs + 1.0) ** (2 * k) * np.exp(-b * xs)
    lhs = float(np.trapezoid(weight * ys, xs))
    rhs = sum(math.comb(2 * k, j) * math.factorial(j) / b ** (j + 1)
              for j in range(2 * k + 1))
    windows = []
    for c, d in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.0)):
        avg = f_window_integral(grid, 1.0 + c, d - c) / (d - c)
        windows.append((c, d, avg))
    return TauberianReport(lhs, float(rhs), tuple(windows), window_mass_sup(grid))
