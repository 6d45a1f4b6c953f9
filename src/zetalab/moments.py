"""Second moments of the derivatives of zeta'/zeta, four different ways.

I_k(a,T) is the integral of |(zeta'/zeta)^(k)(1/2 + a/log T + it)|^2 over
t in [1, T].  It is computed

* by a uniform trapezoid sweep with Gregory end corrections against the
  Euler-Maclaurin engine (``i_k_quadrature``) -- the ground truth, whose
  error adds step halving, the engine's per-node error and rounding;
* from the zero-pair sum with the Poisson-kernel derivative
  (``i_k_from_zeros``, one ``pair_correlation.pair_sum`` call);
* from the sampled pair-correlation function (``i_k_from_f``).

D_k(a,T) sums (zeta'/zeta)^(2k) right of each zero (``d_k``); ``ratio_of``
forms I_k(a,T) / (2 pi D_k(2a,T)) for the CLI's discrete table.

The quadrature reads no zero table and never touches the zero-sum
representation of the log-derivative, so the quadrature/zero-pair
comparison is a genuine two-sided test rather than a tautology.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (DivisionError, DomainError, PrecisionError, RangeError)
from .kernels import KernelSpec, kernel_eval
from .pair_correlation import FGrid, pair_sum
from .zero_catalog import ZeroTable
from .zeta_engine import TWO_PI, ZetaEngine

KINDS = ("I_quadrature", "I_zero_pairs", "I_from_F", "D_discrete")

_EPS = sys.float_info.epsilon

#: quadrature nodes per feature width a/log T of the integrand
NODES_PER_WIDTH = 16
#: order of the Gregory end corrections: exact for polynomials of degree < 6
GREGORY_ORDER = 6
#: samples per evaluation block; even, so every block starts on a node of
#: the halved rule
_SEGMENT = 1 << 16


@dataclass(frozen=True)
class MomentEstimate:
    """One moment value with its method tag and error estimate."""

    kind: str
    k: int
    a: float
    T: float
    value: float
    err_estimate: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown estimate kind {self.kind!r}")
        if self.kind.startswith("I_") and not self.value >= 0.0:
            raise DomainError(f"{self.kind} produced negative value {self.value}")
        if not (self.err_estimate >= 0.0 and math.isfinite(self.err_estimate)):
            raise DomainError("err_estimate must be finite and nonnegative")


def check_envelope(k: int, a: float, t: float) -> None:
    """Supported envelope is k <= 4, a in [0.1, 5], T in [200, 6000].

    T below 200 is tolerated for degenerate unit checks; T above 6000 and
    the k/a limits are hard errors (double precision runs out of comfort).
    """
    if not (0 <= k <= 4):
        raise DomainError(f"k={k} outside [0, 4]")
    if not (0.1 <= a <= 5.0):
        raise DomainError(f"a={a} outside [0.1, 5]")
    if not (2.0 <= t <= 6000.0):
        raise DomainError(f"T={t} outside [2, 6000]")


# --------------------------------------------------------------------------
# Direct quadrature
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gregory_end_weights(order: int) -> tuple[float, ...]:
    """The first `order` weights of the unit-step Gregory rule.

    They are the trapezoid weights plus the Euler-Maclaurin end correction
    sum_{j<order} g_j Delta^j f_0 from forward differences, where -g_j is
    the coefficient of x^(j+1) in x / log(1+x) (g = 1/12, -1/24, 19/720,
    ...).  The far end uses the same weights mirrored.
    """
    log_series = [Fraction((-1) ** i, i + 1) for i in range(order + 1)]
    recip = [Fraction(1)]                    # x / log(1+x), term by term
    for m in range(1, order + 1):
        recip.append(-sum(log_series[i] * recip[m - i] for i in range(1, m + 1)))
    w = [Fraction(1, 2)] + [Fraction(1)] * (order - 1)
    for j in range(1, order):
        for i in range(j + 1):
            w[i] -= recip[j + 1] * math.comb(j, i) * (-1) ** (j - i)
    return tuple(float(x) for x in w)


def _gregory_weights(i0: int, i1: int, n: int) -> np.ndarray:
    """Weights (without the step factor) of nodes i0..i1-1 of an n-interval rule."""
    corr = np.array(_gregory_end_weights(GREGORY_ORDER)) - 1.0
    idx = np.arange(i0, i1)
    w = np.ones(idx.size)
    left = idx < corr.size
    w[left] += corr[idx[left]]
    right = n - idx < corr.size
    w[right] += corr[n - idx[right]]
    return w


def i_k_quadrature_batch(ks: list[int], a: float, t: float,
                         engine: ZetaEngine) -> list[MomentEstimate]:
    """All requested orders from one uniform sweep of [1, T].

    The integrand is analytic in a strip of half-width about a/log T, so
    the trapezoid rule converges geometrically on it; the grid puts
    NODES_PER_WIDTH nodes on each width a/log T and Gregory weights
    correct the two ends.  The value is the fine rule.  The error estimate
    adds the difference from the rule on the even nodes (twice the step);
    the rule on 2|f_i| e_i + e_i^2, which bounds | |f_i + d|^2 - |f_i|^2 |
    for every |d| <= e_i, the engine's propagated error at node i; and the
    bound (n+1) eps sum w_i f_i h on the rounding of the weighted sum.
    """
    ks = list(ks)
    if not ks:
        raise DomainError("no orders k requested")
    for k in ks:
        check_envelope(k, a, t)
    log_t = math.log(t)
    sigma = 0.5 + a / log_t
    # the floor keeps the two end corrections of the halved rule apart
    half_n = max(math.ceil(NODES_PER_WIDTH * (t - 1.0) * log_t / (2.0 * a)),
                 2 * GREGORY_ORDER)
    n = 2 * half_n
    h = (t - 1.0) / n

    fine, coarse, engine_err = [], [], []
    for i0 in range(0, n + 1, _SEGMENT):
        i1 = min(i0 + _SEGMENT, n + 1)
        w = _gregory_weights(i0, i1, n)
        w_half = _gregory_weights(i0 // 2, (i1 + 1) // 2, half_n)
        vals, errs = engine.log_deriv_uniform(sigma, 1.0 + i0 * h, h, i1 - i0, max(ks))
        f, e = np.abs(vals[:, ks]), errs[:, ks]
        fine.append(w @ f ** 2)
        coarse.append(2.0 * (w_half @ f[::2] ** 2))
        engine_err.append(w @ ((2.0 * f + e) * e))

    out = []
    for j, k in enumerate(ks):
        value, halved, propagated = (math.fsum(float(p[j]) for p in parts) * h
                                     for parts in (fine, coarse, engine_err))
        if abs(value - halved) > 0.05 * abs(value):
            raise PrecisionError(
                f"step-halving disagreement {abs(value - halved):.3e} exceeds "
                f"5% of I_{k}({a},{t})")
        # the Gregory weights are positive, so sum w_i f_i h is the value
        err = abs(value - halved) + propagated + (n + 1) * _EPS * value
        out.append(MomentEstimate("I_quadrature", k, a, t, value, err))
    return out


def i_k_quadrature(k: int, a: float, t: float, engine: ZetaEngine) -> MomentEstimate:
    """Second moment of (zeta'/zeta)^(k) on [1, T] by the Gregory-trapezoid sweep."""
    return i_k_quadrature_batch([k], a, t, engine)[0]


# --------------------------------------------------------------------------
# Zero-pair sum
# --------------------------------------------------------------------------

def i_k_from_zeros(k: int, a: float, t: float, zeros: ZeroTable) -> MomentEstimate:
    """Second moment from the Poisson-kernel pair sum over zero ordinates.

    value = 1 / (2^2k pi^2k) * (log T)^(2k+1)
            * sum_{g,g'} f_2k((g-g') log T / 2 pi) w(g-g'),

    with f_2k = (-1)^k h^(2k) the kernel of width a/pi.

    The error channel carries the analytic remainder scale
    T (log T)^(2k+1) / a^(2k-1) + (log T)^(2k+4) / a^(2k+2) with unit
    constant, reported alongside rather than added to the value.
    """
    check_envelope(k, a, t)
    log_t = math.log(t)
    spec = KernelSpec("f", a / math.pi, 2 * k)
    total = pair_sum(zeros, t, lambda d: kernel_eval(spec, d * (log_t / TWO_PI)))
    pref = 1.0 / (2.0 ** (2 * k) * math.pi ** (2 * k)) * log_t ** (2 * k + 1)
    value = pref * total
    err = (t * log_t ** (2 * k + 1) / a ** (2 * k - 1)
           + log_t ** (2 * k + 4) / a ** (2 * k + 2))
    return MomentEstimate("I_zero_pairs", k, a, t, value, err)


# --------------------------------------------------------------------------
# Pair-correlation integral
# --------------------------------------------------------------------------

def _gamma_q(n: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(n, x) = e^{-x} sum_{j<n} x^j / j!, n >= 1."""
    term = total = math.exp(-x)
    for j in range(1, n):
        term *= x / j
        total += term
    return total


def i_k_from_f(k: int, a: float, t: float, grid: FGrid) -> MomentEstimate:
    """Second moment as T (log T)^(2k+2) int_0^amax alpha^2k e^(-2a alpha) F.

    Evenness of F folds the two-sided integral onto [0, infinity); the
    sampled grid is integrated by the trapezoid rule.  The error estimate
    combines the trapezoid step-doubling difference with the truncated-tail
    bound (F frozen at its last sampled value beyond the grid).
    """
    check_envelope(k, a, t)
    if grid.T != t:
        raise DomainError(f"grid was sampled at T={grid.T}, not {t}")
    if grid.alpha_max < 4.0:
        raise RangeError(
            f"F grid reaches only alpha={grid.alpha_max}; need at least 4")
    alphas = grid.alphas
    vals = grid.values
    log_t = math.log(t)
    weight = alphas ** (2 * k) * np.exp(-2.0 * a * alphas)
    integrand = weight * vals
    integral = float(np.trapezoid(integrand, alphas))
    half = float(np.trapezoid(integrand[::2], alphas[::2]))
    x = 2.0 * a * grid.alpha_max
    tail = (math.gamma(2 * k + 1) / (2.0 * a) ** (2 * k + 1)
            * _gamma_q(2 * k + 1, x) * float(vals[-1]))
    pref = t * log_t ** (2 * k + 2)
    value = pref * integral
    err = pref * (abs(integral - half) + tail)
    return MomentEstimate("I_from_F", k, a, t, value, err)


# --------------------------------------------------------------------------
# Discrete moment and the moment/discrete-moment relation
# --------------------------------------------------------------------------

def d_k(k: int, a: float, t: float, zeros: ZeroTable,
        engine: ZetaEngine) -> MomentEstimate:
    """D_k(a,T): sum over gamma <= T of (zeta'/zeta)^(2k) at 1/2+a/logT+i gamma.

    The summand is complex; the real part is the estimate.  The error
    channel holds the imaginary part as a sanity signal plus the sum of the
    engine's propagated per-zero errors of order 2k.
    """
    check_envelope(k, a, t)
    zeros.require_coverage(t)
    g = zeros.ordinates[zeros.ordinates <= t]
    if g.size == 0:
        return MomentEstimate("D_discrete", k, a, t, 0.0, 0.0)
    log_t = math.log(t)
    sigma = 0.5 + a / log_t
    vals, errs = engine.log_deriv_line(sigma, g, 2 * k)
    total = complex(np.sum(vals[:, 2 * k]))
    err = abs(total.imag) + float(np.sum(errs[:, 2 * k]))
    return MomentEstimate("D_discrete", k, a, t, total.real, err)


def ratio_of(i_est: MomentEstimate, d_est: MomentEstimate) -> float:
    """I_k(a,T) / (2 pi D_k(2a,T)); DivisionError when 2 pi D_k is within its error of 0."""
    denom = TWO_PI * d_est.value
    if abs(denom) <= TWO_PI * d_est.err_estimate:
        raise DivisionError(
            f"2 pi D_k = {denom:.3e} indistinguishable from zero "
            f"(err {TWO_PI * d_est.err_estimate:.3e})")
    return i_est.value / denom
