"""Second moments of the derivatives of zeta'/zeta, four different ways.

I_k(a,T) is the integral of |(zeta'/zeta)^(k)(1/2 + a/log T + it)|^2 over
t in [1, T].  It is computed

* by uniform trapezoid sweeps with Gregory end corrections against the
  Euler-Maclaurin engine (``i_k_quadrature_batch``) -- the ground truth.
  ``sweep_plan`` sets the node densities from an error model: a geometric
  interior term from the poles a/log T off the line, and an algebraic
  Gregory term at each end; an end that needs a finer step than the
  interior gets its own sweep, handed over by an erfc window.  The error
  adds step halving, the engine's per-node error and rounding;
* from the zero-pair sum with the Poisson-kernel derivative
  (``i_k_from_zeros``, one ``pair_correlation.pair_sum`` call);
* from the sampled pair-correlation function (``i_k_from_f``).

D_k(a,T) sums (zeta'/zeta)^(2k) right of each zero (``d_k_batch``, all
orders from one engine call); ``ratio_of`` forms I_k(a,T) / (2 pi D_k(2a,T))
for the CLI's discrete table.

The quadrature reads no zero table and never touches the zero-sum
representation of the log-derivative, so the quadrature/zero-pair
comparison is a genuine two-sided test rather than a tautology.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (DivisionError, DomainError, PrecisionError, RangeError)
from .kernels import KernelSpec, kernel_eval
from .pair_correlation import FGrid, pair_sum
from .zero_catalog import ZeroTable, rvm_expected_count
from .zeta_engine import TWO_PI, ZetaEngine

KINDS = ("I_quadrature", "I_zero_pairs", "I_from_F", "D_discrete")

_EPS = sys.float_info.epsilon

#: relative error the quadrature's node densities are chosen for: each
#: modelled error term stays below this fraction of the diagonal scale
#: N(T) pi (2k)! / (4^k d^(2k+1)), d = a/log T (DECISIONS.md entry 5)
DENSITY_TARGET = 1e-12
#: order of the Gregory end corrections: exact for polynomials of degree < 6
GREGORY_ORDER = 6
#: half-length, in widths a/log T, of the erfc window that hands an end of
#: [1, T] to its own sweep; erfc(5)/2 = 7.7e-13 is where a window is cut
_WINDOW_HALF = 5.0


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
    """Supported envelope is k in [0, 4], a in [0.1, 5], T in [2, 6000].

    Every limit is a hard DomainError.  Beyond k = 4, a = 5 or T = 6000
    double precision runs out of comfort; the low end T = 2 only keeps
    log T and [1, T] meaningful, and the tables run from T = 51.5.
    """
    if not isinstance(k, numbers.Integral):
        raise DomainError(f"k={k!r} must be an integer")
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
def _x_over_log_series(m: int) -> tuple[Fraction, ...]:
    """Coefficients of x^0..x^m in x / log(1+x), exactly: 1, 1/2, -1/12, 1/24, ..."""
    log_series = [Fraction((-1) ** i, i + 1) for i in range(m + 1)]
    recip = [Fraction(1)]
    for j in range(1, m + 1):
        recip.append(-sum(log_series[i] * recip[j - i] for i in range(1, j + 1)))
    return tuple(recip)


@lru_cache(maxsize=None)
def _gregory_end_weights(order: int) -> tuple[float, ...]:
    """The first `order` weights of the unit-step Gregory rule.

    They are the trapezoid weights plus the Euler-Maclaurin end correction
    sum_{j<order} g_j Delta^j f_0 from forward differences, where -g_j is
    the coefficient of x^(j+1) in x / log(1+x) (g = 1/12, -1/24, 19/720,
    ...).  The far end uses the same weights mirrored.
    """
    recip = _x_over_log_series(order)
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


# --------------------------------------------------------------------------
# Node density from an error model
# --------------------------------------------------------------------------

class SweepPlan(NamedTuple):
    """Nodes per width a/log T of the interior sweep and at each end of [1, T].

    An end density is never below the interior's; an end whose density
    equals it stays with the interior sweep.
    """

    interior: float
    left: float
    right: float


def _diagonal_scale(k: int, d: float, t: float) -> float:
    """N(T) times the integral of one zero's peak (k!)^2 / (u^2 + d^2)^(k+1).

    N(T) is the Riemann-von Mangoldt count, at least 1.  Near a zero rho,
    (zeta'/zeta)^(k) is (-1)^k k! / (s - rho)^(k+1), so this is the diagonal
    part of I_k(a,T); I_k(a,T) is 0.12 to 1.07 of it over the envelope, the
    low end at k = 0 and a = 5.
    """
    peak = math.pi * math.factorial(2 * k) / (4 ** k * d ** (2 * k + 1))
    return max(1.0, rvm_expected_count(t)) * peak


def _peak_transform_poly(k: int, y: float) -> float:
    """P_k(y) = sum_{j<=k} (2k-j)! / (j! (k-j)!) y^j, the polynomial factor of
    the Fourier transform of (u^2 + d^2)^-(k+1) at y = 2 d omega."""
    return sum(math.factorial(2 * k - j) / (math.factorial(j) * math.factorial(k - j)) * y ** j
               for j in range(k + 1))


def _interior_error(nu: float, k: int) -> float:
    """Relative trapezoid error on a zero's peak sampled at nu nodes per width.

    By Poisson summation the error is twice the peak's Fourier transform at
    omega = 2 pi / h, and at h = d / nu that is 2 e^(-2 pi nu) P_k(4 pi nu) /
    P_k(0) of the peak's integral (Trefethen & Weideman, SIAM Rev. 56, 2014).
    """
    return (2.0 * math.exp(-TWO_PI * nu) * _peak_transform_poly(k, 2.0 * TWO_PI * nu)
            / _peak_transform_poly(k, 0.0))


def _gregory_remainder() -> float:
    """|g| of the first omitted difference: the end error is about g h^7 f^(6)."""
    return abs(float(_x_over_log_series(GREGORY_ORDER + 1)[GREGORY_ORDER + 1]))


def _end_error_t(nu: float, k: int, t: float) -> float:
    """Gregory error at t = T, relative to the diagonal scale, at nu nodes per width.

    The worst case is a zero's peak (k!)^2 / (u^2 + d^2)^(k+1) centred on T.
    Its |f^(6)| is largest at the centre, (k!)^2 6! C(k+3, 3) / d^(2k+8), and
    g h^7 f^(6) there is one peak's worth of error, so it is divided by N(T).
    """
    peak_d6 = math.factorial(k) ** 2 * math.factorial(6) * math.comb(k + 3, 3)
    return (_gregory_remainder() * nu ** -7 * peak_d6 * 4 ** k
            / (math.pi * math.factorial(2 * k) * max(1.0, rvm_expected_count(t))))


def _end_error_1(nu: float, k: int, d: float, t: float) -> float:
    """Gregory error at t = 1, relative to the diagonal scale, at nu nodes per width.

    Near t = 1 the nearest singularity is the pole of zeta at s = 1, where
    (zeta'/zeta)^(k) is (-1)^(k+1) k! / (s - 1)^(k+1); so f is about
    (k!)^2 / ((t - ie)(t + ie))^(k+1), e = |1 - sigma|.  Leibniz with every
    term taken in modulus bounds its f^(6) at t = 1 by (k!)^2 (2k+2)...(2k+7)
    / (1 + e^2)^(k+4), whatever cancels at that t; the bound is doubled for
    the regular part of zeta'/zeta, which is up to about the pole part there.
    """
    h = d / nu
    f_d6 = (2.0 * math.factorial(k) ** 2 * math.prod(range(2 * k + 2, 2 * k + 8))
            / (1.0 + (0.5 - d) ** 2) ** (k + 4))
    return _gregory_remainder() * h ** 7 * f_d6 / _diagonal_scale(k, d, t)


@lru_cache(maxsize=None)
def _interior_density(ks: tuple[int, ...]) -> float:
    """The smallest nu, to 1e-9, with _interior_error(nu, k) <= DENSITY_TARGET for every k."""
    lo, hi = 1.0, 64.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if max(_interior_error(mid, k) for k in ks) > DENSITY_TARGET:
            lo = mid
        else:
            hi = mid
    return hi


def sweep_plan(ks: list[int], a: float, t: float) -> SweepPlan:
    """Node densities whose modelled error is under DENSITY_TARGET for every k.

    The interior density comes from the geometric term alone.  Each end
    term is algebraic, nu^-7, so the density it needs follows in closed
    form; each end takes the larger of its own and the interior density.
    When [1, T] is too short to hold both windows, one sweep takes the
    largest density.
    """
    d = a / math.log(t)
    interior = _interior_density(tuple(ks))
    left = max((_end_error_1(1.0, k, d, t) / DENSITY_TARGET) ** (1 / 7) for k in ks)
    right = max((_end_error_t(1.0, k, t) / DENSITY_TARGET) ** (1 / 7) for k in ks)
    if t - 1.0 < 4.0 * _WINDOW_HALF * d:
        m = max(interior, left, right)
        return SweepPlan(m, m, m)
    return SweepPlan(interior, max(interior, left), max(interior, right))


def _modelled_error(k: int, a: float, t: float, plan: SweepPlan) -> float:
    """The error model's absolute error of I_k(a,T) under ``plan``."""
    d = a / math.log(t)
    return _diagonal_scale(k, d, t) * (_interior_error(plan.interior, k)
                                       + _end_error_1(plan.left, k, d, t)
                                       + _end_error_t(plan.right, k, t))


def _half_erfc(x: np.ndarray) -> np.ndarray:
    """erfc(x) / 2 elementwise; numpy has no erfc, and a window holds few nodes."""
    return 0.5 * np.fromiter(map(math.erfc, x.tolist()), float, x.size)


def _sweeps(t: float, d: float, plan: SweepPlan) -> list[tuple[float, float, float, object]]:
    """(lo, hi, nodes per width, window) of each sweep; a window maps heights to weights.

    An end sweep integrates f times phi, half an erfc of width d that is 1
    at its end of [1, T] and 7.7e-13 at the other end of its 2 _WINDOW_HALF d;
    the interior sweep integrates f times 1 - phi_left - phi_right.  The
    windows are analytic, so no sweep has a junction error, and each end of
    [1, T] is summed at its own step.  An end has its own sweep exactly when
    its density exceeds the interior's; with neither, that window is all ones.
    """
    reach = 2.0 * _WINDOW_HALF * d
    left = plan.left > plan.interior and (lambda x: _half_erfc((x - 1.0) / d - _WINDOW_HALF))
    right = plan.right > plan.interior and (lambda x: _half_erfc((t - x) / d - _WINDOW_HALF))

    def interior_window(x):
        # one-sided tests, so a last node that rounds past T is still in the window
        w = np.ones(x.size)
        for phi, near in ((left, x <= 1.0 + reach), (right, x >= t - reach)):
            if phi and np.any(near):
                w[near] -= phi(x[near])
        return w
    sweeps = [(1.0, t, plan.interior, interior_window)]
    if left:
        sweeps.append((1.0, 1.0 + reach, plan.left, left))
    if right:
        sweeps.append((t - reach, t, plan.right, right))
    return sweeps


def i_k_quadrature_batch(ks: list[int], a: float, t: float,
                         engine: ZetaEngine) -> list[MomentEstimate]:
    """All requested orders from the uniform sweeps that ``sweep_plan`` sets.

    The integrand is analytic in a strip of half-width d = a/log T, so the
    trapezoid rule converges geometrically on it; each sweep puts its own
    number of nodes on each width d and Gregory weights correct its two
    ends.  The value is the sum of the fine rules.  The error estimate adds
    each sweep's difference from its rule on the even nodes (twice the
    step, so half the density); the rule on 2|f_i| e_i + e_i^2, which
    bounds | |f_i + d|^2 - |f_i|^2 | for every |d| <= e_i, the engine's
    propagated error at node i; and the bound (n+1) eps sum w_i f_i h on the
    rounding of each weighted sum.  The step-halving part carries the halved
    rule's own error, so it is a conservative bound, not a tight error: over
    the calibration grid of DECISIONS.md entry 5 it exceeds the move to a
    denser rule by a factor of 2.9e3 to 6.7e7.
    """
    ks = list(ks)
    if not ks:
        raise DomainError("no orders k requested")
    for k in ks:
        check_envelope(k, a, t)
    out = []
    parts = _quadrature_parts(ks, a, t, sweep_plan(ks, a, t), engine)
    for k, (value, diff, prop, rnd) in zip(ks, parts):
        if diff > 0.05 * abs(value):
            raise PrecisionError(
                f"step-halving disagreement {diff:.3e} exceeds 5% of I_{k}({a},{t})")
        out.append(MomentEstimate("I_quadrature", k, a, t, value, diff + prop + rnd))
    return out


def _quadrature_parts(ks: list[int], a: float, t: float, plan: SweepPlan,
                      engine: ZetaEngine) -> list[tuple[float, float, float, float]]:
    """(value, step-halving part, propagated part, rounding part) of each order."""
    log_t = math.log(t)
    sigma = 0.5 + a / log_t
    values, halving, propagated, rounding = [], [], [], []
    for lo, hi, nu, window in _sweeps(t, a / log_t, plan):
        # the floor keeps the two end corrections of the halved rule apart
        half_n = max(math.ceil(nu * (hi - lo) * log_t / (2.0 * a)), 2 * GREGORY_ORDER)
        n = 2 * half_n
        h = (hi - lo) / n
        fine, coarse, engine_err = [], [], []
        # CHUNK is even, so every piece starts on a node of the halved rule
        for i0 in range(0, n + 1, ZetaEngine.CHUNK):
            i1 = min(i0 + ZetaEngine.CHUNK, n + 1)
            w = _gregory_weights(i0, i1, n)
            w_half = _gregory_weights(i0 // 2, (i1 + 1) // 2, half_n)
            psi = window(lo + h * np.arange(i0, i1))
            w *= psi
            w_half *= psi[::2]
            vals, errs = engine.log_deriv_uniform(sigma, lo + i0 * h, h, i1 - i0, max(ks))
            f, e = np.abs(vals[:, ks]), errs[:, ks]
            fine.append(w @ f ** 2)
            coarse.append(2.0 * (w_half @ f[::2] ** 2))
            engine_err.append(w @ ((2.0 * f + e) * e))
        value, halved, prop = (np.array([math.fsum(float(p[j]) for p in parts) * h
                                         for j in range(len(ks))])
                               for parts in (fine, coarse, engine_err))
        values.append(value)
        halving.append(np.abs(value - halved))
        propagated.append(prop)
        # the weights are positive, so sum w_i f_i h is the value
        rounding.append((n + 1) * _EPS * value)

    return [tuple(math.fsum(float(p[j]) for p in parts)
                  for parts in (values, halving, propagated, rounding))
            for j in range(len(ks))]


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

def d_k_batch(ks: list[int], a: float, t: float, zeros: ZeroTable,
              engine: ZetaEngine) -> list[MomentEstimate]:
    """D_k(a,T) for every requested k from one engine call at order 2 max(ks).

    D_k sums (zeta'/zeta)^(2k) at 1/2+a/logT+i gamma over gamma <= T.  The
    summand is complex; the real part is the estimate.  The error channel
    holds the imaginary part as a sanity signal plus the sum of the
    engine's propagated per-zero errors of order 2k.
    """
    ks = list(ks)
    if not ks:
        raise DomainError("no orders k requested")
    for k in ks:
        check_envelope(k, a, t)
    zeros.require_coverage(t)
    g = zeros.ordinates[zeros.ordinates <= t]
    sigma = 0.5 + a / math.log(t)
    vals, errs = engine.log_deriv_line(sigma, g, 2 * max(ks))
    out = []
    for k in ks:
        total = complex(np.sum(vals[:, 2 * k]))
        err = abs(total.imag) + float(np.sum(errs[:, 2 * k]))
        out.append(MomentEstimate("D_discrete", k, a, t, total.real, err))
    return out


def d_k(k: int, a: float, t: float, zeros: ZeroTable,
        engine: ZetaEngine) -> MomentEstimate:
    """D_k(a,T) for one order: the one-element case of :func:`d_k_batch`."""
    return d_k_batch([k], a, t, zeros, engine)[0]


def ratio_of(i_est: MomentEstimate, d_est: MomentEstimate) -> float:
    """I_k(a,T) / (2 pi D_k(2a,T)); DivisionError when 2 pi D_k is within its error of 0."""
    denom = TWO_PI * d_est.value
    if abs(denom) <= TWO_PI * d_est.err_estimate:
        raise DivisionError(
            f"2 pi D_k = {denom:.3e} indistinguishable from zero "
            f"(err {TWO_PI * d_est.err_estimate:.3e})")
    return i_est.value / denom
