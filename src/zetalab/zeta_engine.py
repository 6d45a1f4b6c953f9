"""Evaluation of zeta(s), its derivatives, and the derivatives of zeta'/zeta.

The backend is Euler-Maclaurin summation: the Dirichlet main sum of length
N, the two boundary terms, and R Bernoulli correction terms, with the tail
bounded through the first omitted correction term.  One block kernel,
``_em_block``, evaluates zeta^(j)(s) = sum_n n^{-s} (-ln n)^j plus the
differentiated smooth part for a block of points, with per-order
truncation and rounding bounds, and every public operation is built on it:

* scalars: ``zeta``, ``hardy_z``, ``zeta_derivatives`` and
  ``log_derivative_k`` take the derivative columns of a block of one
  point, summed with the fixed profile ``ZetaEngine.SINGLE`` so that every
  order up to j = 9 stays below the 1e-8 target up to t = 6000, whatever
  the engine's own profile, and carry each column's own bound through the
  log-derivative recursion;
* bulk sweeps along a vertical line: ``zeta_derivs_uniform``/``_points``
  feed the kernel block by block through ``ZetaEngine._zeta_derivs``,
  with the engine's profile; they vectorize over thousands of heights at
  once and are the only affordable option for the moment quadratures.

Every block's main sum is one complex product outer @ kernel: the rows of
``outer`` are n^{-s} at row anchors, and the kernel is the weights
(-ln n)^j, for a uniform sweep times the phases n^{-i r step} of the
``GRID`` points of a row (Odlyzko & Schoenhage, Trans. AMS 309, 1988).
Uniform sweeps go in ``ZetaEngine.CHUNK`` blocks in input order.  Arbitrary
heights (``zeta_derivs_points``, ``log_deriv_line``, ``hardy_z_points``)
are sorted by |Im s| and go in bands of ``ZetaEngine.BAND`` points, one
per row, so a band of low points does not pay the main-sum length of the
highest one.  Bulk errors are per point, as
for single points: each entry carries its block's truncation plus rounding
bound, and ``log_deriv_uniform``/``_line`` carry these through the same
log-derivative recursion to one error per point and order.

Error estimates everywhere are heuristic first-order propagation, not
certified enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as _poly

from .errors import DomainError, NearZeroError, PrecisionError

TWO_PI = 2.0 * math.pi

# Largest magnitude a log-derivative may legally reach: C * k! * log t / (sigma-1/2)^(k+1)
# with a deliberately generous constant; exceeding it signals a broken evaluation.
# The k! follows the Dirichlet series (-1)^(k+1) sum Lambda(n) (log n)^k n^(-s),
# whose size is k! / (sigma-1)^(k+1) as sigma -> 1+.
LOG_DERIV_BOUND_C = 50.0

_TARGET_ABS_ERROR = 1e-8


class EmProfile(NamedTuple):
    """Euler-Maclaurin tuning: main-sum multiplier and correction count."""

    sum_multiplier: float
    correction_terms: int


#: Default profile of the bulk sweeps.
STRICT = EmProfile(2.5, 12)

#: Points per row of a uniform block, whose main-sum kernel is then an
#: N x GRID (jmax+1) matrix.  Of 32, 64 and 128, 64 timed fastest on a
#: 2-core AMD EPYC with one BLAS thread.
GRID = 64


@dataclass(frozen=True)
class ComplexEval:
    """A complex value together with a heuristic absolute error bound."""

    value: complex
    abs_error: float

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError(f"non-finite evaluation value {v!r}")
        if not (self.abs_error >= 0.0 and math.isfinite(self.abs_error)):
            raise DomainError(f"invalid abs_error {self.abs_error!r}")


@dataclass(frozen=True)
class EvalPoint:
    """A point sigma + i*t strictly right of the critical line."""

    sigma: float
    t: float

    def __post_init__(self):
        if not (0.5 < self.sigma <= 3.0):
            raise DomainError(f"sigma={self.sigma} outside (1/2, 3]")
        if not math.isfinite(self.t):
            raise DomainError("t must be finite")
        if self.sigma == 1.0 and self.t == 0.0:
            raise DomainError("s = 1 is the pole of zeta")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


# --------------------------------------------------------------------------
# Euler-Maclaurin building blocks
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_fraction(n: int) -> Fraction:
    """B_n exactly (B_1 = -1/2), from sum_{j<=n} C(n+1, j) B_j = 0."""
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    return -sum(math.comb(n + 1, j) * _bernoulli_fraction(j) for j in range(n)) / (n + 1)


def _bernoulli(n: int) -> float:
    """B_n correctly rounded to float64 (``float`` of a Fraction rounds once)."""
    return float(_bernoulli_fraction(n))


@lru_cache(maxsize=None)
def _bernoulli_poly_table(r_terms: int, jmax: int) -> np.ndarray:
    """B_{2r}/(2r)! d^m/ds^m (s)_{2r-1} as ascending coefficients in s.

    Entry [r-1, m, d] is the coefficient of s^d, for r = 1..r_terms and
    m = 0..jmax; (s)_{2r-1} = s (s+1) ... (s+2r-2) is the rising factorial.
    """
    table = np.zeros((r_terms, jmax + 1, 2 * r_terms))
    for r in range(1, r_terms + 1):
        poly = _poly.polyfromroots(-np.arange(2 * r - 1.0))
        poly *= _bernoulli(2 * r) / math.factorial(2 * r)
        for m in range(jmax + 1):
            table[r - 1, m, :poly.size] = poly
            poly = _poly.polyder(poly)
    table.flags.writeable = False
    return table


def _main_sum_length(t_abs: float, profile: EmProfile) -> int:
    return max(32, math.ceil(profile.sum_multiplier * t_abs / TWO_PI) + 16)


@lru_cache(maxsize=None)
def _log_tail_constant(r_terms: int) -> float:
    """ln |B_{2R+2}| - ln (2R+2)!, the constant of the first omitted term."""
    return math.log(abs(_bernoulli(2 * r_terms + 2))) - math.lgamma(2 * r_terms + 3)


def _tail_bound(sigma_min: float, t_abs: float, n_len: int, r_terms: int) -> float:
    """First omitted Euler-Maclaurin term times the standard majorant ratio."""
    log_term = _log_tail_constant(r_terms)
    for i in range(2 * r_terms + 1):
        log_term += 0.5 * math.log((sigma_min + i) ** 2 + t_abs * t_abs)
    log_term -= (sigma_min + 2 * r_terms + 1) * math.log(n_len)
    ratio = math.hypot(sigma_min + 2 * r_terms + 1, t_abs) / (sigma_min + 2 * r_terms + 1)
    log_term += math.log(ratio)
    return math.exp(min(log_term, 300.0))


def horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_d coeffs[d] x^d by Horner's rule; each coeffs[d] broadcasts against x."""
    out = coeffs[-1] + 0.0 * x
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _em_smooth_derivs(s: np.ndarray, n_len: int, jmax: int, r_terms: int) -> np.ndarray:
    """d^j/ds^j of the non-sum part of the Euler-Maclaurin formula.

    Covers N^{1-s}/(s-1), N^{-s}/2 and the Bernoulli corrections
    B_{2r}/(2r)! * (s)_{2r-1} * N^{-s-2r+1}.  Each is N^{-s} h(s), so by
    Leibniz d^j(N^{-s} h) = N^{-s} sum_m L[j, m] h^(m) with
    L[j, m] = C(j, m) (-ln N)^(j-m).  The polynomial parts of all h^(m),
    the 1/2 and the Bernoulli sums over r, fold into one coefficient table
    per column j, evaluated by a single Horner pass over s; the pole part
    N (-1)^m m! (s-1)^{-m-1} goes through the same matrix L.
    """
    ln_n = math.log(n_len)
    orders = range(jmax + 1)
    leibniz = np.array([[math.comb(j, m) * (-ln_n) ** (j - m) for m in orders]
                        for j in orders])

    r = np.arange(1, r_terms + 1)
    poly = np.tensordot(float(n_len) ** (1 - 2 * r), _bernoulli_poly_table(r_terms, jmax), axes=1)
    poly[0, 0] += 0.5
    coeffs = leibniz @ poly                  # coeffs[j, d] multiplies s^d
    s_col = s[..., None]
    out = horner(coeffs.T, s_col)

    signed_fact = np.array([(-1.0) ** m * math.factorial(m) for m in orders])
    pole = np.cumprod(np.broadcast_to(1.0 / (s_col - 1.0), out.shape), axis=-1)
    out += pole @ (n_len * leibniz * signed_fact).T
    out *= np.exp(-s_col * ln_n)
    return out


def _em_block(s: np.ndarray, jmax: int, profile: EmProfile,
              step: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zeta^(j)(s) for j = 0..jmax over one block of complex points, plus bounds.

    The main-sum length N follows the block's own max |Im s|.  The main
    sum is one complex product outer @ kernel, reshaped to (count, jmax+1)
    with the padded tail dropped.  The block is split into Q rows of G
    points, and outer[q, n] = n^{-s[G q]}, shape (Q, N), holds the row
    anchors.  Without ``step``, G = 1 and the kernel is the weight matrix
    (-ln n)^j, shape (N, jmax+1).  With ``step`` the points must be
    s[0] + i step m, G = min(GRID, count), and kernel[n, (r, j)] =
    n^{-i r step} (-ln n)^j, shape (N, G (jmax+1)).
    Two per-order bounds come back, both at the block's min sigma and max
    |t|: the truncation bound, the tail with that N times max(1, ln N)^j for
    the differentiated terms, and the float64 rounding estimate
    eps (1 + |t| ln N) ||n^{-sigma} (ln n)^j||_2 over n < N, which is the
    rounding of the phase t ln n of n^{-s} carried through the main sum.
    """
    t_hi = float(np.max(np.abs(s.imag)))
    sigma_lo = float(np.min(s.real))
    n_len = _main_sum_length(t_hi, profile)
    logs = np.log(np.arange(1.0, n_len))
    weights = np.empty((n_len - 1, jmax + 1))
    weights[:, 0] = 1.0
    for j in range(1, jmax + 1):
        np.multiply(weights[:, j - 1], -logs, out=weights[:, j])
    if step is None:
        grid, kernel = 1, weights
    else:
        grid = min(GRID, s.size)
        # one expression, so the N x G phase matrix is freed before the product
        kernel = (np.exp(np.multiply.outer(logs, -1j * step * np.arange(grid)))[:, :, None]
                  * weights[:, None, :]).reshape(n_len - 1, -1)
    outer = np.multiply.outer(-s[::grid], logs)
    np.exp(outer, out=outer)
    main = (outer @ kernel).reshape(-1, jmax + 1)[:s.size]
    vals = main + _em_smooth_derivs(s, n_len, jmax, profile.correction_terms)
    tail = _tail_bound(sigma_lo, t_hi, n_len, profile.correction_terms)
    ln_n = math.log(n_len)
    trunc = np.array([tail * max(1.0, ln_n) ** j for j in range(jmax + 1)])
    rounding = (np.finfo(float).eps * (1.0 + t_hi * ln_n)
                * np.sqrt(np.exp(-2.0 * sigma_lo * logs) @ weights ** 2))
    return vals, trunc, rounding


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

class ZetaEngine:
    """Stateless evaluator for zeta and its logarithmic derivatives.

    All methods are pure functions of their arguments, and an instance
    holds no mutable state.
    """

    #: points per kernel block of a uniform sweep: each block sums to its
    #: own top height, and its outer factor is a (CHUNK/GRID) x N matrix
    CHUNK = 4096
    #: points per height band of an arbitrary-point evaluation, one point
    #: per row of the outer factor, so it has as many rows as a uniform block's
    BAND = CHUNK // GRID
    #: Euler-Maclaurin profile of the single-point operations: keeps the
    #: truncation bound of every order j <= 9 below 1e-8 up to t = 6000
    SINGLE = EmProfile(3.3, 16)
    #: unused by the engine; the node count of the Cauchy circle that single
    #: points once took, still read by the term counter of perfbench/layers.py
    circle_nodes = 64

    def __init__(self, profile: EmProfile = STRICT):
        self.profile = profile

    def _zeta_derivs(self, s: np.ndarray, jmax: int,
                     step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """zeta^(j)(s) for a 1-d array of points, j <= jmax, with per-entry errors.

        ``step`` declares the points uniform, s[m] = s[0] + i step m; they go
        to the kernel in ``CHUNK`` blocks in input order.  Arbitrary points
        are sorted by |Im s| and go in bands of ``BAND`` points, so each band
        sums only as far as its own heights need; the values are scattered
        back to input order.  Entry [m, j] of the error array is the
        truncation plus rounding bound of order j of the block holding m.
        """
        out = np.empty((s.size, jmax + 1), dtype=complex)
        err = np.empty((s.size, jmax + 1))
        if step is None:
            order = np.argsort(np.abs(s.imag), kind="stable")
            blocks = [order[m0:m0 + self.BAND] for m0 in range(0, s.size, self.BAND)]
        else:
            blocks = [slice(m0, m0 + self.CHUNK) for m0 in range(0, s.size, self.CHUNK)]
        for idx in blocks:
            out[idx], trunc, rounding = _em_block(s[idx], jmax, self.profile, step)
            err[idx] = trunc + rounding
        return out, err

    # -- derivatives along a vertical line (bulk) --------------------------

    def zeta_derivs_uniform(self, sigma: float, t0: float, step: float,
                            count: int, jmax: int) -> tuple[np.ndarray, np.ndarray]:
        """zeta^(j)(sigma + i(t0 + m step)), m < count, j <= jmax, with errors."""
        ts = t0 + step * np.arange(count)
        return self._zeta_derivs(sigma + 1j * ts, jmax, step)

    def zeta_derivs_points(self, sigma: float, ts: np.ndarray, jmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Same as :meth:`zeta_derivs_uniform` for an arbitrary set of heights."""
        return self._zeta_derivs(sigma + 1j * np.asarray(ts, dtype=float), jmax)

    # -- log-derivative recursion ------------------------------------------

    @staticmethod
    def _log_deriv_recursion(z: np.ndarray, kmax: int,
                             err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(zeta'/zeta)^(m) for m = 0..kmax from zeta^(0..kmax+1) columns.

        With g = log zeta, g^(n) = [zeta^(n) - sum_{j<=n-2} C(n-1,j)
        g^(j+1) zeta^(n-1-j)] / zeta, and (zeta'/zeta)^(m) = g^(m+1).
        The second item carries the absolute error columns ``err`` of z
        through the same recursion to first order.
        """
        z0 = z[..., 0]
        if np.any(np.abs(z0) <= 1e-12):
            raise NearZeroError("zeta(s) below 1e-12; evaluation at/near a zero")
        g = [None] * (kmax + 2)
        g[1] = z[..., 1] / z0
        for n in range(2, kmax + 2):
            acc = z[..., n].copy()
            for j in range(0, n - 1):
                acc -= math.comb(n - 1, j) * g[j + 1] * z[..., n - 1 - j]
            g[n] = acc / z0
        vals = np.stack(g[1:], axis=-1)
        az, ag = np.abs(z), np.abs(vals)
        ge = np.empty(vals.shape)
        for n in range(1, kmax + 2):
            acc_err = err[..., n] + ag[..., n - 1] * err[..., 0]
            for j in range(0, n - 1):
                acc_err += math.comb(n - 1, j) * (ag[..., j] * err[..., n - 1 - j]
                                                  + ge[..., j] * az[..., n - 1 - j])
            ge[..., n - 1] = acc_err / az[..., 0]
        return vals, ge

    def log_deriv_line(self, sigma: float, ts: np.ndarray,
                       kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """(zeta'/zeta)^(m)(sigma + i t), m <= kmax, with errors, over an array of t."""
        if sigma <= 0.5:
            raise DomainError("log-derivative requires sigma > 1/2")
        z, err = self.zeta_derivs_points(sigma, ts, kmax + 1)
        return self._log_deriv_recursion(z, kmax, err)

    def log_deriv_uniform(self, sigma: float, t0: float, step: float,
                          count: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`log_deriv_line` at the heights t0 + m step, m < count."""
        if sigma <= 0.5:
            raise DomainError("log-derivative requires sigma > 1/2")
        z, err = self.zeta_derivs_uniform(sigma, t0, step, count, kmax + 1)
        return self._log_deriv_recursion(z, kmax, err)

    # -- public single-point operations ------------------------------------

    def _single_point(self, s: complex, jmax: int) -> tuple[np.ndarray, np.ndarray]:
        """zeta^(j)(s), j <= jmax, from one ``SINGLE`` block, with per-entry errors.

        The error of entry j is its truncation bound plus its rounding
        estimate; only the truncation bound is gated, because no
        Euler-Maclaurin setting removes the rounding.
        """
        if not (0 <= jmax <= 12):
            raise DomainError(f"jmax={jmax} outside [0, 12]")
        if abs(s - 1.0) < 2e-3:
            raise DomainError("s within 2e-3 of the pole s = 1")
        vals, trunc, rounding = _em_block(np.array([s]), jmax, self.SINGLE, None)
        if trunc[-1] > _TARGET_ABS_ERROR:
            raise PrecisionError(
                f"zeta^({jmax})({s}) truncation bound {trunc[-1]:.2e} exceeds 1e-8")
        return vals[0], trunc + rounding

    def zeta(self, s: complex) -> ComplexEval:
        """zeta(s) as entry 0 of :meth:`zeta_derivatives`, for a complex s."""
        vals, errs = self._single_point(complex(s), 0)
        return ComplexEval(complex(vals[0]), float(errs[0]))

    def zeta_derivatives(self, p: EvalPoint, jmax: int) -> list[ComplexEval]:
        """zeta^(j)(s) for j = 0..jmax with per-entry error estimates.

        All entries are the derivative columns of one Euler-Maclaurin block
        summed with the fixed profile ``SINGLE``, whatever the engine's own
        profile.  Entry j's ``abs_error`` is the truncation bound
        tail * max(1, ln N)^j plus the float64 rounding estimate
        eps (1 + |t| ln N) ||n^{-sigma} (ln n)^j||_2.  PrecisionError is
        raised when the truncation bound of the top order exceeds 1e-8; the
        rounding part is reported but not gated, since no Euler-Maclaurin
        setting removes it.  Points within 2e-3 of the pole are refused.
        """
        if not isinstance(p, EvalPoint):
            p = EvalPoint(*p)
        vals, errs = self._single_point(p.s, jmax)
        return [ComplexEval(complex(v), float(e)) for v, e in zip(vals, errs)]

    def log_derivative_k(self, p: EvalPoint, k: int) -> ComplexEval:
        """(zeta'/zeta)^(k)(s) via the logarithmic-derivative recursion.

        Never computed by contour integration of zeta'/zeta itself: the
        recursion stays correct arbitrarily close to the critical line where
        a contour would cross zeros.  The per-entry errors of
        :meth:`zeta_derivatives` go through the same recursion.
        """
        if not isinstance(p, EvalPoint):
            p = EvalPoint(*p)
        if not (0 <= k <= 8):
            raise DomainError(f"k={k} outside [0, 8]")
        z, err = self._single_point(p.s, k + 1)
        vals, errs = self._log_deriv_recursion(z, k, err)
        value = complex(vals[k])
        if abs(p.t) >= 2.0:
            bound = (LOG_DERIV_BOUND_C * math.factorial(k) * math.log(abs(p.t))
                     / (p.sigma - 0.5) ** (k + 1))
            if abs(value) > bound:
                raise PrecisionError(
                    f"|log-derivative|={abs(value):.3e} violates the magnitude "
                    f"bound {bound:.3e}; evaluation is suspect")
        return ComplexEval(value, float(errs[k]))

    # -- Hardy Z -------------------------------------------------------------

    def hardy_z(self, t: float) -> float:
        """Z(t) = Re{ e^{i theta(t)} zeta(1/2 + it) }; real, zeros at the gammas."""
        if t < 2.0:
            raise DomainError("hardy_z requires t >= 2")
        z = self.zeta(complex(0.5, t)).value
        return float(np.real(np.exp(1j * riemann_siegel_theta(t)) * z))

    def hardy_z_points(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        vals, _ = self.zeta_derivs_points(0.5, ts, 0)
        return np.real(np.exp(1j * riemann_siegel_theta_array(ts)) * vals[:, 0])

    def hardy_z_uniform(self, t0: float, step: float, count: int) -> np.ndarray:
        vals, _ = self.zeta_derivs_uniform(0.5, t0, step, count, 0)
        ts = t0 + step * np.arange(count)
        return np.real(np.exp(1j * riemann_siegel_theta_array(ts)) * vals[:, 0])


# --------------------------------------------------------------------------
# Riemann-Siegel theta
# --------------------------------------------------------------------------

#: terms of the theta series above the cut, and of Stirling's series below it
THETA_TERMS = 6
#: bound on each truncation error of theta: a quarter of the float64 eps
_THETA_TOL = 2.0 ** -54


def _theta_coefficient(n: int) -> float:
    """c_n = (1 - 2^{1-2n}) |B_2n| / (4n (2n-1)) of the theta series."""
    return (1.0 - 2.0 ** (1 - 2 * n)) * abs(_bernoulli(2 * n)) / (4 * n * (2 * n - 1))


def _stirling_coefficient(n: int) -> float:
    """B_2n / (2n (2n-1)) of Stirling's series for log Gamma."""
    return _bernoulli(2 * n) / (2 * n * (2 * n - 1))


_THETA_C = [_theta_coefficient(n) for n in range(1, THETA_TERMS + 1)]
_STIRLING_C = [_stirling_coefficient(n) for n in range(1, THETA_TERMS + 1)]
#: |t| from which the theta series is within _THETA_TOL: there both its first
#: omitted term c_{M+1} t^{-(2M+1)} and the arctan(e^{-pi t})/2 that it
#: leaves out (from the reflection and duplication formulas of Gamma) are
#: below the tolerance
_THETA_CUT = max((_theta_coefficient(THETA_TERMS + 1) / _THETA_TOL)
                 ** (1.0 / (2 * THETA_TERMS + 1)),
                 math.log(0.5 / _THETA_TOL) / math.pi)
#: shift m of log Gamma(z + m) below the cut: with |z + m| >= m + 1/4 the
#: first omitted Stirling term, times the 2^{M+1} that bounds
#: sec^{2M+2}(arg/2) on Re > 0, is within _THETA_TOL
_THETA_SHIFT = math.ceil((2.0 ** (THETA_TERMS + 1) * abs(_stirling_coefficient(THETA_TERMS + 1))
                          / _THETA_TOL) ** (1.0 / (2 * THETA_TERMS + 1)) - 0.25)


def riemann_siegel_theta_array(ts: np.ndarray) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, vectorized; odd in t.

    For |t| >= ``_THETA_CUT`` the Riemann-Siegel series (Edwards, Riemann's
    Zeta Function, 6.5) in real arithmetic,
    theta = (t/2) (log(t/2pi) - 1) - pi/8 + sum_{n<=M} c_n t^{1-2n};
    below it Stirling's series for Im log Gamma(z + m) less
    sum_{j<m} arg(z + j), z = 1/4 + it/2.  Both take their coefficients
    from the exact Bernoulli numbers, and each truncation is below 2^-54.
    """
    ts = np.asarray(ts, dtype=float)
    t = np.abs(ts)
    out = np.empty(t.shape)
    high = t >= _THETA_CUT
    th = t[high]
    # in place, in two buffers, bit for bit equal to
    # 0.5 th (log(th/2pi) - 1) - pi/8 + horner(C, 1/th^2)/th: halving is
    # exact, so the product may take it last
    buf = th * th
    np.reciprocal(buf, out=buf)
    series = horner(_THETA_C, buf)
    series /= th
    np.divide(th, TWO_PI, out=buf)
    np.log(buf, out=buf)
    buf -= 1.0
    buf *= th
    buf *= 0.5
    buf -= math.pi / 8
    buf += series
    out[high] = buf
    if th.size < t.size:
        tl = t[~high]
        w = 0.25 + _THETA_SHIFT + 0.5j * tl
        val = np.imag((w - 0.5) * np.log(w) - w + horner(_STIRLING_C, 1.0 / (w * w)) / w)
        val -= np.sum(np.arctan2(0.5 * tl[:, None], 0.25 + np.arange(_THETA_SHIFT)), axis=1)
        out[~high] = val - 0.5 * tl * math.log(math.pi)
    return np.negative(out, out=out, where=ts < 0)


def riemann_siegel_theta(t: float) -> float:
    """Rotation angle putting zeta on the critical line onto the real axis.

    :func:`riemann_siegel_theta_array` at one point: within 10 eps
    max(1, |theta|) of mpmath's for t >= 2, far below the 1e-9 budget of
    the zero finder.
    """
    if t < 2.0:
        raise DomainError("riemann_siegel_theta requires t >= 2")
    return float(riemann_siegel_theta_array(np.array([t]))[0])
