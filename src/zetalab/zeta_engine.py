"""Evaluation of zeta(s), its derivatives, and the derivatives of zeta'/zeta.

The backend is Euler-Maclaurin summation: the Dirichlet main sum of length
N, the two boundary terms, and R Bernoulli correction terms, with the tail
bounded through the first omitted correction term.  One block kernel,
``_em_block``, evaluates zeta^(j)(s) = sum_n n^{-s} (-ln n)^j plus the
differentiated smooth part for a block of points, with per-order
truncation and rounding bounds, and every public operation is built on it:

* single points: ``zeta_derivatives`` and ``log_derivative_k`` take the
  derivative columns of a block of one point, summed with the fixed profile
  ``ZetaEngine.SINGLE`` so that every order up to j = 9 stays below the
  1e-8 target up to t = 6000, and carry each column's own bound through
  the log-derivative recursion;
* bulk sweeps along a vertical line: ``zeta_derivs_uniform``/``_points``
  feed the kernel block by block through ``ZetaEngine._zeta_derivs``,
  which vectorizes over thousands of heights at once and is the only
  affordable option for the moment quadratures.  Uniform sweeps pass their
  step, and the kernel then builds the n^{-s} matrix by a cumulative
  product instead of one exponential per entry.

Arbitrary heights (``zeta_points``, ``zeta_derivs_points`` and everything
on top of them: ``log_deriv_line``, ``hardy_z_points``) are banded by
height: ``_zeta_derivs`` sorts them by |Im s| and hands them to the kernel
in bands of ``ZetaEngine.BAND`` points, so a band of low points does not
pay the main-sum length of the highest one.  The bulk error bound is the
largest band's truncation bound at the top order.

Error estimates everywhere are heuristic first-order propagation, not
certified enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as _poly
from scipy.special import bernoulli as _bernoulli
from scipy.special import loggamma as _loggamma

from .errors import DomainError, NearZeroError, PrecisionError

TWO_PI = 2.0 * math.pi

# Largest magnitude a log-derivative may legally reach: C * log t / (sigma-1/2)^(k+1)
# with a deliberately generous constant; exceeding it signals a broken evaluation.
LOG_DERIV_BOUND_C = 50.0

_TARGET_ABS_ERROR = 1e-8


class EmProfile(NamedTuple):
    """Euler-Maclaurin tuning: main-sum multiplier and correction count."""

    sum_multiplier: float
    correction_terms: int


#: Full-accuracy profile used by the public single-point operations.
STRICT = EmProfile(2.5, 12)
#: Cheaper profile for bulk quadrature sweeps (abs error ~1e-6 at t=6000).
FAST = EmProfile(1.5, 10)


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
def _bernoulli_poly_table(r_terms: int, jmax: int) -> np.ndarray:
    """B_{2r}/(2r)! d^m/ds^m (s)_{2r-1} as ascending coefficients in s.

    Entry [r-1, m, d] is the coefficient of s^d, for r = 1..r_terms and
    m = 0..jmax; (s)_{2r-1} = s (s+1) ... (s+2r-2) is the rising factorial.
    """
    b = _bernoulli(2 * r_terms)
    table = np.zeros((r_terms, jmax + 1, 2 * r_terms))
    for r in range(1, r_terms + 1):
        poly = _poly.polyfromroots(-np.arange(2 * r - 1.0))
        poly *= float(b[2 * r]) / math.factorial(2 * r)
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
    b = _bernoulli(2 * r_terms + 2)
    return math.log(abs(float(b[-1]))) - math.lgamma(2 * r_terms + 3)


def _tail_bound(sigma_min: float, t_abs: float, n_len: int, r_terms: int) -> float:
    """First omitted Euler-Maclaurin term times the standard majorant ratio."""
    log_term = _log_tail_constant(r_terms)
    for i in range(2 * r_terms + 1):
        log_term += 0.5 * math.log((sigma_min + i) ** 2 + t_abs * t_abs)
    log_term -= (sigma_min + 2 * r_terms + 1) * math.log(n_len)
    ratio = math.hypot(sigma_min + 2 * r_terms + 1, t_abs) / (sigma_min + 2 * r_terms + 1)
    log_term += math.log(ratio)
    return math.exp(min(log_term, 300.0))


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
    out = np.empty(s.shape + (jmax + 1,), dtype=complex)
    out[...] = coeffs[:, -1]
    for d in range(coeffs.shape[1] - 2, -1, -1):
        out *= s_col
        out += coeffs[:, d]

    signed_fact = np.array([(-1.0) ** m * math.factorial(m) for m in orders])
    pole = np.cumprod(np.broadcast_to(1.0 / (s_col - 1.0), out.shape), axis=-1)
    out += pole @ (n_len * leibniz * signed_fact).T
    out *= np.exp(-s_col * ln_n)
    return out


def _em_block(s: np.ndarray, jmax: int, profile: EmProfile,
              step: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zeta^(j)(s) for j = 0..jmax over one block of complex points, plus bounds.

    The main-sum length N follows the block's own max |Im s|.  With ``step``
    the points must be s[0] + i step m, and the rows of the n^{-s} matrix
    come from a cumulative product; otherwise each entry is one exponential.
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
    if step is None:
        npow = np.multiply.outer(-s, logs)
        np.exp(npow, out=npow)
    else:
        npow = np.empty((s.size, n_len - 1), dtype=complex)
        npow[0] = np.exp(-s[0] * logs)
        npow[1:] = np.exp(-1j * step * logs)
        np.cumprod(npow, axis=0, out=npow)
    weights = np.empty((n_len - 1, jmax + 1))
    weights[:, 0] = 1.0
    for j in range(1, jmax + 1):
        np.multiply(weights[:, j - 1], -logs, out=weights[:, j])
    vals = npow @ weights + _em_smooth_derivs(s, n_len, jmax, profile.correction_terms)
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

    All methods are pure functions of their arguments; instances are safe
    to share between threads.
    """

    #: points per kernel block of a uniform sweep; bounds the block x N
    #: matrix of n^{-s}
    CHUNK = 4096
    #: points per height band of an arbitrary-point evaluation
    BAND = 256
    #: Euler-Maclaurin profile of the single-point operations: keeps the
    #: truncation bound of every order j <= 9 below 1e-8 up to t = 6000
    SINGLE = EmProfile(3.3, 16)
    #: unused by the engine; the node count of the Cauchy circle that single
    #: points once took, still read by the term counter of perfbench/layers.py
    circle_nodes = 64

    def __init__(self, profile: EmProfile = STRICT):
        self.profile = profile

    def _zeta_derivs(self, s: np.ndarray, jmax: int, profile: EmProfile,
                     step: float | None = None) -> tuple[np.ndarray, float]:
        """zeta^(j)(s) for a 1-d array of points, j <= jmax, plus one error bound.

        ``step`` declares the points uniform, s[m] = s[0] + i step m; they go
        to the kernel in ``CHUNK`` blocks in input order.  Arbitrary points
        are sorted by |Im s| and go in bands of ``BAND`` points, so each band
        sums only as far as its own heights need; the values are scattered
        back to input order.  The bound is the largest block truncation bound
        at the top order jmax.
        """
        out = np.empty((s.size, jmax + 1), dtype=complex)
        if step is None:
            order = np.argsort(np.abs(s.imag), kind="stable")
            blocks = [order[m0:m0 + self.BAND] for m0 in range(0, s.size, self.BAND)]
        else:
            blocks = [slice(m0, m0 + self.CHUNK) for m0 in range(0, s.size, self.CHUNK)]
        err = 0.0
        for idx in blocks:
            out[idx], trunc, _ = _em_block(s[idx], jmax, profile, step)
            err = max(err, trunc[-1])
        return out, err

    # -- raw zeta at arbitrary complex points ------------------------------

    def zeta_points(self, s: np.ndarray) -> tuple[np.ndarray, float]:
        """zeta(s) for an array of complex points, plus one error bound."""
        s = np.asarray(s, dtype=complex)
        vals, err = self._zeta_derivs(s.ravel(), 0, self.profile)
        return vals[:, 0].reshape(s.shape), err

    def zeta(self, s: complex) -> ComplexEval:
        v, e = self.zeta_points(np.array([s], dtype=complex))
        return ComplexEval(complex(v[0]), e)

    # -- derivatives along a vertical line (bulk) --------------------------

    def zeta_derivs_uniform(self, sigma: float, t0: float, step: float,
                            count: int, jmax: int) -> tuple[np.ndarray, float]:
        """zeta^(j)(sigma + i(t0 + m step)), m < count, j <= jmax."""
        ts = t0 + step * np.arange(count)
        return self._zeta_derivs(sigma + 1j * ts, jmax, self.profile, step)

    def zeta_derivs_points(self, sigma: float, ts: np.ndarray, jmax: int) -> tuple[np.ndarray, float]:
        """Same as :meth:`zeta_derivs_uniform` for an arbitrary set of heights."""
        return self._zeta_derivs(sigma + 1j * np.asarray(ts, dtype=float), jmax, self.profile)

    # -- log-derivative recursion ------------------------------------------

    @staticmethod
    def _log_deriv_recursion(z: np.ndarray, kmax: int, err: np.ndarray | None = None
                             ) -> tuple[np.ndarray, np.ndarray | None]:
        """(zeta'/zeta)^(m) for m = 0..kmax from zeta^(0..kmax+1) columns.

        With g = log zeta, g^(n) = [zeta^(n) - sum_{j<=n-2} C(n-1,j)
        g^(j+1) zeta^(n-1-j)] / zeta, and (zeta'/zeta)^(m) = g^(m+1).
        Given absolute error columns ``err`` of z, the second item carries
        them through the same recursion to first order; otherwise it is None.
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
        if err is None:
            return vals, None
        az, ag = np.abs(z), np.abs(vals)
        ge = np.empty(vals.shape)
        for n in range(1, kmax + 2):
            acc_err = err[..., n] + ag[..., n - 1] * err[..., 0]
            for j in range(0, n - 1):
                acc_err += math.comb(n - 1, j) * (ag[..., j] * err[..., n - 1 - j]
                                                  + ge[..., j] * az[..., n - 1 - j])
            ge[..., n - 1] = acc_err / az[..., 0]
        return vals, ge

    def log_deriv_line(self, sigma: float, ts: np.ndarray, kmax: int) -> tuple[np.ndarray, float]:
        """(zeta'/zeta)^(m)(sigma + i t) for m = 0..kmax over an array of t."""
        if sigma <= 0.5:
            raise DomainError("log-derivative requires sigma > 1/2")
        z, err = self.zeta_derivs_points(sigma, ts, kmax + 1)
        return self._log_deriv_recursion(z, kmax)[0], err

    def log_deriv_uniform(self, sigma: float, t0: float, step: float,
                          count: int, kmax: int) -> tuple[np.ndarray, float]:
        if sigma <= 0.5:
            raise DomainError("log-derivative requires sigma > 1/2")
        z, err = self.zeta_derivs_uniform(sigma, t0, step, count, kmax + 1)
        return self._log_deriv_recursion(z, kmax)[0], err

    # -- public single-point operations ------------------------------------

    def _single_point(self, p: EvalPoint, jmax: int) -> tuple[np.ndarray, np.ndarray]:
        """zeta^(j)(s), j <= jmax, from one ``SINGLE`` block, with per-entry errors.

        The error of entry j is its truncation bound plus its rounding
        estimate; only the truncation bound is gated, because no
        Euler-Maclaurin setting removes the rounding.
        """
        if not (0 <= jmax <= 12):
            raise DomainError(f"jmax={jmax} outside [0, 12]")
        s = p.s
        if abs(s - 1.0) < 2e-3:
            raise DomainError("s within 2e-3 of the pole s = 1")
        vals, trunc, rounding = _em_block(np.array([s]), jmax, self.SINGLE, None)
        if trunc[-1] > _TARGET_ABS_ERROR:
            raise PrecisionError(
                f"zeta^({jmax})({s}) truncation bound {trunc[-1]:.2e} exceeds 1e-8")
        return vals[0], trunc + rounding

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
        vals, errs = self._single_point(p, jmax)
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
        z, err = self._single_point(p, k + 1)
        vals, errs = self._log_deriv_recursion(z, k, err)
        value = complex(vals[k])
        if abs(p.t) >= 2.0:
            bound = LOG_DERIV_BOUND_C * math.log(abs(p.t)) / (p.sigma - 0.5) ** (k + 1)
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
        return float(self.hardy_z_points(np.array([t]))[0])

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

def riemann_siegel_theta_array(ts: np.ndarray) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, vectorized."""
    ts = np.asarray(ts, dtype=float)
    return np.imag(_loggamma(0.25 + 0.5j * ts)) - 0.5 * ts * math.log(math.pi)


def riemann_siegel_theta(t: float) -> float:
    """Rotation angle putting zeta on the critical line onto the real axis.

    Backed by the log-gamma implementation of scipy (asymptotic series with
    recurrence shifts), giving errors at machine-precision level, far below
    the 1e-9 budget for t >= 2.
    """
    if t < 2.0:
        raise DomainError("riemann_siegel_theta requires t >= 2")
    return float(riemann_siegel_theta_array(np.array([t]))[0])
