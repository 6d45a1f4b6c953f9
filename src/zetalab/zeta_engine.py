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
  once and are the only affordable option for the moment quadratures; a
  non-finite sigma, height or step raises DomainError.

Every block's main sum is one complex product outer @ kernel: the rows of
``outer`` are n^{-s} at row anchors, and the kernel is the weights
(-ln n)^j, for a uniform sweep times the phases n^{-i r step} of the
``GRID`` points of a row (Odlyzko & Schoenhage, Trans. AMS 309, 1988).
Both tables of n^{-x} come from ``_power_table``.  Below
``SIEVE_MIN_ENTRIES`` entries, which covers single points and blocks near
T = 51, it takes one np.exp per entry.  A larger table uses that n^{-x} is
completely multiplicative in n: only the primes take an exponential, with
the exponent x ln p to double-double, and each other row is one product
of two rows built before it, one vectorised stage per range [lo, 2 lo).
The smooth part of a block, the boundary terms and Bernoulli corrections
differentiated, is one real product as well: a coefficient table of shape
(jmax+1, 2R+jmax+1) times the basis s^d, d < 2R, and (s-1)^{-m-1},
m <= jmax, of the block's points, taken ``SMOOTH_SLAB`` points at a time
(``_em_smooth_derivs``).
Every bulk call goes to the kernel in consecutive blocks in input order:
``ZetaEngine.CHUNK`` points of a uniform sweep, or ``ZetaEngine.BAND``
arbitrary heights (``zeta_derivs_points``, ``log_deriv_line``,
``hardy_z_jets``), one per row.  Each block sums to its own max |Im s|, so
on the increasing heights that every caller passes, a band of low points
does not pay the main-sum length of the highest one.  Bulk
errors are per point, as for single points: each entry carries its block's
truncation plus rounding bound, and ``log_deriv_uniform``/``_line`` carry
these through the same log-derivative recursion to one error per point
and order.

Error estimates everywhere are heuristic first-order propagation, not
certified enclosures.
"""

from __future__ import annotations

import cmath
import decimal
import math
import numbers
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
#: N x GRID (jmax+1) matrix.  Timed on one 4096-point block (2-core Intel
#: Xeon VM, one BLAS thread), 64 is the fastest of 32, 64 and 128 at
#: T = 1000 and 6000, for J = 0 (the scan) and J = 5 (the quadrature): 32
#: is 12-41% slower and 128 24-87% slower.  At T = 51 (N = 37) the three
#: are within 5% at J = 0, and 32 is 11% faster than 64 at J = 5.
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


@lru_cache(maxsize=None)
def _leibniz_table(jmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(j, m), the exponent max(j - m, 0) and (-1)^m m!, for j, m <= jmax."""
    orders = range(jmax + 1)
    binom = np.array([[math.comb(j, m) for m in orders] for j in orders], dtype=float)
    expo = np.maximum(np.subtract.outer(orders, orders), 0)
    signed_fact = np.array([(-1.0) ** m * math.factorial(m) for m in orders])
    for table in (binom, expo, signed_fact):
        table.flags.writeable = False
    return binom, expo, signed_fact


#: points per slab of the smooth part's basis, which a longer block fills
#: in pieces.  Timed on 4096-point blocks at T = 51 and 1000 (2-core Intel
#: Xeon VM, one BLAS thread), 1024 is within 11% of the fastest size, 2048,
#: and 20% faster than 512; it is the largest size that does not raise the
#: peak memory of a zero search to T = 1000 (2048 adds 0.1 MB, one slab per
#: block 0.9 MB)
SMOOTH_SLAB = 1024


def _em_smooth_derivs(s: np.ndarray, n_len: int, jmax: int, r_terms: int) -> np.ndarray:
    """d^j/ds^j of the non-sum part of the Euler-Maclaurin formula.

    Covers N^{1-s}/(s-1), N^{-s}/2 and the Bernoulli corrections
    B_{2r}/(2r)! * (s)_{2r-1} * N^{-s-2r+1}.  Each is N^{-s} h(s), so by
    Leibniz d^j(N^{-s} h) = N^{-s} sum_m L[j, m] h^(m) with
    L[j, m] = C(j, m) (-ln N)^(j-m).  Every h^(m) is a real combination of
    the basis s^d, d < 2R (the polynomial parts, the 1/2 and the Bernoulli
    sums over r), and (s-1)^{-m-1}, m <= jmax (the pole part
    N (-1)^m m! (s-1)^{-m-1}), so all columns j are one real product
    C @ basis, with C of shape (jmax+1, 2R+jmax+1), on the real and
    imaginary parts of the basis side by side.  Each basis row is the row
    before times s or 1/(s-1), built ``SMOOTH_SLAB`` points at a time.
    Returns the (count, jmax+1) array of columns j.
    """
    binom, expo, signed_fact = _leibniz_table(jmax)
    ln_n = math.log(n_len)
    leibniz = binom * (-ln_n) ** expo
    table = _bernoulli_poly_table(r_terms, jmax)
    poly = (float(n_len) ** (1 - 2 * np.arange(1, r_terms + 1))
            @ table.reshape(r_terms, -1)).reshape(jmax + 1, 2 * r_terms)
    poly[0, 0] += 0.5
    coeffs = np.hstack([leibniz @ poly, n_len * leibniz * signed_fact])
    powers = 2 * r_terms                     # rows s^0 .. s^(2R-1); the pole rows follow
    out = np.empty((jmax + 1, s.size), dtype=complex)
    slab = np.empty((coeffs.shape[1], min(s.size, SMOOTH_SLAB)), dtype=complex)
    slab[0] = 1.0
    for lo in range(0, s.size, SMOOTH_SLAB):
        piece = s[lo:lo + SMOOTH_SLAB]
        basis = slab[:, :piece.size]
        for d in range(1, powers):
            np.multiply(basis[d - 1], piece, out=basis[d])
        np.divide(1.0, piece - 1.0, out=basis[powers])
        for d in range(powers + 1, basis.shape[0]):
            np.multiply(basis[d - 1], basis[powers], out=basis[d])
        np.matmul(coeffs, basis.view(float), out=out[:, lo:lo + piece.size].view(float))
    out *= np.exp(-s * ln_n)
    return out.T


#: a table n^{-x_q} of fewer entries than this, len(x) (N - 1), is one np.exp
#: per entry; a larger one takes exponentials only at the primes
#: (``_power_table``).  Timed on a 2-core Intel Xeon VM with one BLAS
#: thread, the sieve breaks even between 3,000 and 4,800 entries (64 rows
#: between N = 48 and 64, 16 rows between N = 200 and 300, 8 rows between
#: N = 414 and 600) and is 2.3-3.3x faster at 64 x 413; a single row is
#: slower through the sieve even at N = 4000, and the cut keeps every
#: single point (at most 3,167 entries up to t = 6000) and a 64-row block
#: at T ~ 51 (N = 37) on np.exp
SIEVE_MIN_ENTRIES = 4096

_SPLIT = 2.0 ** 27 + 1.0        # Veltkamp's splitter for float64


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


class _SievePlan(NamedTuple):
    """The factorisations that ``_power_table`` multiplies along, for n < size.

    ``primes`` are the primes below size, and ln p = ln_hi + ln_lo to
    double-double (``_ln_parts``).  For n >= 2 with least prime factor a,
    first[n-1] is the index of a in ``primes`` and rest[n-1] = n/a - 1 is
    the row of the cofactor (row 0, n = 1, for a prime).  None of these
    depends on size for n below it, so a plan serves every shorter sum.
    """

    primes: np.ndarray
    ln_hi: np.ndarray
    ln_lo: np.ndarray
    first: np.ndarray
    rest: np.ndarray


@lru_cache(maxsize=None)
def _ln_parts(p: int) -> tuple[float, float]:
    """ln p = hi + lo to double-double, hi = fl(ln p), from ``decimal`` at 40 digits."""
    ctx = decimal.Context(prec=40)
    ln_p = ctx.ln(p)
    hi = float(ln_p)
    return hi, float(ctx.subtract(ln_p, decimal.Decimal(hi)))


@lru_cache(maxsize=None)
def _sieve_plan(size: int) -> _SievePlan:
    """The plan of every n < size, from a least-prime-factor sieve; read-only."""
    lpf = np.zeros(size, dtype=np.intp)
    for p in range(2, math.isqrt(size - 1) + 1):
        if lpf[p] == 0:
            multiples = lpf[p * p::p]
            multiples[multiples == 0] = p
    primes = np.flatnonzero(lpf[2:] == 0) + 2
    lpf[primes] = primes
    ln_hi, ln_lo = np.array([_ln_parts(p) for p in primes.tolist()]).T
    first = np.zeros(size - 1, dtype=np.intp)
    rest = np.zeros(size - 1, dtype=np.intp)
    first[1:] = np.searchsorted(primes, lpf[2:])
    rest[1:] = np.arange(2, size) // lpf[2:] - 1
    plan = _SievePlan(primes, ln_hi, ln_lo, first, rest)
    for table in plan:
        table.flags.writeable = False
    return plan


def _prime_powers(x: np.ndarray, ln_hi: np.ndarray, ln_lo: np.ndarray) -> np.ndarray:
    """p^{-x_q} at [i, q] for the primes p with ln p = ln_hi[i] + ln_lo[i].

    The exponent x_q ln p is kept to double-double, for the real and the
    imaginary part of x_q alike.  With a = fl(ln p) = ah + al and x = xh + xl
    split in 26-bit halves, lead = fl(a x), and ah xh - lead is exact
    (Dekker's two-product); adding ah xl and (al + ln_lo) x, whose
    roundings are about 2^-79 |lead|, leaves the rest of the exponent
    within 1e-18 of exact up to |Im x| = 6000.  exp(-lead) (1 - rest) is
    then within a few rounding errors of p^{-x_q}, where exp(-x_q fl(ln p))
    would carry the rounding of the phase, about |Im x_q| ln p eps.
    """
    xf = np.ascontiguousarray(x, dtype=complex).view(float)
    xh, xl = _split(xf)
    ah, al = _split(ln_hi)
    lead = np.multiply.outer(ln_hi, xf)
    rest = np.multiply.outer(ah, xh)
    rest -= lead
    term = np.multiply.outer(ah, xl)
    rest += term
    rest += np.multiply.outer(al + ln_lo, xf, out=term)
    del term
    out = lead.view(complex)
    np.exp(np.negative(out, out=out), out=out)
    rest = rest.view(complex)
    rest *= out
    out -= rest
    return out


def _power_table(x: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """n^{-x_q} at [q, n-1] for n < N, where logs[n-1] = ln n and N = logs.size + 1.

    A table of fewer than ``SIEVE_MIN_ENTRIES`` entries is exp(-x_q ln n).
    A larger one uses that n^{-x} is completely multiplicative in n: only
    the primes take an exponential (``_prime_powers``), and each row n =
    a m, a its least prime factor, is row a times row m.  As m <= n/2, the
    rows of [lo, 2 lo) depend only on rows below lo, so such a range is one
    vectorised stage: a gather of the rows m straight into place, and a
    product with the gathered prime rows.  A stage has at most as many rows
    as there are primes, so its buffer is no larger than the prime table.
    The factorisations are cut from the ``_sieve_plan`` of the power of two
    at or above N, so the cache holds one plan per doubling, together at
    most twice the largest.  Such a table is built by rows n and returned as
    a transposed view.
    """
    n_len = logs.size + 1
    if x.size * logs.size < SIEVE_MIN_ENTRIES:
        table = np.multiply.outer(-x, logs)
        return np.exp(table, out=table)
    plan = _sieve_plan(1 << (n_len - 1).bit_length())
    count = int(np.searchsorted(plan.primes, n_len))
    primes = _prime_powers(x, plan.ln_hi[:count], plan.ln_lo[:count])
    out = np.empty((n_len - 1, x.size), dtype=complex)
    out[0] = 1.0
    buf = np.empty_like(primes)
    lo = 2
    while lo < n_len:
        hi = min(2 * lo, lo + count, n_len)
        rows, part = out[lo - 1:hi - 1], buf[:hi - lo]
        # mode="clip" writes straight into out=, where "raise" would buffer
        np.take(out[:lo - 1], plan.rest[lo - 1:hi - 1], axis=0, out=rows, mode="clip")
        np.take(primes, plan.first[lo - 1:hi - 1], axis=0, out=part, mode="clip")
        np.multiply(rows, part, out=rows)
        lo = hi
    return out.T


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
    n^{-i r step} (-ln n)^j, shape (N, G (jmax+1)).  Both tables of n^{-x},
    ``outer`` and the phases n^{-i r step}, come from ``_power_table``:
    one exponential per entry for a small table, exponentials only at the
    primes and one product per other row for a larger one.
    Two per-order bounds come back, both at the block's min sigma and max
    |t|: the truncation bound, the tail with that N times max(1, ln N)^j for
    the differentiated terms, and the float64 rounding estimate
    eps (1 + |t| ln N) ||n^{-sigma} (ln n)^j||_2 over n < N, which is the
    rounding of the phase t ln n of n^{-s} carried through the main sum:
    that of the height t itself, and in a table of one exponential per
    entry also that of the product t ln n.
    """
    t_hi = float(np.max(np.abs(s.imag)))
    sigma_lo = float(np.min(s.real))
    n_len = _main_sum_length(t_hi, profile)
    # the smooth part first, so its basis is freed before the main-sum matrices exist
    smooth = _em_smooth_derivs(s, n_len, jmax, profile.correction_terms)
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
        kernel = (_power_table(1j * step * np.arange(grid), logs).T[:, :, None]
                  * weights[:, None, :]).reshape(n_len - 1, -1)
    outer = _power_table(s[::grid], logs)
    main = (outer @ kernel).reshape(-1, jmax + 1)[:s.size]
    vals = main + smooth
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

    All methods are pure functions of their arguments.  An instance holds
    no mutable state, and outside its ``functools`` caches of read-only
    tables neither does the module.
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

        The points go to the kernel in consecutive blocks in input order:
        ``CHUNK`` points when ``step`` declares them uniform, s[m] = s[0] +
        i step m, and ``BAND`` points otherwise.  Each block sums to its own
        max |Im s|, so values and bounds hold for points in any order, but
        unsorted heights make each band pay for its highest point; the
        callers in the package pass increasing heights.  Entry [m, j] of the
        error array is the truncation plus rounding bound of order j of the
        block holding m.  A non-finite point or step raises DomainError.
        """
        if not (np.all(np.isfinite(s)) and (step is None or math.isfinite(step))):
            raise DomainError("bulk evaluation requires finite sigma, heights and step")
        out = np.empty((s.size, jmax + 1), dtype=complex)
        err = np.empty((s.size, jmax + 1))
        size = self.BAND if step is None else self.CHUNK
        for lo in range(0, s.size, size):
            block = slice(lo, lo + size)
            out[block], trunc, rounding = _em_block(s[block], jmax, self.profile, step)
            err[block] = trunc + rounding
        return out, err

    # -- derivatives along a vertical line (bulk) --------------------------

    def zeta_derivs_uniform(self, sigma: float, t0: float, step: float,
                            count: int, jmax: int) -> tuple[np.ndarray, np.ndarray]:
        """zeta^(j)(sigma + i(t0 + m step)), m < count, j <= jmax, with errors."""
        with np.errstate(invalid="ignore", over="ignore"):   # refused in _zeta_derivs
            s = sigma + 1j * (t0 + step * np.arange(count))
        return self._zeta_derivs(s, jmax, step)

    def zeta_derivs_points(self, sigma: float, ts: np.ndarray, jmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Same as :meth:`zeta_derivs_uniform` for an arbitrary set of heights."""
        with np.errstate(invalid="ignore"):                  # refused in _zeta_derivs
            s = sigma + 1j * np.asarray(ts, dtype=float)
        return self._zeta_derivs(s, jmax)

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
        if not 0.5 < sigma < math.inf:
            raise DomainError("log-derivative requires a finite sigma > 1/2")
        z, err = self.zeta_derivs_points(sigma, ts, kmax + 1)
        return self._log_deriv_recursion(z, kmax, err)

    def log_deriv_uniform(self, sigma: float, t0: float, step: float,
                          count: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`log_deriv_line` at the heights t0 + m step, m < count."""
        if not 0.5 < sigma < math.inf:
            raise DomainError("log-derivative requires a finite sigma > 1/2")
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
        """zeta(s) as entry 0 of :meth:`zeta_derivatives`, for a finite complex
        s with Re s >= 1/2; any other s raises DomainError."""
        s = complex(s)
        if not (s.real >= 0.5 and cmath.isfinite(s)):
            raise DomainError(f"zeta requires a finite s with Re s >= 1/2, got {s}")
        vals, errs = self._single_point(s, 0)
        return ComplexEval(complex(vals[0]), float(errs[0]))

    def zeta_derivatives(self, p: EvalPoint, jmax: int) -> list[ComplexEval]:
        """zeta^(j)(s) for j = 0..jmax with per-entry error estimates.

        All entries are the derivative columns of one Euler-Maclaurin block
        summed with the fixed profile ``SINGLE``, whatever the engine's own
        profile.  Entry j's ``abs_error`` is the block's truncation bound
        plus its rounding estimate (``_em_block``).  PrecisionError is raised
        when the truncation bound of the top order exceeds 1e-8 (see
        ``_single_point``).  Points within 2e-3 of the pole are refused.
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
        if not isinstance(k, numbers.Integral):
            raise DomainError(f"k={k!r} must be an integer")
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

    # -- Hardy Z: theta first, which refuses a t outside its domain ---------

    def hardy_z(self, t: float) -> float:
        """Z(t) = Re{ e^{i theta(t)} zeta(1/2 + it) }; real, zeros at the gammas."""
        rotation = np.exp(1j * riemann_siegel_theta(t))
        z = self.zeta(complex(0.5, t)).value
        return float(np.real(rotation * z))

    def hardy_z_jets(self, ts: np.ndarray, jmax: int) -> np.ndarray:
        """Re e^{i theta(t_m)} zeta^(j)(1/2 + i t_m) i^j / j! in row m, column j <= jmax:
        the Taylor coefficients in x - t_m of Z(x) cos(theta(x) - theta(t_m)), so
        column 0 is Z(t_m); one arbitrary-point call for all rows."""
        ts = np.asarray(ts, dtype=float)
        rotation = np.exp(1j * riemann_siegel_theta_array(ts))
        vals, _ = self.zeta_derivs_points(0.5, ts, jmax)
        scale = np.array([1j ** j / math.factorial(j) for j in range(jmax + 1)])
        return np.real(vals * scale * rotation[:, None])

    def hardy_z_points(self, ts: np.ndarray) -> np.ndarray:
        return self.hardy_z_jets(ts, 0)[:, 0]

    def hardy_z_uniform(self, t0: float, step: float, count: int) -> np.ndarray:
        ts = t0 + step * np.arange(count)
        rotation = np.exp(1j * riemann_siegel_theta_array(ts))
        vals, _ = self.zeta_derivs_uniform(0.5, t0, step, count, 0)
        return np.real(rotation * vals[:, 0])


# --------------------------------------------------------------------------
# Riemann-Siegel theta
# --------------------------------------------------------------------------

#: terms of the theta series
THETA_TERMS = 6
#: bound on each truncation error of theta: a quarter of the float64 eps
_THETA_TOL = 2.0 ** -54


def _theta_coefficient(n: int) -> float:
    """c_n = (1 - 2^{1-2n}) |B_2n| / (4n (2n-1)) of the theta series."""
    return (1.0 - 2.0 ** (1 - 2 * n)) * abs(_bernoulli(2 * n)) / (4 * n * (2 * n - 1))


_THETA_C = [_theta_coefficient(n) for n in range(1, THETA_TERMS + 1)]
#: least |t| of theta's domain, where the series is within _THETA_TOL: there
#: both its first omitted term c_{M+1} t^{-(2M+1)} and the arctan(e^{-pi t})/2
#: that it leaves out (from the reflection and duplication formulas of Gamma)
#: are below the tolerance
THETA_CUT = max((_theta_coefficient(THETA_TERMS + 1) / _THETA_TOL)
                ** (1.0 / (2 * THETA_TERMS + 1)),
                math.log(0.5 / _THETA_TOL) / math.pi)


def riemann_siegel_theta_array(ts: np.ndarray) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, vectorized; odd in t.

    The Riemann-Siegel series (Edwards, Riemann's Zeta Function, 6.5) in
    real arithmetic, theta = (t/2) (log(t/2pi) - 1) - pi/8
    + sum_{n<=M} c_n t^{1-2n}, with its coefficients from the exact
    Bernoulli numbers and its truncation below 2^-54.  Its domain is finite
    |t| >= ``THETA_CUT`` (11.69; the first zero of Z is at 14.13), and any
    other t raises DomainError.
    """
    ts = np.asarray(ts, dtype=float)
    t = np.abs(ts)
    if not np.all((t >= THETA_CUT) & (t < math.inf)):
        raise DomainError(f"theta requires finite |t| >= {THETA_CUT:.4f}")
    out = (0.5 * t * (np.log(t / TWO_PI) - 1.0) - math.pi / 8
           + horner(_THETA_C, 1.0 / (t * t)) / t)
    return np.where(ts < 0, -out, out)


def riemann_siegel_theta(t: float) -> float:
    """Rotation angle putting zeta on the critical line onto the real axis.

    :func:`riemann_siegel_theta_array` at one point: within 10 eps
    max(1, |theta|) of mpmath's, far below the 1e-9 budget of the zero
    finder.
    """
    return float(riemann_siegel_theta_array(np.array([t]))[0])
