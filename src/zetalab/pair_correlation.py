"""Pair statistics of the zero ordinates: F(alpha,T), pair counts, GUE.

F(alpha,T) = (2 pi / (T log T)) * sum_{0<g,g'<=T} T^{i alpha (g-g')} w(g-g')
with w(u) = 4/(4+u^2).  Every weighted double sum over zero pairs runs
over one pair set: the positive differences g - g' within
``pair_cutoff(t)`` and their weights (the kernels are even, so each such
pair counts twice beside the n diagonal terms; the weight makes the
truncated remainder negligible, and the brute-force oracle in the tests
validates the truncation).  The set is gathered once per (table, T) and
kept, read-only, on the ``ZeroTable`` it came from, so ``f_grid``,
``pair_sum``, ``f_alpha`` and every ``moments.i_k_from_zeros`` call on
one table share it, and it is freed with the table.

``pair_sum`` evaluates its kernel over blocks of ``PAIR_BLOCK`` pairs, so
its temporaries stay one block long whatever the height.  ``f_alpha`` is
that sum with a cosine kernel; ``f_grid`` samples the same sum on a
uniform alpha grid as a grid-factored matrix product over the same blocks
(Odlyzko & Schoenhage, Trans. AMS 309, 1988): sample m = G q + r splits
e^{i m theta} into an outer factor e^{i G q theta} and an inner factor
e^{i r theta}, and one real GEMM per block of outer rows sums the pairs
for G samples at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, RangeError
from .zero_catalog import ZeroTable

#: largest number of alpha samples f_grid will allocate
MAX_ALPHAS = 10 ** 6
#: f_grid samples per inner factor (the G of m = G q + r); of 8, 16 and 32,
#: 16 timed fastest on the 301-sample grids at T = 1000-3000
GRID = 16
#: pairs per block of pair_sum's kernel and of f_grid's product; the inner
#: factor of an f_grid block is GRID x PAIR_BLOCK complex numbers (2 MB)
PAIR_BLOCK = 8192
#: outer rows built per product, so a block's outer factor is at most
#: ROWS x PAIR_BLOCK complex numbers (8 MB) whatever the sample count
ROWS = 64
#: Si(x) by composite Gauss-Legendre, SI_NODES nodes on panels at most pi
#: wide, below SI_CUT, and by SI_TERMS terms of its asymptotic series from
#: there, whose first omitted terms 20!/x^21 and 21!/x^22 are below 1e-17
SI_CUT = 16.0 * math.pi
SI_NODES = 10
SI_TERMS = 10
_SI_X, _SI_W = leggauss(SI_NODES)


def pair_weight(u):
    """Montgomery's weight w(u) = 4 / (4 + u^2)."""
    u = np.asarray(u, dtype=float)
    return 4.0 / (4.0 + u * u)


def pair_cutoff(t: float) -> float:
    """Truncation distance for the pair double sums."""
    return max(200.0, t / 10.0)


@dataclass(frozen=True)
class FGrid:
    """Samples of F(alpha, T) on an increasing alpha grid at fixed T."""

    T: float
    alphas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "values", v)
        if a.shape != v.shape:
            raise DomainError("alphas and values must have matching shapes")
        if a.size and np.any(np.diff(a) <= 0):
            raise DomainError("alphas must be strictly increasing")
        if v.size and float(np.min(v)) < -1e-9:
            raise DomainError(
                f"F grid value {float(np.min(v))} below -1e-9; "
                "the weighted pair sum must stay nonnegative")

    @property
    def alpha_max(self) -> float:
        return float(self.alphas[-1]) if self.alphas.size else 0.0


def _require_finite(**values: float) -> None:
    """Raise DomainError for the first of `values` that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name}={value} must be finite")


def _log_height(t: float) -> float:
    """log T, refusing T <= 1, where the pair scale 2 pi / log T is not positive."""
    if t <= 1.0:
        raise DomainError(f"T={t} must exceed 1")
    return math.log(t)


def _window_starts(zeros: ZeroTable, t: float, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """(ordinates up to t, index of the first ordinate within reach below each)."""
    zeros.require_coverage(t)
    g = zeros.ordinates[zeros.ordinates <= t]
    return g, np.searchsorted(g, g - reach, side="left")


def _gather_pairs(zeros: ZeroTable, t: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(zero count, positive pair differences within cutoff, their weights).

    The differences run over i in increasing order and, within each i,
    over g[lo[i]], ..., g[i-1].  Both arrays come back read-only.
    """
    g, lo = _window_starts(zeros, t, pair_cutoff(t))
    counts = np.arange(g.size) - lo
    i = np.repeat(np.arange(g.size), counts)
    starts = np.cumsum(counts) - counts   # where each i's run begins in the output
    j = np.arange(i.size) - np.repeat(starts - lo, counts)
    diffs = g[i] - g[j]
    weights = pair_weight(diffs)
    diffs.flags.writeable = False
    weights.flags.writeable = False
    return g.size, diffs, weights


def _pair_data(zeros: ZeroTable, t: float) -> tuple[int, np.ndarray, np.ndarray]:
    """The table's pair set at height t, gathered on first use.

    Coverage is checked on every call, before the lookup.  The table keeps
    one set: a call at another height replaces it.
    """
    zeros.require_coverage(t)
    found = zeros._pair_set.get(t)
    if found is None:
        found = _gather_pairs(zeros, t)
        zeros._pair_set.clear()
        zeros._pair_set[t] = found
    return found


def pair_sum(zeros: ZeroTable, t: float, kernel) -> float:
    """sum_{0<g,g'<=T} kernel(g-g') w(g-g') for an even kernel of the difference.

    `kernel` maps an array of differences to an array of values; the
    diagonal contributes n * kernel(0) (w(0) = 1) and each positive
    difference within the cutoff counts twice.  The kernel is evaluated
    on blocks of PAIR_BLOCK differences.
    """
    n, diffs, weights = _pair_data(zeros, t)
    off = 0.0
    for lo in range(0, diffs.size, PAIR_BLOCK):
        block = slice(lo, lo + PAIR_BLOCK)
        off += float(np.dot(weights[block], kernel(diffs[block])))
    return n * float(kernel(0.0)) + 2.0 * off


def f_alpha(zeros: ZeroTable, t: float, alpha: float) -> float:
    """Montgomery's F(alpha, T) from the zero table."""
    _require_finite(t=t, alpha=alpha)
    if t < 50.0:
        raise DomainError("f_alpha requires T >= 50")
    log_t = math.log(t)
    return (2.0 * math.pi / (t * log_t)) * pair_sum(
        zeros, t, lambda d: np.cos(alpha * log_t * d))


def f_grid(zeros: ZeroTable, t: float, alpha_max: float, step: float) -> FGrid:
    """Sample F on {0, step, ..., alpha_max}.

    The grid is uniform, so the off-diagonal sum at sample m = G q + r is
    Re sum_p w_p e^{i G q theta_p} e^{i r theta_p}, theta_p = step log T d_p:
    for each block of PAIR_BLOCK pairs the inner factor e^{-i r theta_p}
    (r < G, conjugated) and the outer factor w_p e^{i G q theta_p} are built
    by repeated multiplication, and each ROWS outer rows meet the inner
    factor in one real GEMM of their interleaved (re, im) views.
    """
    _require_finite(t=t, alpha_max=alpha_max, step=step)
    if step <= 0:
        raise DomainError("step must be positive")
    if alpha_max > 8.0:
        raise DomainError("alpha_max above 8 is out of scope")
    if alpha_max < 0:
        raise DomainError("alpha_max must be nonnegative")
    if alpha_max / step > MAX_ALPHAS:
        raise DomainError(
            f"alpha_max/step = {alpha_max / step:.3g} exceeds {MAX_ALPHAS} samples")
    log_t = _log_height(t)
    count = int(round(alpha_max / step)) + 1
    alphas = step * np.arange(count)
    if alphas.size and alphas[-1] > alpha_max + 1e-12:
        alphas = alphas[alphas <= alpha_max + 1e-12]
    n, diffs, weights = _pair_data(zeros, t)
    rows = -(-alphas.size // GRID)
    off = np.zeros((rows, GRID))
    # one pair of buffers for every block, so one block's factors are live at a time
    width = min(PAIR_BLOCK, diffs.size)
    inner_buf = np.empty((GRID, width), dtype=complex)
    outer_buf = np.empty((min(ROWS, rows), width), dtype=complex)
    for lo in range(0, diffs.size, PAIR_BLOCK):
        back = np.exp(-1j * (step * log_t) * diffs[lo:lo + PAIR_BLOCK])
        inner = inner_buf[:, :back.size]
        inner[0] = 1.0
        for r in range(1, GRID):
            np.multiply(inner[r - 1], back, out=inner[r])
        lead = np.conj(inner[-1] * back)       # e^{i G theta}
        row = weights[lo:lo + PAIR_BLOCK].astype(complex)
        for q in range(0, rows, ROWS):
            band = outer_buf[:min(ROWS, rows - q), :back.size]
            band[0] = row
            for j in range(1, len(band)):
                np.multiply(band[j - 1], lead, out=band[j])
            row = band[-1] * lead
            off[q:q + len(band)] += band.view(float) @ inner.view(float).T
    values = (2.0 * math.pi / (t * log_t)) * (n + 2.0 * off.ravel()[:alphas.size])
    return FGrid(t, alphas, values)


def f_window_integral(grid: FGrid, b: float, ell: float) -> float:
    """Trapezoid integral of F over [b, b+ell] on the sampled grid.

    The window endpoints are linearly interpolated when they fall between
    grid nodes.
    """
    _require_finite(b=b, ell=ell)
    if ell <= 0:
        raise RangeError("window length must be positive")
    if b < 0:
        raise RangeError("window start must be nonnegative")
    hi = b + ell
    if hi > grid.alpha_max + 1e-12:
        raise RangeError(
            f"window [{b}, {hi}] exceeds the grid (alpha_max={grid.alpha_max})")
    xs = grid.alphas
    ys = grid.values
    inner = (xs > b) & (xs < hi)
    points = np.concatenate(([b], xs[inner], [hi]))
    vals = np.concatenate((
        [float(np.interp(b, xs, ys))],
        ys[inner],
        [float(np.interp(hi, xs, ys))],
    ))
    return float(np.trapezoid(vals, points))


def pair_count(zeros: ZeroTable, t: float, beta: float) -> int:
    """N(beta, T): ordered pairs with 0 < g - g' <= 2 pi beta / log T."""
    _require_finite(t=t, beta=beta)
    log_t = _log_height(t)
    if beta <= 0:
        return 0
    g, lo = _window_starts(zeros, t, 2.0 * math.pi * beta / log_t)
    return int(np.sum(np.arange(g.size) - lo))


def _si(x: float) -> float:
    """The sine integral Si(x) = int_0^x sin(u)/u du for x > 0."""
    if x < SI_CUT:
        panels = max(1, math.ceil(x / math.pi))
        h = x / panels
        u = h * (np.arange(panels)[:, None] + 0.5 * (_SI_X + 1.0))
        return 0.5 * h * float(np.sum(_SI_W * (np.sin(u) / u)))
    # Si = pi/2 - f cos x - g sin x with f ~ sum_n (-1)^n (2n)!/x^{2n+1}
    # and g ~ sum_n (-1)^n (2n+1)!/x^{2n+2}
    inv_sq = 1.0 / (x * x)
    term_f, term_g = 1.0 / x, inv_sq
    f, g = term_f, term_g
    for n in range(1, SI_TERMS):
        term_f *= -(2 * n - 1) * (2 * n) * inv_sq
        term_g *= -(2 * n) * (2 * n + 1) * inv_sq
        f += term_f
        g += term_g
    return 0.5 * math.pi - f * math.cos(x) - g * math.sin(x)


def gue_integral(beta: float) -> float:
    """int_0^beta { 1 - (sin pi u / pi u)^2 } du in closed form.

    By parts, int_0^beta (sin pi u / pi u)^2 du is
    Si(2 pi beta) / pi - sin^2(pi beta) / (pi^2 beta), with Si the sine
    integral.  The three terms cancel to order beta^3 for small beta, so the absolute error is
    a few eps * beta rather than relative to the value.
    """
    _require_finite(beta=beta)
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    if beta == 0:
        return 0.0
    return (beta - _si(2.0 * math.pi * beta) / math.pi
            + math.sin(math.pi * beta) ** 2 / (math.pi ** 2 * beta))


def mean_log_square(t: float) -> float:
    """M(T) = (1/(T log T)) int_0^T log^2(t/2 pi) dt = (L^2 - 2L + 2) / log T.

    Here L = log(T/2 pi).  Montgomery (Proc. Sympos. Pure Math. 24, 1973)
    finds F by integrating over [0, T] the square of an explicit formula for
    2 sum_g x^{i g} / (1 + (t - g)^2), x = T^alpha.  Its term from the gamma
    factor of zeta is x^{-1+it} log(t/2 pi), up to O(1/t): 2 pi times the
    density of zeros at height t.  That term's mean square over [0, T],
    divided by the T log T of F's normalization, is x^{-2} M(T); the theorem
    keeps only its limit, log T.  With u = t/2 pi the integral is
    2 pi [u (log^2 u - 2 log u + 2)] from 0 to T/2 pi, which is
    T (L^2 - 2L + 2).
    """
    big_l = math.log(t / (2.0 * math.pi))
    return (big_l * big_l - 2.0 * big_l + 2.0) / math.log(t)


def montgomery_asymptotic(alpha: float, t: float) -> float:
    """Small-alpha model T^{-2|alpha|} M(T) + |alpha| at finite height.

    Montgomery's theorem F = (1 + o(1)) T^{-2|alpha|} log T + |alpha| + o(1)
    before its first term is taken to the limit: M(T) is
    :func:`mean_log_square`, which tends to log T.  Only uniform on
    |alpha| <= 1; out-of-range requests are rejected.
    """
    _require_finite(alpha=alpha, t=t)
    if abs(alpha) > 1.0:
        raise DomainError("the asymptotic holds only for |alpha| <= 1")
    if t < 50.0:
        raise DomainError("requires T >= 50")
    a = abs(alpha)
    return t ** (-2.0 * a) * mean_log_square(t) + a
