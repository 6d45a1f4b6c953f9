"""Independent reference implementations used only as test oracles.

Nothing here shares code with the package: zeta comes from the
alternating-series (eta) route with Chebyshev acceleration, log Gamma from
a shifted Stirling series, and the arithmetic sums from a plain sieve.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def eta_zeta(s: complex, n_terms: int = 160) -> complex:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) with Chebyshev-accelerated eta.

    The d_k coefficients are exact integers; error decays like
    (3 + sqrt 8)^(-n) e^(pi |t| / 2), so n = 160 is ample for |t| <= 120.
    """
    n = n_terms
    d = []
    acc = Fraction(0)
    for i in range(n + 1):
        acc += Fraction(n * math.factorial(n + i - 1) * 4 ** i,
                        math.factorial(n - i) * math.factorial(2 * i))
        d.append(acc)
    dn = d[n]
    total = 0j
    for j in range(n):
        ratio = float((d[j] - dn) / dn)
        total += (-1) ** j * ratio * (j + 1) ** (-s)
    eta = -total
    return eta / (1.0 - 2.0 ** (1.0 - s))


def dirichlet_zeta(s: complex, n_terms: int = 200000) -> complex:
    """Plain Dirichlet sum with integral tail correction; Re s > 1 only."""
    n = np.arange(1, n_terms + 1, dtype=float)
    total = complex(np.sum(n ** (-s)))
    # Euler-Maclaurin tail: int + half endpoint - derivative correction
    tail = n_terms ** (1 - s) / (s - 1) - 0.5 * n_terms ** (-s) \
        + s / 12.0 * n_terms ** (-s - 1)
    return total + tail


def dirichlet_zeta_deriv(s: complex, n_terms: int = 200000) -> complex:
    """-sum log(n) n^(-s) with tail correction; Re s > 1 only."""
    n = np.arange(1, n_terms + 1, dtype=float)
    total = complex(np.sum(-np.log(n) * n ** (-s)))
    ln = math.log(n_terms)
    # d/ds of the tail correction above
    tail = (-ln * n_terms ** (1 - s) / (s - 1)
            - n_terms ** (1 - s) / (s - 1) ** 2
            + 0.5 * ln * n_terms ** (-s)
            + (1.0 - s * ln) / 12.0 * n_terms ** (-s - 1))
    return total + tail


def von_mangoldt_sieve(n_max: int) -> np.ndarray:
    """Lambda(1..n_max) as an array (index 0 unused)."""
    lam = np.zeros(n_max + 1)
    composite = np.zeros(n_max + 1, dtype=bool)
    for p in range(2, n_max + 1):
        if composite[p]:
            continue
        lp = math.log(p)
        q = p
        while q <= n_max:
            lam[q] = lp
            q *= p
        composite[p * p::p] = True
    return lam


def log_deriv_series(k: int, s: complex, n_max: int = 2_000_000) -> tuple[complex, float]:
    """(zeta'/zeta)^(k)(s) = (-1)^(k+1) sum Lambda(n) log^k(n) n^(-s), Re s > 1.

    Returns (value, tail bound); the bound integrates log^(k+1)(x)/x^Re(s).
    """
    lam = von_mangoldt_sieve(n_max)
    n = np.arange(n_max + 1, dtype=float)
    n[0] = 1.0
    logs = np.log(n)
    total = complex(np.sum(lam * logs ** k * n ** (-s)))
    sigma = s.real
    ln = math.log(n_max)
    # sum_{n>N} Lambda(n) log^k n / n^sigma <= ~ int_N^inf log^k x / x^sigma dx
    tail = ln ** k * n_max ** (1 - sigma) / (sigma - 1) * (1 + k / ((sigma - 1) * ln))
    return (-1.0) ** (k + 1) * total, tail


def stirling_theta(t: float, shift: int = 12) -> float:
    """Riemann-Siegel theta via a shifted Stirling series for log Gamma.

    log Gamma(z) = log Gamma(z + m) - sum_{j<m} log(z + j), with the
    Stirling asymptotic series (Bernoulli terms through B_16) at z + m.
    """
    z = complex(0.25, 0.5 * t)
    zs = z + shift
    # Stirling: (zs - 1/2) log zs - zs + log(2 pi)/2 + sum B_{2n}/(2n(2n-1) zs^{2n-1})
    bern = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
            7.0 / 6, -3617.0 / 510)
    val = (zs - 0.5) * np.log(zs) - zs + 0.5 * math.log(2.0 * math.pi)
    for n, b in enumerate(bern, start=1):
        val += b / (2 * n * (2 * n - 1) * zs ** (2 * n - 1))
    for j in range(shift):
        val -= np.log(z + j)
    return float(val.imag) - 0.5 * t * math.log(math.pi)


def composite_simpson(f, a: float, b: float, n_panels: int) -> float:
    xs = np.linspace(a, b, 2 * n_panels + 1)
    ys = np.array([f(x) for x in xs])
    w = np.full(xs.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(np.dot(w, ys)) * (xs[1] - xs[0]) / 3.0


def em_smooth_part_derivs(s: complex, n_len: int, jmax: int, r_terms: int,
                          dps: int = 30) -> list[complex]:
    """d^j/ds^j, j = 0..jmax, of the Euler-Maclaurin smooth part

        N^{1-s}/(s-1) + N^{-s}/2 + sum_{r<=R} B_2r/(2r)! (s)_{2r-1} N^{-s-2r+1},

    summed term by term in mpmath at ``dps`` digits and differentiated
    numerically with ``mpmath.diff``.  Needs mpmath, which callers gate
    with ``pytest.importorskip``.
    """
    import mpmath

    with mpmath.workdps(dps):
        n = mpmath.mpf(n_len)
        coeffs = [mpmath.bernoulli(2 * r) / mpmath.factorial(2 * r)
                  for r in range(1, r_terms + 1)]

        def smooth(z):
            npow = n ** (-z)
            total = n * npow / (z - 1) + npow / 2
            rising = z                                  # (z)_1
            for r in range(1, r_terms + 1):
                if r > 1:                               # (z)_{2r-1}
                    rising *= (z + 2 * r - 3) * (z + 2 * r - 2)
                total += coeffs[r - 1] * rising * npow / n ** (2 * r - 1)
            return total

        z0 = mpmath.mpc(s.real, s.imag)
        return [complex(mpmath.diff(smooth, z0, j)) for j in range(jmax + 1)]


def mp_zeta_and_log_derivs(s: complex, jmax: int, dps: int = 20
                           ) -> tuple[list[complex], list[complex]]:
    """zeta^(j)(s), j = 0..jmax, from ``mpmath.zeta``, and (zeta'/zeta)^(k),
    k = 0..jmax-1, from them by the log-derivative recursion at ``dps``
    digits.  Needs mpmath, which callers gate with ``pytest.importorskip``.
    """
    import mpmath

    with mpmath.workdps(dps):
        z0 = mpmath.mpc(s.real, s.imag)
        z = [mpmath.zeta(z0, 1, j) for j in range(jmax + 1)]
        g = [None] * (jmax + 1)
        for n in range(1, jmax + 1):
            acc = z[n]
            for j in range(n - 1):
                acc -= mpmath.binomial(n - 1, j) * g[j + 1] * z[n - 1 - j]
            g[n] = acc / z[0]
        return [complex(v) for v in z], [complex(v) for v in g[1:]]
