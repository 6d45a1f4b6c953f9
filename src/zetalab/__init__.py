"""zetalab: zero statistics and log-derivative moments of the zeta function.

A desk-scale numerical laboratory: evaluate zeta and its derivatives with
controlled error, locate the nontrivial zeros, sample the pair-correlation
function F(alpha, T), compute the second moments of the derivatives of
zeta'/zeta along several independent routes, and compare everything against
the closed-form coefficients predicted by pair-correlation heuristics.
"""

from .errors import (CoverageError, DivisionError, DomainError, IoError,
                     MissedZeroError, NearZeroError, OrderError, ParseError,
                     PrecisionError, RangeError, UnsupportedError, ZetalabError)
from .kernels import KernelSpec, kernel_eval, kernel_fourier
from .moments import (MomentEstimate, d_k, d_k_batch, i_k_from_f, i_k_from_zeros,
                      i_k_quadrature_batch)
from .pair_correlation import (FGrid, f_alpha, f_grid, f_window_integral,
                               gue_integral, montgomery_asymptotic, pair_count)
from .predictions import (TauberianReport, coefficient_c, coefficient_d,
                          gr_identity_residual, tauberian_compare,
                          window_mass_sup)
from .zero_catalog import (CountReport, ZeroTable, export_zeros, find_zeros,
                           import_zeros, load_or_find, rvm_expected_count,
                           verify_counts)
from .zeta_engine import (STRICT, ComplexEval, EmProfile, EvalPoint,
                          ZetaEngine, riemann_siegel_theta)

__version__ = "0.1.0"

__all__ = [
    "ComplexEval", "CountReport", "CoverageError", "DivisionError",
    "DomainError", "EmProfile", "EvalPoint", "FGrid",
    "IoError", "KernelSpec", "MissedZeroError", "MomentEstimate",
    "NearZeroError", "OrderError", "ParseError", "PrecisionError",
    "RangeError", "STRICT", "TauberianReport", "UnsupportedError",
    "ZeroTable", "ZetaEngine", "ZetalabError", "coefficient_c",
    "coefficient_d", "d_k", "d_k_batch", "export_zeros", "f_alpha", "f_grid",
    "f_window_integral", "find_zeros", "gr_identity_residual",
    "gue_integral", "i_k_from_f", "i_k_from_zeros", "i_k_quadrature_batch",
    "import_zeros", "kernel_eval", "kernel_fourier",
    "load_or_find", "montgomery_asymptotic", "pair_count",
    "riemann_siegel_theta", "rvm_expected_count", "tauberian_compare",
    "verify_counts", "window_mass_sup",
]
