"""Canonical entropy derivatives along the Gaussian heat flow.

Exact-rational derivative-monomial calculus, integration-by-parts
reduction, sum-of-squares sign certificates over the partition basis, and
a Gaussian-mixture numerical oracle for cross-checking everything.
"""

import os

# Every array product here is far below OpenBLAS's threading threshold, so
# its worker threads (one per core, in numpy's and in scipy's copy of the
# library) never share a call; they only spin after start-up, and on a busy
# machine that spinning takes the core the computation needs.  It must be
# set before numpy is first imported; an explicit setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .terms import (
    Combination,
    DerivMonomial,
    combination,
    d_dt,
    d_dy,
    make_monomial,
    monomial,
    parse_monomial,
    weight,
)
from .reduction import (
    IBP_IDENTITIES,
    IdentityCheck,
    ReductionDepthError,
    ReductionTrace,
    entropy_derivative,
    is_canonical,
    reduce,
    rewrite_once,
    verify_ibp_identities,
)
from .certificates import (
    Certificate,
    SearchOutcome,
    SquareForm,
    builtin_certificate,
    canonical_basis,
    certificate_from_json,
    certificate_to_json,
    check_order2_family,
    check_order3_family,
    expand_square,
    order2_family,
    order3_certificate,
    order3_family,
    order3_family_upper_endpoint,
    order4_certificate,
    partitions,
    search_certificate,
    square_basis,
    verify_certificate,
    verify_witness,
)
from .mixtures import BIMODAL_MIXTURE, GaussianMixture, density_deriv, derivative_ratios
from .oracle import (
    FdAccuracyWarning,
    ScanResult,
    ScanRow,
    WtReport,
    entropy,
    fd_entropy_deriv,
    fisher,
    functional,
    scan_conjectures,
    scan_to_csv,
    time_grid,
    wt_checks,
    wt_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BIMODAL_MIXTURE",
    "Certificate",
    "Combination",
    "DerivMonomial",
    "FdAccuracyWarning",
    "GaussianMixture",
    "IBP_IDENTITIES",
    "IdentityCheck",
    "ReductionDepthError",
    "ReductionTrace",
    "ScanResult",
    "ScanRow",
    "SearchOutcome",
    "SquareForm",
    "WtReport",
    "builtin_certificate",
    "canonical_basis",
    "certificate_from_json",
    "certificate_to_json",
    "check_order2_family",
    "check_order3_family",
    "combination",
    "d_dt",
    "d_dy",
    "density_deriv",
    "derivative_ratios",
    "entropy",
    "entropy_derivative",
    "expand_square",
    "fd_entropy_deriv",
    "fisher",
    "functional",
    "is_canonical",
    "make_monomial",
    "monomial",
    "order2_family",
    "order3_certificate",
    "order3_family",
    "order3_family_upper_endpoint",
    "order4_certificate",
    "parse_monomial",
    "partitions",
    "reduce",
    "rewrite_once",
    "scan_conjectures",
    "scan_to_csv",
    "search_certificate",
    "square_basis",
    "time_grid",
    "verify_certificate",
    "verify_ibp_identities",
    "verify_witness",
    "weight",
    "wt_checks",
    "wt_to_csv",
]
