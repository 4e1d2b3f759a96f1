"""Canonical entropy derivatives along the Gaussian heat flow.

Exact-rational derivative-monomial calculus, integration-by-parts
reduction, sum-of-squares sign certificates over the partition basis, and
a Gaussian-mixture numerical oracle for cross-checking everything.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import heatcalc`` and the exact layers (``terms``,
``reduction``, most of ``certificates``) never import numpy; the numeric
layers load it when first touched.
"""

import os

# Every array product here is far below OpenBLAS's threading threshold, so
# its worker threads (one per core in numpy's copy of the library, and in
# scipy's where a test imports it) never share a call; they only spin after
# start-up, and on a busy machine that spinning takes the core the
# computation needs.  It must be set before numpy is first imported; an
# explicit setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_EXPORTS = {
    "terms": (
        "Combination",
        "DerivMonomial",
        "combination",
        "d_dt",
        "d_dy",
        "make_monomial",
        "monomial",
        "parse_monomial",
        "weight",
    ),
    "reduction": (
        "IBP_IDENTITIES",
        "IdentityCheck",
        "ReductionDepthError",
        "ReductionTrace",
        "entropy_derivative",
        "is_canonical",
        "reduce",
        "rewrite_once",
        "verify_ibp_identities",
    ),
    "certificates": (
        "Certificate",
        "SearchOutcome",
        "SquareForm",
        "builtin_certificate",
        "canonical_basis",
        "certificate_from_json",
        "certificate_to_json",
        "check_order2_family",
        "check_order3_family",
        "expand_square",
        "order2_family",
        "order3_certificate",
        "order3_family",
        "order3_family_upper_endpoint",
        "order4_certificate",
        "partitions",
        "search_certificate",
        "square_basis",
        "verify_certificate",
        "verify_witness",
    ),
    "mixtures": ("BIMODAL_MIXTURE", "GaussianMixture", "density_deriv", "derivative_ratios"),
    "oracle": (
        "FdAccuracyWarning",
        "ScanResult",
        "ScanRow",
        "WtReport",
        "entropy",
        "fd_entropy_deriv",
        "fisher",
        "functional",
        "scan_conjectures",
        "scan_to_csv",
        "time_grid",
        "wt_checks",
        "wt_to_csv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a public name's home submodule on first use and cache the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
