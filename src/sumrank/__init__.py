"""Twisted evaluation codes over finite-field towers.

Builds sum-rank-metric codes from twisted skew polynomials and additive
twisted codes over quadratic extensions, and certifies their
complementary-dual and distance properties both by closed-form criteria
and by independent brute-force oracles.

The exported names are resolved on first use: ``import sumrank`` loads no
submodule, and ``sumrank.acd_check`` imports ``sumrank.acd`` when it is
read.  A command-line call thus loads only the modules its subcommand
runs.  That matters because each call is a fresh interpreter, and where
``PYTHONDONTWRITEBYTECODE`` is set it compiles every module it imports.
For the same reason the records are built by ``sumrank._record`` from
plain closures; the standard library's record generator would import
``inspect`` and ``ast`` on every call.
"""

import importlib

# exported name -> the submodule that defines it; also the public API
_EXPORTS = {
    **dict.fromkeys(("MID", "TOP", "Elem", "FieldTower"), "fields"),
    **dict.fromkeys(("Mat", "det", "meet_dim", "schur_residual"), "linalg"),
    **dict.fromkeys(("QuotientCtx", "SkewPoly", "ThetaPoly", "build_h_lambda"), "skew"),
    **dict.fromkeys(
        ("GramReport", "TlrsCode", "TlrsParams", "build_code", "gram", "hull_oracle",
         "lcd_criterion", "min_sum_rank_distance"),
        "tlrs",
    ),
    **dict.fromkeys(
        ("AcdParams", "AcdReport", "acd_check", "acd_oracle", "code_basis",
         "lambda_search", "mds_criterion", "min_distance_oracle", "power_sums",
         "t_matrix"),
        "acd",
    ),
}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the package globals: a later swap of the submodule's
    # attribute (a monkeypatch, a tracer's wrapper) is seen on the next read.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
