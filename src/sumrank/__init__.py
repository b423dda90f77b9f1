"""Twisted evaluation codes over finite-field towers.

Builds sum-rank-metric codes from twisted skew polynomials and additive
twisted codes over quadratic extensions, and certifies their
complementary-dual and distance properties both by closed-form criteria
and by independent brute-force oracles.
"""

from .fields import MID, TOP, Elem, FieldTower
from .linalg import Mat, Subspace, det, meet_dim, rank_kernel, schur_residual
from .skew import (
    QuotientCtx,
    SkewPoly,
    SumRankVector,
    ThetaPoly,
    build_h_lambda,
    sum_rank_weight,
    theta_rank,
)
from .tlrs import (
    GramReport,
    TlrsCode,
    TlrsParams,
    build_code,
    dual_basis,
    gram,
    hull_oracle,
    lambda_form,
    lcd_criterion,
    min_sum_rank_distance,
)
from .acd import (
    AcdParams,
    AcdReport,
    acd_check,
    acd_oracle,
    code_basis,
    delta_identity_check,
    encode,
    lambda_search,
    mds_criterion,
    min_distance_oracle,
    power_sums,
    root_product_check,
    t_matrix,
    trace_hermitian,
)

__version__ = "0.1.0"
