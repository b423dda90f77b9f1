"""Constant-term-twisted codes in the quotient algebra and their LCD test.

A code C(k, h, eta) is the K-span of residues f_0 + f_1 X + .. +
f_{k-1} X^{k-1} + eta * theta^h(f_0) * X^k.  With respect to the standard
bilinear form <F, G> = Tr(sum f_i g_i) on degree-reduced representatives,
its Gram matrix is block diagonal: k-1 copies of the trace-form matrix M
of the power basis, plus one block B twisted by
alpha = theta^(-h)(1 + eta^2).  Hence det G = det(M)^(k-1) * det(B), and
the code meets its dual trivially exactly when 1 + eta^2 != 0 -- a
criterion independent of k, h and the evaluation subgroup.  Everything
here is certified twice: once through that closed form and once through a
brute-force hull oracle that never touches the Gram matrix.  The oracle
counts dim(C intersect C-perp) as rank C + dim C-perp - rank [C; C-perp],
with C-perp the kernel of the code's form values on the ambient basis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import BadParamsError
from .fields import MID, TOP, Elem, FieldTower
from .linalg import Mat
from .skew import QuotientCtx, SkewPoly

DEFAULT_MAX_ENUMERATION = 10**6


@dataclass(frozen=True)
class TlrsParams:
    """Parameters (k, h, eta) over a quotient context.

    1 <= k <= ell*r - 1 (the boundary k = ell*r needs genuine reduction
    and is out of scope), 0 <= h <= r - 1, eta nonzero in L.
    """

    ctx: QuotientCtx
    k: int
    h: int
    eta: Elem

    def __post_init__(self):
        tower = self.ctx.tower
        if tower.q % 2 == 0:
            raise BadParamsError("twisted-code machinery assumes odd q")
        if not 1 <= self.k <= self.ctx.modulus_degree - 1:
            raise BadParamsError(
                f"k = {self.k} outside 1..{self.ctx.modulus_degree - 1}"
            )
        if not 0 <= self.h <= tower.r - 1:
            raise BadParamsError(f"h = {self.h} outside 0..{tower.r - 1}")
        if self.eta.level != TOP or not self.eta:
            raise BadParamsError("eta must be a nonzero element of L")


@dataclass(frozen=True)
class TlrsCode:
    """A built code: the kr basis residues and the L/K basis they ride on.

    Basis order: beta_t X^j for j = 1..k-1 (t fastest), then the twisted
    rows beta_t + eta theta^h(beta_t) X^k.  This makes the Gram matrix
    literally block diagonal.
    """

    params: TlrsParams
    basis_polys: tuple
    k_basis_of_l: tuple


def _power_basis(tower: FieldTower):
    r = tower.r
    return tuple(tower.top([0] * t + [1] + [0] * (r - 1 - t)) for t in range(r))


def build_code(params: TlrsParams) -> TlrsCode:
    tower = params.ctx.tower
    betas = _power_basis(tower)
    polys = []
    for j in range(1, params.k):
        for beta in betas:
            polys.append(SkewPoly.monomial(tower, beta, j))
    for beta in betas:
        twist = params.eta * tower.frobenius(beta, params.h)
        polys.append(
            SkewPoly(tower, [beta])
            + SkewPoly.monomial(tower, twist, params.k)
        )
    return TlrsCode(params, tuple(polys), betas)


def lcd_criterion(params: TlrsParams) -> bool:
    """Closed form: the code is complementary-dual iff 1 + eta^2 != 0 in L."""
    tower = params.ctx.tower
    return bool(tower.top_one() + params.eta * params.eta)


def lambda_form(f: SkewPoly, g: SkewPoly, ctx: QuotientCtx) -> Elem:
    """<F, G> = Tr(sum_i f_i g_i) on the degree-reduced representatives."""
    f = ctx.reduce(f)
    g = ctx.reduce(g)
    tower = ctx.tower
    acc = tower.top_zero()
    for i in range(min(len(f.coeffs), len(g.coeffs))):
        fi, gi = f.coeffs[i], g.coeffs[i]
        if fi and gi:
            acc = acc + fi * gi
    return tower.trace(acc)


@dataclass(frozen=True)
class GramReport:
    """Gram matrix of the code basis plus both certification verdicts."""

    gram: Mat
    det_value: Elem
    m_block: Mat
    b_block: Mat
    alpha_value: Elem
    lcd_by_criterion: bool
    lcd_by_oracle: Optional[bool] = None
    hull_dim: Optional[int] = None

    def to_dict(self, params: Optional[TlrsParams] = None) -> dict:
        out = {"schema": 1, "kind": "tlrs"}
        if params is not None:
            ctx = params.ctx
            out.update(
                {
                    "field": ctx.tower.to_dict(),
                    "ell": ctx.ell,
                    "lambda": [str(x) for x in ctx.lambdas],
                    "k": params.k,
                    "h": params.h,
                    "eta": str(params.eta),
                    "code_dim": params.k * ctx.tower.r,
                    "ambient_dim": ctx.ambient_dim,
                }
            )
        out.update(
            {
                "gram": self.gram.to_lists(),
                "det": str(self.det_value),
                "alpha": str(self.alpha_value),
                "m_block": self.m_block.to_lists(),
                "b_block": self.b_block.to_lists(),
                "lcd_by_criterion": self.lcd_by_criterion,
                "lcd_by_oracle": self.lcd_by_oracle,
                "hull_dim": self.hull_dim,
            }
        )
        if params is not None and self.hull_dim is not None:
            out["dual_dim"] = params.ctx.ambient_dim - params.k * params.ctx.tower.r
        return out


def gram_blocks(code: TlrsCode):
    """The closed-form blocks: M[t,u] = Tr(b_t b_u) and
    B[t,u] = Tr(alpha b_t b_u) with alpha = theta^(-h)(1 + eta^2)."""
    params = code.params
    tower = params.ctx.tower
    betas = code.k_basis_of_l
    r = tower.r
    alpha = tower.frobenius(
        tower.top_one() + params.eta * params.eta, (-params.h) % r
    )
    m_rows = [
        [tower.trace(bt * bu) for bu in betas] for bt in betas
    ]
    b_rows = [
        [tower.trace(alpha * bt * bu) for bu in betas] for bt in betas
    ]
    m_block = Mat.from_rows(m_rows, tower=tower, level=MID, cols=r)
    b_block = Mat.from_rows(b_rows, tower=tower, level=MID, cols=r)
    return m_block, b_block, alpha


def gram(code: TlrsCode, with_oracle: bool = False) -> GramReport:
    """Entrywise Gram matrix of the basis, plus the closed-form blocks.

    The matrix entries come from pairwise form evaluations; the blocks are
    computed separately, so tests can cross-check the two routes.  With
    ``with_oracle`` the brute-force hull dimension is filled in as well.
    """
    params = code.params
    ctx = params.ctx
    tower = ctx.tower
    n = len(code.basis_polys)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = lambda_form(code.basis_polys[i], code.basis_polys[j], ctx)
            rows[i][j] = v
            rows[j][i] = v
    gram_mat = Mat.from_rows(rows, tower=tower, level=MID, cols=n)
    m_block, b_block, alpha = gram_blocks(code)
    report = GramReport(
        gram=gram_mat,
        det_value=linalg.det(gram_mat),
        m_block=m_block,
        b_block=b_block,
        alpha_value=alpha,
        lcd_by_criterion=lcd_criterion(params),
    )
    if with_oracle:
        hull = hull_oracle(code)
        report = dataclasses.replace(
            report, lcd_by_oracle=(hull == 0), hull_dim=hull
        )
    return report


def _form_matrix(ctx: QuotientCtx) -> Mat:
    """Matrix of the bilinear form on ambient K-coordinates: block diagonal
    with one copy of the trace-form Gram of the power basis per X-slot."""
    tower = ctx.tower
    r = tower.r
    betas = _power_basis(tower)
    t0 = [[tower.trace(bs * bt) for bt in betas] for bs in betas]
    n = ctx.ambient_dim
    zero = tower.mid_zero()
    rows = [[zero] * n for _ in range(n)]
    for blk in range(ctx.modulus_degree):
        for s in range(r):
            for t in range(r):
                rows[blk * r + s][blk * r + t] = t0[s][t]
    return Mat.from_rows(rows, tower=tower, level=MID, cols=n)


def hull_oracle(code: TlrsCode) -> int:
    """dim_K(C intersect C-perp), counted by ``linalg.meet_dim`` from the
    code rows and their form values against the ambient basis, whose kernel
    is the dual; zero exactly for complementary-dual codes and equal to
    dim C for self-orthogonal ones.  The rows are the basis polynomials in
    ambient residue coordinates."""
    ctx = code.params.ctx
    rows = [ctx.coords_of(f) for f in code.basis_polys]
    a = Mat.from_rows(rows, tower=ctx.tower, level=MID, cols=ctx.ambient_dim)
    return linalg.meet_dim(a, a @ _form_matrix(ctx))


def min_sum_rank_distance(
    code: TlrsCode, max_enumeration: int = DEFAULT_MAX_ENUMERATION
) -> int:
    """Minimum sum-rank weight over the q^(kr) - 1 nonzero words.

    Evaluation is F_q-linear, so the ell block matrices of each F_p-basis
    word omega^s * b (b in the code basis, omega^s in the F_p-basis of F_q)
    are built once; ``linalg.min_weight`` walks their F_p-combinations, and
    a word's weight is the sum of its blocks' ranks.  The walk stops at the
    first word of weight ``sum_rank_distance_floor``, so the result is
    either that floor or the Singleton bound one above it.
    """
    ctx = code.params.ctx
    tower = ctx.tower
    images = [[t.matrix() for t in ctx.eval_map(SkewPoly(tower, [w]) * b)]
              for b in code.basis_polys for w in tower.mid_basis()]
    return linalg.min_weight(
        images,
        tower.p,
        lambda blocks: sum(linalg.rank(b) for b in blocks),
        max_enumeration,
        floor=sum_rank_distance_floor(code.params),
    )


def sum_rank_distance_floor(params: TlrsParams) -> int:
    """N - k with N = ell*r: C(k, h, eta) lies in the linearized RS code of
    degree <= k, which is MSRD, so no nonzero word weighs less."""
    return params.ctx.modulus_degree - params.k


def sum_rank_singleton_bound(params: TlrsParams) -> int:
    return params.ctx.modulus_degree - params.k + 1
