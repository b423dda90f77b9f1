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
with C-perp the kernel of the code's form values on the X-slots that the
basis residues occupy.  The basis polynomials have degree at most k <
ell*r, so they are their own residues and no route reduces them.  Per
code, each route evaluates each basis residue at most once and computes
on coordinates through the tower's trace, trace form and Frobenius table:
the Gram matrix, its blocks and the hull oracle's rows are built from
coordinates, and the distance walk starts from each residue's block
matrices, with no theta-polynomial or per-entry element round trip.
"""

from __future__ import annotations

from functools import reduce

from . import _routes, linalg
from ._record import record
from .errors import BadParamsError
from .fields import MID, TOP, Elem, FieldTower
from .linalg import Mat
from .skew import QuotientCtx, SkewPoly

DEFAULT_MAX_ENUMERATION = 10**6


@record
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
        if self.eta.tower is not tower:
            raise BadParamsError("eta must belong to the tower of the quotient context")
        if self.eta.level != TOP or not self.eta:
            raise BadParamsError("eta must be a nonzero element of L")


@record
class TlrsCode:
    """A built code: its kr basis residues over the power basis
    beta_t = u^t of L over K.

    Basis order: beta_t X^j for j = 1..k-1 (t fastest), then the twisted
    rows beta_t + eta theta^h(beta_t) X^k.  This makes the Gram matrix
    literally block diagonal.
    """

    params: TlrsParams
    basis_polys: tuple


def build_code(params: TlrsParams) -> TlrsCode:
    """The basis over the power basis beta_t = u^t, whose images
    theta^h(beta_t) the tower's Frobenius table holds."""
    tower = params.ctx.tower
    mul = tower.coord_ops(TOP).mul
    betas = tuple(Elem(tower, TOP, b) for b in tower._frob[0])
    polys = [SkewPoly.monomial(tower, beta, j) for j in range(1, params.k) for beta in betas]
    gap = [tower.top_zero()] * (params.k - 1)
    for beta, image in zip(betas, tower._frob[params.h]):
        twist = Elem(tower, TOP, mul(params.eta.coords, image))
        polys.append(SkewPoly(tower, [beta, *gap, twist]))
    return TlrsCode(params, tuple(polys))


def lcd_criterion(params: TlrsParams) -> bool:
    """Closed form: the code is complementary-dual iff 1 + eta^2 != 0 in L."""
    tower = params.ctx.tower
    return bool(tower.top_one() + params.eta * params.eta)


def _hankel(traces, r: int) -> list:
    """The matrix of the form (x, y) -> Tr(a x y) on the power basis u^t,
    from traces[e] = Tr(a u^e): entry (s, t) is item s + t."""
    return [traces[s:s + r] for s in range(r)]


def _pairing(tower: FieldTower, f: SkewPoly, g: SkewPoly) -> tuple:
    """Coordinates of Tr(sum_i f_i g_i) for reduced f and g."""
    ops = tower.coord_ops(TOP)
    products = (ops.mul(a.coords, b.coords) for a, b in zip(f.coeffs, g.coeffs) if a and b)
    return tower._trace(reduce(ops.add, products, ops.zero))


# The route table (read by ``_routes.routes_agree``): per property of a
# report, the relation its routes must satisfy and the report attribute
# each route fills.  Hull dimension and distance have one route each.
ROUTES = {
    "complementary duality": ("equal", {
        "closed form 1 + eta^2 != 0": "lcd_by_criterion",
        "det G != 0": "lcd_by_det",
        "hull oracle": "lcd_by_oracle",
    }),
    "hull dimension": ("equal", {"hull oracle": "hull_dim"}),
    "minimum distance": ("bounded", {"walk": "min_sum_rank_distance"}),
}


@record
class GramReport:
    """Gram matrix of the code basis plus the answer of each route of
    ``ROUTES``, None for a route that did not run."""

    params: TlrsParams
    gram: Mat
    det_value: Elem
    m_block: Mat
    b_block: Mat
    alpha_value: Elem
    lcd_by_criterion: bool
    lcd_by_oracle: bool | None = None
    hull_dim: int | None = None
    min_sum_rank_distance: int | None = None

    @property
    def lcd_by_det(self) -> bool:
        return bool(self.det_value)

    @property
    def distance_floor(self) -> int:
        return sum_rank_distance_floor(self.params)

    @property
    def singleton_bound(self) -> int:
        return sum_rank_singleton_bound(self.params)

    @property
    def routes_agree(self) -> bool:
        return _routes.routes_agree(self, ROUTES)

    def to_dict(self) -> dict:
        params = self.params
        ctx = params.ctx
        out = {
            "schema": 1,
            "kind": "tlrs",
            "field": ctx.tower.to_dict(),
            "ell": ctx.ell,
            "lambda": [str(x) for x in ctx.lambdas],
            "k": params.k,
            "h": params.h,
            "eta": str(params.eta),
            "code_dim": params.k * ctx.tower.r,
            "ambient_dim": ctx.ambient_dim,
            "gram": self.gram.to_lists(),
            "det": str(self.det_value),
            "alpha": str(self.alpha_value),
            "m_block": self.m_block.to_lists(),
            "b_block": self.b_block.to_lists(),
            "lcd_by_criterion": self.lcd_by_criterion,
            "lcd_by_oracle": self.lcd_by_oracle,
            "hull_dim": self.hull_dim,
        }
        if self.hull_dim is not None:
            out["dual_dim"] = ctx.ambient_dim - params.k * ctx.tower.r
        if self.min_sum_rank_distance is not None:
            out["min_sum_rank_distance"] = self.min_sum_rank_distance
            out["sum_rank_singleton_bound"] = self.singleton_bound
        return out

    def sweep_row(self) -> dict:
        """The flat record of a sweep: the scalars of ``to_dict``, its field
        as p, m and r."""
        params, tower = self.params, self.params.ctx.tower
        return {"schema": 1, "kind": "tlrs-sweep-row", "p": tower.p, "m": tower.m, "r": tower.r,
                "ell": params.ctx.ell, "k": params.k, "h": params.h, "eta": str(params.eta),
                "det": str(self.det_value), "alpha": str(self.alpha_value),
                "lcd_by_criterion": self.lcd_by_criterion, "lcd_by_oracle": self.lcd_by_oracle,
                "hull_dim": self.hull_dim}


def gram_blocks(code: TlrsCode):
    """The closed-form blocks: M[t,u] = Tr(b_t b_u), the tower's trace form,
    and B[t,u] = Tr(alpha b_t b_u) with alpha = theta^(-h)(1 + eta^2), both
    Hankel in the power basis b_t = u^t, with Tr(alpha u^e) = sum_i alpha_i Tr(u^(i+e))."""
    params = code.params
    tower = params.ctx.tower
    ops, mid, r = tower.coord_ops(TOP), tower.coord_ops(MID), tower.r
    eta = params.eta.coords
    alpha = tower._theta(ops.add(ops.one, ops.mul(eta, eta)), -params.h)
    form = tower._trace_form
    alpha_form = [reduce(mid.add, map(mid.mul, alpha, form[e:])) for e in range(2 * r - 1)]
    m_block, b_block = (Mat._of_coords(tower, MID, r, _hankel(t, r)) for t in (form, alpha_form))
    return m_block, b_block, Elem(tower, TOP, alpha)


def gram(
    code: TlrsCode,
    with_oracle: bool = False,
    with_distance: bool = False,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
) -> GramReport:
    """Entrywise Gram matrix of the basis, plus the closed-form blocks.

    The matrix entries come from pairwise form evaluations; the blocks are
    computed separately, so tests can cross-check the two routes.  With
    ``with_oracle`` the brute-force hull dimension is filled in as well,
    and with ``with_distance`` the sum-rank distance, walked under the
    guard ``max_enumeration``.
    """
    params = code.params
    tower = params.ctx.tower
    polys = code.basis_polys
    n = len(polys)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = _pairing(tower, polys[i], polys[j])
    gram_mat = Mat._of_coords(tower, MID, n, rows)
    m_block, b_block, alpha = gram_blocks(code)
    hull = hull_oracle(code) if with_oracle else None
    return GramReport(
        params=params,
        gram=gram_mat,
        det_value=linalg.det(gram_mat),
        m_block=m_block,
        b_block=b_block,
        alpha_value=alpha,
        lcd_by_criterion=lcd_criterion(params),
        lcd_by_oracle=None if hull is None else hull == 0,
        hull_dim=hull,
        min_sum_rank_distance=(
            min_sum_rank_distance(code, max_enumeration) if with_distance else None
        ),
    )


def hull_oracle(code: TlrsCode) -> int:
    """dim_K(C intersect C-perp), counted by ``linalg.meet_dim`` from the
    code rows and their form values, whose kernel is the dual; zero exactly
    for complementary-dual codes and equal to dim C for self-orthogonal
    ones.  The form is block diagonal, one copy of the trace-form Gram t0
    of the power basis per X-slot, so a row's form values are its slots
    times t0, slot by slot.  The slots above D, the highest degree of the
    basis polynomials (each its own residue), pair only among themselves,
    so C lies in the span W of slots 0..D and meets C-perp only in C-perp
    intersect W: the kernel of the form values on W's (D+1)r coordinates,
    where both are counted."""
    tower = code.params.ctx.tower
    ops, mid, r = tower.coord_ops(TOP), tower.coord_ops(MID), tower.r
    t0 = _hankel(tower._trace_form, r)

    def slot_form(c):
        """The form values of one slot c: c times t0 (symmetric, so its rows
        serve as columns); a zero slot pairs to zeros."""
        return c if c == ops.zero else [reduce(mid.add, map(mid.mul, c, col)) for col in t0]

    polys = [[c.coords for c in f.coeffs] for f in code.basis_polys]
    slots = max(map(len, polys))
    polys = [coeffs + [ops.zero] * (slots - len(coeffs)) for coeffs in polys]
    rows = [[x for c in coeffs for x in c] for coeffs in polys]
    pairings = [[x for c in coeffs for x in slot_form(c)] for coeffs in polys]
    return linalg.meet_dim(*(Mat._of_coords(tower, MID, slots * r, m) for m in (rows, pairings)))


class _BuiltOnFirstUse(dict):
    """The sequence build(0), .., build(n - 1), each item built when first
    read and then kept, so a later read costs one dict lookup."""

    def __init__(self, n: int, build):
        self._n, self._build = n, build

    def __len__(self):
        return self._n

    def __missing__(self, i):
        item = self[i] = self._build(i)
        return item


def min_sum_rank_distance(
    code: TlrsCode, max_enumeration: int = DEFAULT_MAX_ENUMERATION
) -> int:
    """Minimum sum-rank weight over the q^(kr) - 1 nonzero words.

    Evaluation and the passage to block matrices are F_q-linear, so each
    basis residue b is evaluated once (``QuotientCtx.block_matrices``), and
    the ell block matrices of the F_p-basis word omega^s * b (omega^s in
    the F_p-basis of F_q) are those of b with every entry times omega^s.
    ``linalg.min_weight`` walks their F_p-combinations, and a word's weight
    is the sum of its blocks' ranks.  The walk stops at the first word of
    weight ``sum_rank_distance_floor``, so the result is either that floor
    or the Singleton bound one above it.  The walk first reads word d at
    step p^d, so words are built on first read: a walk that stops early
    never evaluates the later residues.
    """
    ctx = code.params.ctx
    tower = ctx.tower
    mul = tower.coord_ops(MID).mul
    omegas = [w.coords for w in tower.mid_basis()]

    def image(i):
        b, s = divmod(i, len(omegas))
        if not s:  # omega^0 = 1: the blocks of b itself
            return ctx.block_matrices(code.basis_polys[b])
        return [Mat._of_coords(tower, MID, m.cols,
                               [[mul(omegas[s], e.coords) for e in row] for row in m.entries])
                for m in images[i - s]]

    images = _BuiltOnFirstUse(len(code.basis_polys) * len(omegas), image)
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
