"""Reference skew-ring kernels on :class:`Elem` operands.

``sumrank.skew`` multiplies, reduces, evaluates and builds block matrices
on raw coordinates.  These are the element-operator versions it replaced,
one field operation per ``+``, ``-`` and ``*`` and every twist through
``FieldTower.frobenius``; the tests keep them as ground truth.
"""

from sumrank import linalg
from sumrank.fields import MID, Elem
from sumrank.skew import SkewPoly, ThetaPoly


def mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Twisted convolution: (fg)_n = sum_{i+j=n} f_i theta^i(g_j)."""
    tower = f.tower
    out = [tower.top_zero()] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * tower.frobenius(b, i)
    return SkewPoly(tower, out)


def reduce(ctx, f: SkewPoly) -> SkewPoly:
    """Left division by the monic modulus, twisting each of its
    coefficients as the quotient term demands."""
    tower = ctx.tower
    d_mod = ctx.modulus_degree
    rem = list(f.coeffs)
    while len(rem) - 1 >= d_mod:
        lead = rem[-1]
        k = len(rem) - 1 - d_mod
        for j, hj in enumerate(ctx.h_lambda.coeffs):
            rem[k + j] = rem[k + j] - lead * tower.frobenius(hj, k)
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    return SkewPoly(tower, rem)


def evaluate_at_point(f: SkewPoly, alpha) -> ThetaPoly:
    """X^j acts as alpha theta(alpha) .. theta^(j-1)(alpha) * theta^j."""
    tower = f.tower
    r = tower.r
    out = [tower.top_zero()] * r
    norm_prod = tower.top_one()
    for j, fj in enumerate(f.coeffs):
        out[j % r] = out[j % r] + fj * norm_prod
        norm_prod = norm_prod * tower.frobenius(alpha, j)
    return ThetaPoly(tower, out)


def eval_map(ctx, f: SkewPoly) -> list:
    f = reduce(ctx, f)
    return [evaluate_at_point(f, alpha) for alpha in ctx.alphas]


def apply(t: ThetaPoly, x):
    acc = t.tower.top_zero()
    for j, c in enumerate(t.coeffs):
        acc = acc + c * t.tower.frobenius(x, j)
    return acc


def matrix(t: ThetaPoly) -> linalg.Mat:
    """Column s is the image of u^s, applied through the Frobenius."""
    tower = t.tower
    r = tower.r
    cols = [apply(t, tower.top([int(i == s) for i in range(r)])).coords for s in range(r)]
    rows = [[tower.mid(col[i]) for col in cols] for i in range(r)]
    return linalg.Mat.from_rows(rows, tower=tower, level=MID, cols=r)


def compose(a: ThetaPoly, b: ThetaPoly) -> ThetaPoly:
    tower = a.tower
    r = tower.r
    out = [tower.top_zero()] * r
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[(i + j) % r] = out[(i + j) % r] + x * tower.frobenius(y, i)
    return ThetaPoly(tower, out)


def coords_mid(t: ThetaPoly) -> list:
    """K-coordinates of a theta-polynomial: r tuples of r residues, flattened."""
    return [Elem(t.tower, MID, part) for c in t.coeffs for part in c.coords]


def ambient_basis(ctx) -> list:
    """The monomial K-basis u^t X^i of the residue space, in slot order."""
    tower = ctx.tower
    r = tower.r
    out = []
    for i in range(ctx.modulus_degree):
        for t in range(r):
            coeff_coords = [[0] * tower.m for _ in range(r)]
            coeff_coords[t][0] = 1
            out.append(SkewPoly.monomial(tower, tower.top(coeff_coords), i))
    return out
