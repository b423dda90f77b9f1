"""The twisted polynomial ring L[X; theta] and its evaluation machinery.

Multiplication follows the rule X a = theta(a) X.  The central modulus
H(X) = prod_i (X^r - lambda_i), built from an order-ell subgroup of F_q*,
cuts out a quotient algebra of K-dimension ell * r^2.  Evaluating a
residue at the i-th block sends X to alpha_i * theta, where alpha_i is a
fixed norm preimage of lambda_i; the image is a theta-polynomial, i.e. a
K-linear map on L, and a full residue evaluates to an ell-tuple of such
maps.  The sum-rank weight of that tuple is the sum of the ranks of its
blocks.

Evaluation is multiplicative (composition blockwise) and bijective on
residues of degree below ell*r: X^r acts on block i as multiplication by
lambda_i = N(alpha_i), which kills the factor X^r - lambda_i, so the map
is well defined on the quotient, and on block powers X^(j*r) it acts as
lambda_i^j, the subgroup-power rule.

The kernels compute on coordinates (``FieldTower.coord_ops`` and the
Frobenius table), building elements only for returned values, and check
once per call that their operands share a tower.  One kernel evaluates,
one turns theta-coefficients into an F_q-matrix, and the block matrices
of a residue chain the two with no theta-polynomial in between.
"""

from __future__ import annotations

from ._record import record
from .errors import BadParamsError, BlockOutOfRangeError, LevelMismatchError
from .fields import MID, TOP, Elem, FieldTower
from . import linalg


def _check_tower(tower: FieldTower, other) -> None:
    if other.tower is not tower:
        raise LevelMismatchError("operands belong to different towers")


def _of_coords(cls, tower: FieldTower, coords):
    """The SkewPoly or ThetaPoly whose coefficients have the given
    coordinates, which the caller has trimmed or sized."""
    out = cls.__new__(cls)
    out.tower, out.coeffs = tower, tuple(Elem(tower, TOP, c) for c in coords)
    return out


def _convolve(tower: FieldTower, f, g) -> list:
    """Coordinates of the twisted convolution sum_{i+j=n} f_i theta^i(g_j)
    of two coefficient sequences, twisting g once per residue of i mod r."""
    ops = tower.coord_ops(TOP)
    out = [ops.zero] * (len(f) + len(g) - 1)
    twisted = {}
    for i, a in enumerate(f):
        if a and i % tower.r not in twisted:
            twisted[i % tower.r] = [tower._theta(b.coords, i) for b in g]
        for j, b in enumerate(twisted[i % tower.r] if a else ()):
            if b != ops.zero:
                out[i + j] = ops.add(out[i + j], ops.mul(a.coords, b))
    return out


class SkewPoly:
    """Polynomial over L in the twisted indeterminate X (X a = theta(a) X).

    ``coeffs`` holds top-level elements, index i for the X^i coefficient,
    with no trailing zeros; the zero polynomial has an empty tuple.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs):
        coeffs = [tower.top(c) for c in coeffs]
        d = len(coeffs)
        while d > 0 and not coeffs[d - 1]:
            d -= 1
        self.tower = tower
        self.coeffs = tuple(coeffs[:d])

    @classmethod
    def zero(cls, tower: FieldTower) -> "SkewPoly":
        return cls(tower, [])

    @classmethod
    def one(cls, tower: FieldTower) -> "SkewPoly":
        return cls(tower, [tower.top_one()])

    @classmethod
    def monomial(cls, tower: FieldTower, coeff: Elem, degree: int) -> "SkewPoly":
        return cls(tower, [tower.top_zero()] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Elem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.tower.top_zero()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and other.tower is self.tower
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.tower, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.tower, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.tower, [-c for c in self.coeffs])

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        """Twisted convolution: (fg)_n = sum_{i+j=n} f_i theta^i(g_j); the
        leading coefficients multiply to a nonzero one, so nothing trims."""
        _check_tower(self.tower, other)
        if not self or not other:
            return SkewPoly.zero(self.tower)
        return _of_coords(SkewPoly, self.tower, _convolve(self.tower, self.coeffs, other.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            body = str(c)
            if i == 0:
                parts.append(body)
            elif i == 1:
                parts.append(f"({body})*X")
            else:
                parts.append(f"({body})*X^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SkewPoly({self})"


def build_h_lambda(tower: FieldTower, lambdas) -> SkewPoly:
    """prod_i (X^r - lambda_i): central, monic of degree ell*r, with all
    coefficients in F_q.  The factor order does not matter."""
    seen = set()
    for lam in lambdas:
        if lam.level != MID or not lam:
            raise BadParamsError("lambda values must be nonzero elements of F_q")
        if lam.coords in seen:
            raise BadParamsError("lambda values must be distinct")
        seen.add(lam.coords)
    ops = tower.coord_ops(TOP)
    acc = SkewPoly.one(tower)
    for lam in lambdas:
        factor = [ops.neg(tower.top(lam).coords)] + [ops.zero] * (tower.r - 1) + [ops.one]
        acc = acc * _of_coords(SkewPoly, tower, factor)
    if not all(tower.in_mid_subfield(c) for c in acc.coeffs):
        raise BadParamsError("modulus coefficients left F_q; lambdas invalid")
    return acc


class ThetaPoly:
    """Element of L[theta]: the K-linear map x -> sum_j c_j theta^j(x).

    Exactly r coefficients, one per power of the Frobenius.  The product
    is composition: (a theta^i)(b theta^j) = a theta^i(b) theta^(i+j),
    exponents reduced mod r since theta^r is the identity on L.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != tower.r:
            raise BadParamsError(f"theta-polynomial needs exactly r = {tower.r} coefficients")
        self.tower = tower
        self.coeffs = tuple(tower.top(c) for c in coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ThetaPoly)
            and other.tower is self.tower
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def compose(self, other: "ThetaPoly") -> "ThetaPoly":
        """self after other: their twisted convolution, folded back into
        L[theta] by theta^r = 1."""
        tower = self.tower
        _check_tower(tower, other)
        ops = tower.coord_ops(TOP)
        out = [ops.zero] * tower.r
        for n, c in enumerate(_convolve(tower, self.coeffs, other.coeffs)):
            out[n % tower.r] = ops.add(out[n % tower.r], c)
        return _of_coords(ThetaPoly, tower, out)

    def matrix(self) -> linalg.Mat:
        """Matrix over F_q of the map in the power basis {1, u, .., u^(r-1)}."""
        rows = _block(self.tower, [c.coords for c in self.coeffs])
        return linalg.Mat._of_coords(self.tower, MID, self.tower.r, rows)

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"ThetaPoly([{body}])"


def _evaluate(tower: FieldTower, coeffs, alpha) -> list:
    """Theta-coefficients of the value at the point alpha of the polynomial
    with coefficients ``coeffs``, all as coordinates: X^j acts as the
    partial norm product N_j = alpha theta(alpha) .. theta^(j-1)(alpha)
    times theta^j, folded mod r (N_0 and N_1 take no product)."""
    ops, r = tower.coord_ops(TOP), tower.r
    out = [ops.zero] * r
    norm = alpha
    for j, fj in enumerate(coeffs):
        if j > 1:
            norm = ops.mul(norm, tower._theta(alpha, j - 1))
        if fj != ops.zero:
            out[j % r] = ops.add(out[j % r], ops.mul(fj, norm) if j else fj)
    return out


def _block(tower: FieldTower, coeffs) -> list:
    """Coordinate rows of the matrix over F_q, in the power basis u^t, of the
    map with theta-coefficients ``coeffs``: column t is sum_j c_j
    theta^j(u^t), read from the tower's Frobenius table."""
    ops = tower.coord_ops(TOP)
    cols = [ops.zero] * tower.r
    for c, images in zip(coeffs, tower._frob):
        if c != ops.zero:
            for t, image in enumerate(images):
                cols[t] = ops.add(cols[t], c if image == ops.one else ops.mul(c, image))
    return list(zip(*cols))


def evaluate_at_point(f: SkewPoly, alpha: Elem) -> ThetaPoly:
    """Operator value of f at alpha (see ``_evaluate``)."""
    tower = f.tower
    _check_tower(tower, alpha)
    if alpha.level != TOP:
        raise LevelMismatchError("evaluation points are top-level elements")
    coeffs = _evaluate(tower, [c.coords for c in f.coeffs], alpha.coords)
    return _of_coords(ThetaPoly, tower, coeffs)


@record
class QuotientCtx:
    """The quotient of L[X; theta] by the central subgroup modulus.

    Carries the subgroup (lambda_1, .., lambda_ell), the fixed norm
    preimages alpha_i used as evaluation points, and the modulus itself.
    Residue representatives have degree below ell*r; as a K-space the
    quotient has dimension ell * r^2.
    """

    tower: FieldTower
    lambdas: tuple
    alphas: tuple
    h_lambda: SkewPoly

    @classmethod
    def build(cls, tower: FieldTower, ell: int) -> "QuotientCtx":
        lambdas = tower.subgroup_lambda(ell)
        alphas = tuple(tower.norm_preimage(lam) for lam in lambdas)
        return cls(tower, lambdas, alphas, build_h_lambda(tower, lambdas))

    @property
    def ell(self) -> int:
        return len(self.lambdas)

    @property
    def modulus_degree(self) -> int:
        return self.ell * self.tower.r

    @property
    def ambient_dim(self) -> int:
        return self.ell * self.tower.r * self.tower.r

    # -- reduction -----------------------------------------------------------

    def reduce(self, f: SkewPoly) -> SkewPoly:
        """Residue representative of degree < ell*r (left division by the
        monic central modulus; centrality makes left and right agree).
        The modulus has its coefficients in F_q, which theta fixes, so each
        step subtracts lead * h_j with no Frobenius."""
        tower, d_mod = self.tower, self.modulus_degree
        _check_tower(tower, f)
        if len(f.coeffs) <= d_mod:
            return f
        ops = tower.coord_ops(TOP)
        rem = [c.coords for c in f.coeffs]
        h = [(j, hj.coords) for j, hj in enumerate(self.h_lambda.coeffs[:-1]) if hj]
        for top in range(len(rem) - 1, d_mod - 1, -1):
            if rem[top] != ops.zero:
                for j, hj in h:
                    k = top - d_mod + j
                    rem[k] = ops.sub(rem[k], ops.mul(rem[top], hj))
        return SkewPoly(tower, [Elem(tower, TOP, c) for c in rem[:d_mod]])

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, f: SkewPoly, i: int) -> ThetaPoly:
        """Value of f at block i (1-based), at the point alpha_i."""
        if not 1 <= i <= self.ell:
            raise BlockOutOfRangeError(f"block {i} outside 1..{self.ell}")
        return evaluate_at_point(f, self.alphas[i - 1])

    def eval_map(self, f: SkewPoly) -> tuple:
        """All ell block values of the residue of f, one ThetaPoly per block."""
        f = self.reduce(f)
        return tuple(self.evaluate(f, i) for i in range(1, self.ell + 1))

    def block_matrices(self, f: SkewPoly) -> list:
        """The F_q-matrices of the ell block values of the residue of f,
        those of ``eval_map``, with no theta-polynomial built between."""
        tower = self.tower
        coeffs = [c.coords for c in self.reduce(f).coeffs]
        blocks = (_block(tower, _evaluate(tower, coeffs, a.coords)) for a in self.alphas)
        return [linalg.Mat._of_coords(tower, MID, tower.r, rows) for rows in blocks]
