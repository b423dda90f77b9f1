"""Additive twisted evaluation codes over a quadratic extension F_{q^2}.

Codewords are evaluations, at distinct points of F_q*, of polynomials
whose constant and degree-k coefficients are confined to F_q (the top one
twisted by a scalar gamma) while the middle coefficients roam F_{q^2}.
The resulting code is F_q-linear of dimension 2k and is studied against
the trace-Hermitian inner product <u, v> = Tr(sum u_i v_i^q).

Certification is double-routed throughout:

* complementary-dual: the trace Gram matrix T of the generator must be
  invertible; when Tr(gamma) = 0 this splits into two blocks governed by
  the power-sum matrix G0 and the scalar Delta, and both the block path
  and the raw determinant are computed.  Independently, a brute-force
  oracle expands everything into F_q coordinates and measures the hull.
* distance: if N(gamma) = gamma^(q+1) is a nonsquare in F_q, no codeword
  with full twist can vanish at k points, which forces minimum distance
  ell - k + 1 (the Singleton bound for F_q-dimension 2k).  The oracle
  walks the q^(2k) - 1 nonzero codewords, stopping at the first of the
  proven least weight ell - k, and measures it.

Everything assumes q = 1 mod 4 and q >= 5, odd characteristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import linalg
from .errors import (
    BadParamsError,
    BadRootsError,
    LengthMismatchError,
    SearchFailedError,
    SingularLeadingBlockError,
    SingularMError,
    TooLargeError,
)
from .fields import MID, TOP, Elem, FieldTower
from .linalg import Mat

DEFAULT_MAX_ENUMERATION = 10**7
DEFAULT_MAX_HULL = 64


@dataclass(frozen=True)
class AcdParams:
    """Parameters of one additive twisted code.

    ``lambda_set`` may be any tuple of distinct nonzero F_q elements (no
    subgroup structure required).  ``skew_unit`` is the fixed alpha with
    alpha^q = -alpha completing the basis {1, alpha} of F_{q^2} over F_q;
    ``twist_scalar`` is the gamma multiplying the degree-k coefficient.

    The generator matrix, the power sums p_0..p_2k and the trace matrix T
    are computed once per parameter set, on first use, and shared by every
    certificate drawn from it.
    """

    tower: FieldTower
    k: int
    lambda_set: tuple
    twist_scalar: Elem
    skew_unit: Elem

    def __post_init__(self):
        tower = self.tower
        if tower.r != 2:
            raise BadParamsError("additive twisted codes live over F_{q^2} (r = 2)")
        if tower.q < 5 or tower.q % 4 != 1:
            raise BadParamsError("q must satisfy q >= 5 and q = 1 mod 4")
        seen = set()
        for lam in self.lambda_set:
            if lam.tower is not tower or lam.level != MID or not lam:
                raise BadParamsError("evaluation points must be nonzero in F_q")
            if lam.coords in seen:
                raise BadParamsError("evaluation points must be distinct")
            seen.add(lam.coords)
        if not 1 <= self.k <= len(self.lambda_set) - 1:
            raise BadParamsError(
                f"k = {self.k} outside 1..{len(self.lambda_set) - 1}"
            )
        if self.twist_scalar.level != TOP or not self.twist_scalar:
            raise BadParamsError("twist scalar must be nonzero in F_{q^2}")
        alpha = self.skew_unit
        if (
            alpha.level != TOP
            or tower.in_mid_subfield(alpha)
            or tower.frobenius(alpha, 1) != -alpha
        ):
            raise BadParamsError("skew unit must satisfy alpha^q = -alpha, alpha not in F_q")

    @classmethod
    def make(
        cls,
        tower: FieldTower,
        k: int,
        lambda_set,
        twist_scalar: Optional[Elem] = None,
    ) -> "AcdParams":
        """Build params with the canonical skew unit; the twist defaults to
        that same element (the choice that always yields the MDS property)."""
        alpha = tower.skew_unit()
        lams = tuple(
            lam if isinstance(lam, Elem) else tower.mid(lam) for lam in lambda_set
        )
        gamma = alpha if twist_scalar is None else twist_scalar
        return cls(tower, k, lams, gamma, alpha)

    @property
    def ell(self) -> int:
        return len(self.lambda_set)

    @cached_property
    def _generator(self) -> Mat:
        return generator_matrix(self)

    @cached_property
    def _power_sums(self) -> tuple:
        return power_sums(self.tower, self.lambda_set, 2 * self.k)

    @cached_property
    def _t(self) -> Mat:
        return t_matrix(self)


# ---------------------------------------------------------------------------
# Power sums and their Hankel blocks
# ---------------------------------------------------------------------------


def power_sums(tower: FieldTower, lambda_set, upto: int) -> tuple:
    """(p_0, .., p_upto) with p_e = sum over the evaluation set of lambda^e,
    so p_0 = ell mod p."""
    out = [tower.mid(len(lambda_set))]
    powers = list(lambda_set)
    for _ in range(upto):
        acc = tower.mid_zero()
        for lam in powers:
            acc = acc + lam
        out.append(acc)
        powers = [pw * lam for pw, lam in zip(powers, lambda_set)]
    return tuple(out)


def g0_matrix(tower: FieldTower, ps: tuple, k: int) -> Mat:
    rows = [[ps[i + j] for j in range(k)] for i in range(k)]
    return Mat.from_rows(rows, tower=tower, level=MID, cols=k)


def m_matrix(tower: FieldTower, ps: tuple, k: int) -> Mat:
    rows = [[ps[i + j] for j in range(1, k)] for i in range(1, k)]
    return Mat.from_rows(rows, tower=tower, level=MID, cols=k - 1)


def h_matrix(tower: FieldTower, ps: tuple, k: int) -> Mat:
    rows = [[ps[i + j] for j in range(1, k + 1)] for i in range(1, k + 1)]
    return Mat.from_rows(rows, tower=tower, level=MID, cols=k)


def w_vector(ps: tuple, k: int) -> list:
    return [ps[k + i] for i in range(1, k)]


# ---------------------------------------------------------------------------
# The code itself
# ---------------------------------------------------------------------------


def _basis_labels(k: int):
    labels = [("one", 0)]
    labels += [("x", i) for i in range(1, k)]
    labels += [("ax", i) for i in range(1, k)]
    labels += [("gx", k)]
    return labels


def code_basis(params: AcdParams):
    """The ordered F_q-basis {1; X^i; alpha X^i; gamma X^k} of the twisted
    polynomial space, each entry as a coefficient tuple over F_{q^2}."""
    tower = params.tower
    one, zero = tower.top_one(), tower.top_zero()
    out = []
    for kind, i in _basis_labels(params.k):
        if kind == "one":
            out.append((one,))
        elif kind == "x":
            out.append((zero,) * i + (one,))
        elif kind == "ax":
            out.append((zero,) * i + (params.skew_unit,))
        else:
            out.append((zero,) * params.k + (params.twist_scalar,))
    return tuple(out)


def _poly_eval(tower: FieldTower, coeffs, x: Elem) -> Elem:
    acc = tower.top_zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def generator_matrix(params: AcdParams) -> Mat:
    """2k x ell matrix over F_{q^2}: row per basis polynomial, column per
    evaluation point."""
    tower = params.tower
    points = [tower.top(lam) for lam in params.lambda_set]
    rows = [
        [_poly_eval(tower, poly, pt) for pt in points] for poly in code_basis(params)
    ]
    return Mat.from_rows(rows, tower=tower, level=TOP, cols=params.ell)


def encode(params: AcdParams, message) -> list:
    """F_q-linear encoding: message coordinates follow the basis order
    (a_0; middle real parts; middle alpha parts; a_k)."""
    tower = params.tower
    message = [m if isinstance(m, Elem) else tower.mid(m) for m in message]
    if len(message) != 2 * params.k:
        raise LengthMismatchError(
            f"message length {len(message)} != 2k = {2 * params.k}"
        )
    out = [tower.top_zero()] * params.ell
    for coef, row in zip(message, params._generator.entries):
        if coef:
            out = [acc + tower.top(coef) * g for acc, g in zip(out, row)]
    return out


def trace_hermitian(u, v) -> Elem:
    """<u, v> = Tr(sum u_i v_i^q), an F_q-bilinear symmetric pairing."""
    if len(u) != len(v):
        raise LengthMismatchError(f"vector lengths {len(u)} != {len(v)}")
    if not u:
        raise LengthMismatchError("empty vectors have no pairing")
    tower = u[0].tower
    acc = tower.top_zero()
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * tower.frobenius(y, 1)
    return tower.trace(acc)


def gg_dagger(params: AcdParams) -> Mat:
    """G G-dagger over F_{q^2}: entry (r, s) is sum_j G[r,j] * G[s,j]^q,
    the product of G with its entrywise-Frobenius transpose."""
    tower = params.tower
    gen = params._generator
    conj_t = [[tower.frobenius(row[j], 1) for row in gen.entries] for j in range(gen.cols)]
    return gen @ Mat.from_rows(conj_t, tower=tower, level=TOP, cols=gen.rows)


def t_matrix(params: AcdParams) -> Mat:
    """Entrywise trace of G G-dagger: the F_q matrix whose invertibility is
    equivalent to the code being complementary-dual."""
    tower = params.tower
    gg = gg_dagger(params)
    rows = [[tower.trace(x) for x in row] for row in gg.entries]
    return Mat.from_rows(rows, tower=tower, level=MID, cols=gg.cols)


def closed_form_tables(params: AcdParams):
    """Expected G G-dagger and trace matrices from the power-sum closed
    forms, entry by entry over all basis pairs.  Used to cross-check the
    directly computed matrices."""
    tower = params.tower
    alpha, gamma = params.skew_unit, params.twist_scalar
    gamma_q = tower.frobenius(gamma, 1)
    alpha_sq = alpha * alpha
    norm_gamma = tower.norm(gamma)  # gamma^(q+1)
    tr_gamma = tower.trace(gamma)
    tr_alpha_gamma = tower.trace(alpha * gamma)
    labels = _basis_labels(params.k)
    ps = params._power_sums
    two = tower.mid(2)

    def top_entry(a, b):
        (ka, i), (kb, j) = a, b
        if ka == "one" and kb == "one":
            return tower.top(ps[0])
        if ka == "one" and kb == "x":
            return tower.top(ps[j])
        if ka == "x" and kb == "one":
            return tower.top(ps[i])
        if ka == "x" and kb == "x":
            return tower.top(ps[i + j])
        if ka == "one" and kb == "ax":
            return -alpha * tower.top(ps[j])
        if ka == "ax" and kb == "one":
            return alpha * tower.top(ps[i])
        if ka == "x" and kb == "ax":
            return -alpha * tower.top(ps[i + j])
        if ka == "ax" and kb == "x":
            return alpha * tower.top(ps[i + j])
        if ka == "ax" and kb == "ax":
            return -alpha_sq * tower.top(ps[i + j])
        if ka == "one" and kb == "gx":
            return gamma_q * tower.top(ps[j])
        if ka == "gx" and kb == "one":
            return gamma * tower.top(ps[i])
        if ka == "x" and kb == "gx":
            return gamma_q * tower.top(ps[i + j])
        if ka == "gx" and kb == "x":
            return gamma * tower.top(ps[i + j])
        if ka == "ax" and kb == "gx":
            return alpha * gamma_q * tower.top(ps[i + j])
        if ka == "gx" and kb == "ax":
            return -gamma * alpha * tower.top(ps[i + j])
        return tower.top(norm_gamma) * tower.top(ps[i + j])  # (gx, gx)

    def trace_entry(a, b):
        (ka, i), (kb, j) = a, b
        pij = ps[i + j]
        if "ax" not in (ka, kb) and "gx" not in (ka, kb):
            return two * pij
        if {ka, kb} <= {"one", "x", "ax"}:
            if ka == "ax" and kb == "ax":
                return -(two * tower.as_mid(alpha_sq) * pij)
            return tower.mid_zero()
        if ka == "gx" and kb == "gx":
            return two * norm_gamma * pij
        if "ax" in (ka, kb):
            return -(pij * tr_alpha_gamma)
        return pij * tr_gamma

    n = len(labels)
    top_rows = [[top_entry(labels[r], labels[s]) for s in range(n)] for r in range(n)]
    tr_rows = [[trace_entry(labels[r], labels[s]) for s in range(n)] for r in range(n)]
    return (
        Mat.from_rows(top_rows, tower=tower, level=TOP, cols=n),
        Mat.from_rows(tr_rows, tower=tower, level=MID, cols=n),
    )


# ---------------------------------------------------------------------------
# Complementary-dual certification
# ---------------------------------------------------------------------------


def delta_value(params: AcdParams) -> Elem:
    """Delta = 2 gamma^(q+1) p_2k + Tr(alpha gamma)^2 / (2 alpha^2) * w M^-1 w.

    H = [[M, w], [w^T, p_2k]], so w M^-1 w = p_2k minus the Schur residual
    of H.  Defined whenever the Hankel block M is invertible (vacuously for
    k = 1, where the w-term is empty)."""
    tower = params.tower
    k = params.k
    ps = params._power_sums
    two = tower.mid(2)
    term1 = two * tower.norm(params.twist_scalar) * ps[2 * k]
    try:
        w_m_w = ps[2 * k] - linalg.schur_residual(h_matrix(tower, ps, k))
    except SingularLeadingBlockError as exc:
        raise SingularMError("Hankel block M is singular") from exc
    tr_ag = tower.trace(params.skew_unit * params.twist_scalar)
    alpha_sq = tower.as_mid(params.skew_unit * params.skew_unit)
    term2 = (tr_ag * tr_ag) / (two * alpha_sq) * w_m_w
    return term1 + term2


@dataclass(frozen=True)
class AcdVerdicts:
    """Both routes to the complementary-dual decision.

    ``matrix_ok`` is always available (det T != 0).  ``structured_ok`` is
    the block criterion det G0 != 0 and Delta != 0; it is None when its
    preconditions fail, with the reason recorded ('trace_nonzero' when
    Tr(gamma) != 0, 'singular_m' when the Hankel block is singular)."""

    matrix_ok: bool
    structured_ok: Optional[bool]
    structured_reason: Optional[str]
    det_t: Elem
    det_g0: Optional[Elem] = None
    delta: Optional[Elem] = None

    def __iter__(self):
        yield self.matrix_ok
        yield self.structured_ok


def acd_check(params: AcdParams) -> AcdVerdicts:
    """Matrix verdict det T != 0, plus the structured block verdict when
    Tr(gamma) = 0 and M is invertible.  The two agree whenever the second
    is defined."""
    tower = params.tower
    det_t = linalg.det(params._t)
    matrix_ok = bool(det_t)
    tr_gamma = tower.trace(params.twist_scalar)
    if tr_gamma:
        return AcdVerdicts(matrix_ok, None, "trace_nonzero", det_t)
    det_g0 = linalg.det(g0_matrix(tower, params._power_sums, params.k))
    try:
        delta = delta_value(params)
    except SingularMError:
        return AcdVerdicts(matrix_ok, None, "singular_m", det_t, det_g0)
    return AcdVerdicts(
        matrix_ok,
        bool(det_g0) and bool(delta),
        None,
        det_t,
        det_g0,
        delta,
    )


def _alpha_decompose(params: AcdParams, c: Elem):
    """Coordinates (x, y) of c in the basis {1, alpha}: c = x + y alpha."""
    tower = params.tower
    c0 = Elem(tower, MID, c.coords[0])
    c1 = Elem(tower, MID, c.coords[1])
    a0 = Elem(tower, MID, params.skew_unit.coords[0])
    a1 = Elem(tower, MID, params.skew_unit.coords[1])
    y = c1 / a1
    x = c0 - y * a0
    return x, y


def expanded_generator(params: AcdParams) -> Mat:
    """The 2k x 2ell F_q matrix of the code in {1, alpha} coordinates,
    interleaved per position."""
    tower = params.tower
    rows = []
    for row in params._generator.entries:
        flat = []
        for c in row:
            x, y = _alpha_decompose(params, c)
            flat.extend((x, y))
        rows.append(flat)
    return Mat.from_rows(rows, tower=tower, level=MID, cols=2 * params.ell)


def acd_oracle(params: AcdParams, max_hull: int = DEFAULT_MAX_HULL) -> int:
    """Brute-force hull dimension: expand the code into F_q^(2 ell), take
    the trace-Hermitian dual as the kernel of the pairing matrix against
    the ambient basis, and count dim(C intersect C-perp) with
    ``linalg.meet_dim``.  Zero means complementary-dual."""
    tower = params.tower
    ell = params.ell
    if 2 * ell > max_hull:
        raise TooLargeError(f"ambient dimension {2 * ell} exceeds guard {max_hull}")
    alpha = params.skew_unit
    pairing_rows = []
    for row in params._generator.entries:
        flat = []
        for c in row:
            flat.append(tower.trace(c))
            flat.append(tower.trace(-(alpha * c)))
        pairing_rows.append(flat)
    pairing = Mat.from_rows(pairing_rows, tower=tower, level=MID, cols=2 * ell)
    return linalg.meet_dim(expanded_generator(params), pairing)


# ---------------------------------------------------------------------------
# Distance certification
# ---------------------------------------------------------------------------


def mds_criterion(params: AcdParams) -> bool:
    """Sufficient test: gamma^(q+1) = N(gamma) a nonsquare in F_q forces
    minimum distance ell - k + 1.  With gamma = alpha this always holds,
    since N(alpha) = -alpha^2 and alpha^2 is a nonsquare."""
    return not params.tower.is_square(params.tower.norm(params.twist_scalar))


def min_distance_oracle(
    params: AcdParams, max_enumeration: int = DEFAULT_MAX_ENUMERATION
) -> int:
    """Minimum Hamming weight over all q^(2k) - 1 nonzero codewords:
    ``linalg.min_weight`` walks the F_p-combinations of the F_p-basis words
    omega^s * g (g a generator row, omega^s in the F_p-basis of F_q).  A
    codeword evaluates a nonzero polynomial of degree <= k at ell distinct
    points, so it weighs at least ell - k, and the walk stops at the first
    word that does."""
    tower = params.tower
    words = [[tower.top(w) * g for g in row]
             for row in params._generator.entries for w in tower.mid_basis()]
    return linalg.min_weight(
        words,
        tower.p,
        lambda word: sum(1 for c in word if c),
        max_enumeration,
        floor=max(1, params.ell - params.k),
    )


@dataclass(frozen=True)
class RootProductResult:
    """Outcome of prescribing k roots to a fully twisted codeword.

    ``forced_a0`` is the unique constant term (-1)^k gamma a_k prod(roots)
    that such a polynomial must carry.  ``exists`` says whether it lands in
    F_q; when it does, ``member`` holds the witness polynomial, which
    vanishes on all prescribed roots."""

    forced_a0: Elem
    exists: bool
    member: Optional[tuple]


def root_product_check(params: AcdParams, roots, a_k) -> RootProductResult:
    """Check whether some codeword with top coefficient gamma a_k vanishes
    on the given k distinct evaluation points."""
    tower = params.tower
    a_k = a_k if isinstance(a_k, Elem) else tower.mid(a_k)
    roots = tuple(r if isinstance(r, Elem) else tower.mid(r) for r in roots)
    lam_set = set(x.coords for x in params.lambda_set)
    if len(roots) != params.k:
        raise BadRootsError(f"need exactly k = {params.k} roots")
    if len({r.coords for r in roots}) != len(roots):
        raise BadRootsError("roots must be distinct")
    if any(r.coords not in lam_set for r in roots):
        raise BadRootsError("roots must come from the evaluation set")
    if a_k.level != MID or not a_k:
        raise BadRootsError("a_k must be a nonzero element of F_q")

    forced = params.twist_scalar * tower.top(a_k)
    for r in roots:
        forced = forced * tower.top(r)
    if params.k % 2 == 1:
        forced = -forced
    exists = tower.in_mid_subfield(forced)
    member = None
    if exists:
        coeffs = [params.twist_scalar * tower.top(a_k)]
        for r in roots:
            nxt = [-(tower.top(r) * coeffs[0])]
            for i in range(1, len(coeffs)):
                nxt.append(coeffs[i - 1] - tower.top(r) * coeffs[i])
            nxt.append(coeffs[-1])
            coeffs = nxt
        member = tuple(coeffs)
        if member[0] != forced:
            raise AssertionError("interpolated constant term disagrees")
        for r in roots:
            if _poly_eval(tower, member, tower.top(r)):
                raise AssertionError("witness polynomial misses a root")
    return RootProductResult(forced, exists, member)


# ---------------------------------------------------------------------------
# Parameter search
# ---------------------------------------------------------------------------


def _dets_pass(tower: FieldTower, lambda_set, k: int, require_m: bool) -> bool:
    """Acceptance predicate on power-sum determinants for gamma = alpha.

    det G0 != 0 and det H != 0 are exactly det T != 0 (the trace matrix is
    then block-equivalent to diag(2 G0, -2 alpha^2 H)); the geometric
    recipe additionally wants det M != 0 so that Delta is defined."""
    ps = power_sums(tower, lambda_set, 2 * k)
    if not linalg.det(g0_matrix(tower, ps, k)):
        return False
    if require_m and not linalg.det(m_matrix(tower, ps, k)):
        return False
    return bool(linalg.det(h_matrix(tower, ps, k)))


def lambda_search(
    tower: FieldTower, k: int, ell: int, strategy: str = "auto"
) -> AcdParams:
    """Find an evaluation set making the code (with gamma = alpha) both
    complementary-dual and distance-optimal.

    The geometric strategy walks primitive elements g and takes the sets
    {1, g, .., g^(ell-1)}, accepting when the three power-sum determinants
    det G0, det M, det H are all nonzero (then Delta != 0 follows from the
    Schur identity).  The exhaustive strategy scans all ell-subsets of
    F_q* in canonical order.  Either way, the returned parameters are
    re-verified through acd_check and mds_criterion before being handed
    back; exhaustion raises with the number of candidates scanned.

    No such set exists when k + ell >= q: every power sum p_e over all of
    F_q* vanishes for 1 <= e <= 2k, so T(lambda) = -2 E_11 - T(F_q* minus
    lambda) has rank at most 1 + 2(q - 1 - ell) < 2k.  Nor, for gamma =
    alpha, when k = 1 and p | ell (only if m > 1): det G0 = p_0 = 0, so T
    is singular.  Either way the search raises SearchFailedError at once,
    whatever the strategy, with no candidate scanned."""
    if strategy not in ("auto", "geometric", "exhaustive"):
        raise BadParamsError(f"unknown strategy {strategy!r}")
    q = tower.q
    if k < 1 or not 2 * k <= ell <= q - 2:
        raise BadParamsError(
            f"need 1 <= k and 2k <= ell <= q-2; got k={k}, ell={ell}, q={q}"
        )
    if k + ell >= q:
        raise SearchFailedError(
            f"no evaluation set of length {ell} certifies for k={k} over q={q}:"
            f" k + ell >= q, so rank T <= 1 + 2(q - 1 - ell)"
            f" = {1 + 2 * (q - 1 - ell)} < 2k = {2 * k}",
            0,
        )
    if k == 1 and ell % tower.p == 0:
        raise SearchFailedError(
            f"no evaluation set of length {ell} certifies for k=1 over q={q} with gamma"
            f" = alpha: p = {tower.p} divides ell, so det G0 = p_0 = 0 and T is singular",
            0,
        )
    scanned = 0

    def finish(lambda_set) -> Optional[AcdParams]:
        params = AcdParams.make(tower, k, lambda_set)
        verdicts = acd_check(params)
        certifiable = verdicts.matrix_ok and verdicts.structured_ok in (True, None)
        if certifiable and mds_criterion(params):
            return params
        return None

    if strategy in ("auto", "geometric"):
        for g in tower.mid_units():
            if tower.multiplicative_order(g) != q - 1:
                continue
            scanned += 1
            lams = [tower.mid_one()]
            for _ in range(ell - 1):
                lams.append(lams[-1] * g)
            if _dets_pass(tower, lams, k, require_m=True):
                found = finish(tuple(lams))
                if found is not None:
                    return found
        if strategy == "geometric":
            raise SearchFailedError(
                f"no geometric evaluation set of length {ell} works for k={k}",
                scanned,
            )

    if strategy in ("auto", "exhaustive"):
        units = list(tower.mid_units())
        for combo in itertools.combinations(units, ell):
            scanned += 1
            if _dets_pass(tower, combo, k, require_m=False):
                found = finish(tuple(combo))
                if found is not None:
                    return found
    raise SearchFailedError(
        f"no evaluation set of length {ell} certifies for k={k} over q={q}",
        scanned,
    )


def delta_identity_check(params: AcdParams) -> bool:
    """With gamma = alpha and M invertible, Delta must equal
    -2 alpha^2 det(H) / det(M); returns whether the two independently
    computed sides agree (they always should)."""
    tower = params.tower
    if params.twist_scalar != params.skew_unit:
        raise BadParamsError("identity check requires gamma = alpha")
    ps = params._power_sums
    det_m = linalg.det(m_matrix(tower, ps, params.k))
    if not det_m:
        raise SingularMError("Hankel block M is singular")
    det_h = linalg.det(h_matrix(tower, ps, params.k))
    alpha_sq = tower.as_mid(params.skew_unit * params.skew_unit)
    rhs = -(tower.mid(2) * alpha_sq * det_h) / det_m
    return delta_value(params) == rhs


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcdReport:
    """Everything a certification run produces for one parameter set."""

    params: AcdParams
    generator: Mat
    t_mat: Mat
    det_t: Elem
    g0_block: Mat
    m_block: Mat
    w_vec: list
    p2k: Elem
    delta: Optional[Elem]
    acd_by_matrix: bool
    acd_by_structured: Optional[bool]
    structured_reason: Optional[str]
    mds_by_criterion: bool
    acd_by_oracle: Optional[bool] = None
    hull_dim: Optional[int] = None
    min_distance: Optional[int] = None

    def to_dict(self) -> dict:
        p = self.params
        return {
            "schema": 1,
            "kind": "acd",
            "field": p.tower.to_dict(),
            "q": p.tower.q,
            "k": p.k,
            "ell": p.ell,
            "lambda": [str(x) for x in p.lambda_set],
            "gamma": str(p.twist_scalar),
            "alpha": str(p.skew_unit),
            "t": self.t_mat.to_lists(),
            "det_t": str(self.det_t),
            "g0": self.g0_block.to_lists(),
            "m": self.m_block.to_lists(),
            "w": [str(x) for x in self.w_vec],
            "p2k": str(self.p2k),
            "delta": None if self.delta is None else str(self.delta),
            "acd_by_matrix": self.acd_by_matrix,
            "acd_by_structured": self.acd_by_structured,
            "structured_reason": self.structured_reason,
            "acd_by_oracle": self.acd_by_oracle,
            "hull_dim": self.hull_dim,
            "mds_by_criterion": self.mds_by_criterion,
            "min_distance": self.min_distance,
            "singleton_bound": p.ell - p.k + 1,
        }


def build_report(
    params: AcdParams,
    with_oracle: bool = True,
    with_distance: bool = False,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
    max_hull: int = DEFAULT_MAX_HULL,
) -> AcdReport:
    tower = params.tower
    verdicts = acd_check(params)
    ps = params._power_sums
    hull = acd_oracle(params, max_hull=max_hull) if with_oracle else None
    dist = (
        min_distance_oracle(params, max_enumeration=max_enumeration)
        if with_distance
        else None
    )
    return AcdReport(
        params=params,
        generator=params._generator,
        t_mat=params._t,
        det_t=verdicts.det_t,
        g0_block=g0_matrix(tower, ps, params.k),
        m_block=m_matrix(tower, ps, params.k),
        w_vec=w_vector(ps, params.k),
        p2k=ps[2 * params.k],
        delta=verdicts.delta,
        acd_by_matrix=verdicts.matrix_ok,
        acd_by_structured=verdicts.structured_ok,
        structured_reason=verdicts.structured_reason,
        mds_by_criterion=mds_criterion(params),
        acd_by_oracle=None if hull is None else hull == 0,
        hull_dim=hull,
        min_distance=dist,
    )
