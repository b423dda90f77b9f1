"""The paper's identities on additive twisted codes, as checkers the tests
run against the library.

The library certifies a code through ``acd_check``, ``acd_oracle``,
``mds_criterion`` and ``min_distance_oracle``; the identities behind those
certificates are only ever checked, so they live here with the tests:
F_q-linear encoding, the trace-Hermitian pairing, the closed forms of
G G-dagger and of the trace matrix T, the root-product argument behind the
MDS claim, and the Schur identity Delta = -2 alpha^2 det H / det M.
"""

from sumrank import linalg
from sumrank._record import record
from sumrank.acd import (
    AcdParams,
    _basis_labels,
    _poly_eval,
    delta_value,
    h_matrix,
    m_matrix,
)
from sumrank.errors import BadParamsError, SingularMError, SumRankError
from sumrank.fields import MID, TOP, Elem
from sumrank.linalg import Mat


class LengthMismatchError(SumRankError):
    """Vectors or messages of incompatible lengths."""


class BadRootsError(SumRankError):
    """Prescribed root set is not an admissible subset of the evaluation set."""


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


@record
class RootProductResult:
    """Outcome of prescribing k roots to a fully twisted codeword.

    ``forced_a0`` is the unique constant term (-1)^k gamma a_k prod(roots)
    that such a polynomial must carry.  ``exists`` says whether it lands in
    F_q; when it does, ``member`` holds the witness polynomial, which
    vanishes on all prescribed roots."""

    forced_a0: Elem
    exists: bool
    member: tuple | None


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
