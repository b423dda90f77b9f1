"""Reference linear algebra on :class:`Elem` entries, and the hull oracles
and code spaces built on it.

Every operation here goes through the element operators, one field
operation per ``+``, ``-``, ``*`` and ``/``, while ``sumrank.linalg``
computes on raw coordinates.  The reference RREF is the elimination the
library ran on elements before it moved to coordinates; the determinant
divides by each pivot as it goes, where the library's is fraction-free.
The hull oracles intersect explicit RREF bases through the kernel of the
stacked system, the route the library's oracles took before they counted
dim(C intersect C-perp) from ranks alone (``linalg.meet_dim``), and pair
code rows with the dense matrix of the tlrs form, where the library pairs
them slot by slot.  The tlrs form and Gram blocks are here on element
operators too, and so is the subspace record, an RREF basis, that the
intersections work on.  The tests keep all of it as ground truth for the
library.
"""

import skew_reference
from sumrank import acd, tlrs
from sumrank.errors import AmbientMismatchError, SingularLeadingBlockError
from sumrank._record import record
from sumrank.fields import MID, Elem
from sumrank.linalg import Mat


@record
class Subspace:
    """A subspace of the row space F^ambient_dim, held as an RREF basis."""

    ambient_dim: int
    basis: Mat

    @property
    def dim(self) -> int:
        return self.basis.rows


# ---------------------------------------------------------------- elimination


def row_reduce(m: Mat):
    """Reduced row echelon form; returns (nonzero rows, pivot column list)."""
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank]
        # the pivot row is zero left of col, so only col.. changes anywhere
        inv = m.tower.one(m.level) / pivot[col]
        pivot[col:] = [x * inv for x in pivot[col:]]
        for i in range(nrows):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i][col:] = [x - f * y for x, y in zip(rows[i][col:], pivot[col:])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots


def span(rows, tower, level, ambient_dim) -> Subspace:
    """The span of ``rows``, held as their reference RREF."""
    mat = Mat.from_rows(rows, tower=tower, level=level, cols=ambient_dim)
    reduced, _ = row_reduce(mat)
    return Subspace(ambient_dim, Mat.from_rows(reduced, tower=tower, level=level, cols=ambient_dim))


def contains(space: Subspace, vector) -> bool:
    probe = span(list(space.basis.entries) + [vector], space.basis.tower,
                 space.basis.level, space.ambient_dim)
    return probe.dim == space.dim


def rank_kernel(m: Mat) -> tuple[int, Subspace]:
    """Rank of m and a basis of its right kernel {v : m v^T = 0}."""
    reduced, pivots = row_reduce(m)
    zero, one = m.tower.zero(m.level), m.tower.one(m.level)
    pivot_set = set(pivots)
    kernel_rows = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [zero] * m.cols
        v[free] = one
        for i, pcol in enumerate(pivots):
            v[pcol] = -reduced[i][free]
        kernel_rows.append(v)
    return len(pivots), span(kernel_rows, m.tower, m.level, m.cols)


def det(m: Mat):
    """Gaussian elimination dividing by each pivot: the determinant is the
    signed product of the pivots."""
    rows = [list(r) for r in m.entries]
    n = m.rows
    acc = m.tower.one(m.level)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot_row is None:
            return m.tower.zero(m.level)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            acc = -acc
        pivot = rows[col]
        acc = acc * pivot[col]
        for i in range(col + 1, n):
            f = rows[i][col] / pivot[col]
            rows[i] = [x - f * y for x, y in zip(rows[i], pivot)]
    return acc


def solve(m: Mat, rhs) -> list:
    """x with m x = rhs for square invertible m, from the RREF of [m | rhs]."""
    aug = Mat.from_rows([list(row) + [r] for row, r in zip(m.entries, rhs)],
                        tower=m.tower, level=m.level, cols=m.cols + 1)
    reduced, pivots = row_reduce(aug)
    if pivots != list(range(m.cols)):
        raise SingularLeadingBlockError("singular system")
    return [row[m.cols] for row in reduced]


def schur_residual(h: Mat):
    """d - c^T M^{-1} b for h = [[M, b], [c^T, d]]."""
    n = h.rows
    lead = Mat.from_rows([row[: n - 1] for row in h.entries[: n - 1]],
                         tower=h.tower, level=h.level, cols=n - 1)
    x = solve(lead, [h[i, n - 1] for i in range(n - 1)])
    acc = h[n - 1, n - 1]
    for c, xi in zip(h.entries[n - 1], x):
        acc = acc - c * xi
    return acc


def add(a: Mat, b: Mat) -> Mat:
    return Mat.from_rows([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)],
                         tower=a.tower, level=a.level, cols=a.cols)


def matmul(a: Mat, b: Mat) -> Mat:
    zero = a.tower.zero(a.level)
    rows = []
    for arow in a.entries:
        row = []
        for j in range(b.cols):
            acc = zero
            for x, brow in zip(arow, b.entries):
                acc = acc + x * brow[j]
            row.append(acc)
        rows.append(row)
    return Mat.from_rows(rows, tower=a.tower, level=a.level, cols=b.cols)


def transpose(m: Mat) -> Mat:
    return Mat(m.tower, m.level, m.cols, m.rows,
               [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)])


def identity(tower, level, n: int) -> Mat:
    zero, one = tower.zero(level), tower.one(level)
    return Mat(tower, level, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])


def is_symmetric(m: Mat) -> bool:
    return m.rows == m.cols and all(
        m[i, j] == m[j, i] for i in range(m.rows) for j in range(i)
    )


# ---------------------------------------------------------------- intersections


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two row spaces via the kernel of the stacked system.

    A vector lies in both spaces iff it is x A = -y B for some solution
    (x, y) of x A + y B = 0, i.e. a kernel element of [A^T | B^T].
    """
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dims {a.ambient_dim} and {b.ambient_dim} differ"
        )
    tower, level = a.basis.tower, a.basis.level
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return span([], tower, level, n)
    stacked = transpose(Mat.from_rows(a.basis.entries + b.basis.entries))  # n x (ka + kb)
    _, ker = rank_kernel(stacked)
    vectors = []
    zero = tower.zero(level)
    for krow in ker.basis.entries:
        x = krow[: a.dim]
        v = [zero] * n
        for coef, arow in zip(x, a.basis.entries):
            if coef:
                v = [acc + coef * e for acc, e in zip(v, arow)]
        vectors.append(v)
    return span(vectors, tower, level, n)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dims {a.ambient_dim} and {b.ambient_dim} differ"
        )
    return span(
        list(a.basis.entries) + list(b.basis.entries),
        a.basis.tower,
        a.basis.level,
        a.ambient_dim,
    )


def meet_dim(rows: Mat, pairing: Mat) -> int:
    """dim(rowspace(rows) intersect ker(pairing)) by explicit intersection."""
    _, kernel = rank_kernel(pairing)
    space = span(rows.entries, rows.tower, rows.level, rows.cols)
    return intersect(space, kernel).dim


# ---------------------------------------------------------------- codes and hulls


def acd_hull(params: acd.AcdParams) -> int:
    """The acd hull dimension: the code expanded into F_q^(2 ell) against
    the kernel of its trace-Hermitian pairings with the ambient basis."""
    tower = params.tower
    alpha = params.skew_unit
    pairing_rows = []
    for row in params._generator.entries:
        flat = []
        for c in row:
            flat.append(tower.trace(c))
            flat.append(tower.trace(-(alpha * c)))
        pairing_rows.append(flat)
    pairing = Mat.from_rows(pairing_rows, tower=tower, level=MID, cols=2 * params.ell)
    return meet_dim(acd.expanded_generator(params), pairing)


def coords_of(ctx, f) -> list:
    """Residue coordinates over F_q: coefficient i of X^i contributes its
    r residues, little-endian, at slots i*r .. i*r + r - 1."""
    f = ctx.reduce(f)
    tower = ctx.tower
    out = []
    for i in range(ctx.modulus_degree):
        out.extend(Elem(tower, MID, part) for part in f.coeff(i).coords)
    return out


def form_matrix(ctx) -> Mat:
    """Matrix of the bilinear form on ambient K-coordinates: block diagonal
    with one copy of the trace-form Gram of the power basis per X-slot."""
    tower = ctx.tower
    r = tower.r
    betas = [tower.top([int(s == t) for s in range(r)]) for t in range(r)]
    t0 = [[tower.trace(bs * bt) for bt in betas] for bs in betas]
    n = ctx.ambient_dim
    zero = tower.mid_zero()
    rows = [[zero] * n for _ in range(n)]
    for blk in range(ctx.modulus_degree):
        for s in range(r):
            for t in range(r):
                rows[blk * r + s][blk * r + t] = t0[s][t]
    return Mat.from_rows(rows, tower=tower, level=MID, cols=n)


def _code_rows(code: tlrs.TlrsCode) -> Mat:
    ctx = code.params.ctx
    return Mat.from_rows(
        [coords_of(ctx, f) for f in code.basis_polys],
        tower=ctx.tower,
        level=MID,
        cols=ctx.ambient_dim,
    )


def code_subspace(code: tlrs.TlrsCode) -> Subspace:
    """The code as a K-subspace of ambient residue coordinates."""
    a = _code_rows(code)
    return span(a.entries, a.tower, MID, a.cols)


def dual_basis(code: tlrs.TlrsCode) -> Subspace:
    """Dual code: kernel of the basis-against-ambient form-value matrix.

    The form is non-degenerate on the full residue space, so the dual has
    K-dimension ambient_dim - kr = ell*r^2 - kr.
    """
    a = _code_rows(code)
    _, kernel = rank_kernel(matmul(a, form_matrix(code.params.ctx)))
    return kernel


def tlrs_hull(code: tlrs.TlrsCode) -> int:
    """The tlrs hull dimension: the code against the kernel of its form
    values on the ambient basis."""
    rows = _code_rows(code)
    return meet_dim(rows, matmul(rows, form_matrix(code.params.ctx)))


def lambda_form(f, g, ctx):
    """Tr(sum_i f_i g_i) on the reference reductions, by element operators."""
    f, g = skew_reference.reduce(ctx, f), skew_reference.reduce(ctx, g)
    acc = ctx.tower.top_zero()
    for fi, gi in zip(f.coeffs, g.coeffs):
        acc = acc + fi * gi
    return ctx.tower.trace(acc)


def gram_blocks(code: tlrs.TlrsCode):
    """M[t,u] = Tr(b_t b_u) and B[t,u] = Tr(alpha b_t b_u) with
    alpha = theta^(-h)(1 + eta^2), by element operators."""
    params = code.params
    tower = params.ctx.tower
    u = tower.top([int(s == 1) for s in range(tower.r)])
    betas = [u ** t for t in range(tower.r)]  # the power basis, from u, not the Frobenius table
    alpha = tower.frobenius(tower.top_one() + params.eta * params.eta, -params.h)
    m_rows = [[tower.trace(bt * bu) for bu in betas] for bt in betas]
    b_rows = [[tower.trace(alpha * bt * bu) for bu in betas] for bt in betas]
    return (Mat.from_rows(m_rows, tower=tower, level=MID, cols=tower.r),
            Mat.from_rows(b_rows, tower=tower, level=MID, cols=tower.r), alpha)


def gram_assembled(code: tlrs.TlrsCode) -> Mat:
    """Block-diagonal assembly diag(M, .., M, B) of the closed-form Gram
    blocks: k-1 copies of M then B."""
    params = code.params
    tower = params.ctx.tower
    r = tower.r
    m_block, b_block, _ = tlrs.gram_blocks(code)
    n = params.k * r
    zero = tower.mid_zero()
    rows = [[zero] * n for _ in range(n)]
    for blk in range(params.k - 1):
        for s in range(r):
            for t in range(r):
                rows[blk * r + s][blk * r + t] = m_block[s, t]
    off = (params.k - 1) * r
    for s in range(r):
        for t in range(r):
            rows[off + s][off + t] = b_block[s, t]
    return Mat.from_rows(rows, tower=tower, level=MID, cols=n)
