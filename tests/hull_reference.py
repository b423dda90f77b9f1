"""Reference hull computation: subspace intersection through the kernel of
the stacked system, and the two hull oracles built on it.

This is the route the library's hull oracles took before they counted
dim(C intersect C-perp) from ranks alone (``linalg.meet_dim``).  It builds
an RREF basis of every space involved, and its own kernel rows, so the
tests keep it as ground truth for the rank count.
"""

from sumrank import acd, linalg, tlrs
from sumrank.errors import AmbientMismatchError
from sumrank.fields import MID
from sumrank.linalg import Mat, Subspace


def rank_kernel(m: Mat) -> tuple[int, Subspace]:
    """Rank of m and a basis of its right kernel {v : m v^T = 0}."""
    reduced, pivots = linalg._row_reduce(m)
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
    return len(pivots), Subspace.from_generators(kernel_rows, m.tower, m.level, m.cols)


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
        return Subspace.from_generators([], tower, level, n)
    stacked = a.basis.stack(b.basis).transpose()  # n x (ka + kb)
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
    return Subspace.from_generators(vectors, tower, level, n)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dims {a.ambient_dim} and {b.ambient_dim} differ"
        )
    return Subspace.from_generators(
        list(a.basis.entries) + list(b.basis.entries),
        a.basis.tower,
        a.basis.level,
        a.ambient_dim,
    )


def meet_dim(rows: Mat, pairing: Mat) -> int:
    """dim(rowspace(rows) intersect ker(pairing)) by explicit intersection."""
    _, kernel = rank_kernel(pairing)
    space = Subspace.from_generators(rows.entries, rows.tower, rows.level, rows.cols)
    return intersect(space, kernel).dim


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


def tlrs_hull(code: tlrs.TlrsCode) -> int:
    """The tlrs hull dimension: the code against the kernel of its form
    values on the ambient basis."""
    ctx = code.params.ctx
    rows = Mat.from_rows(
        [ctx.coords_of(f) for f in code.basis_polys],
        tower=ctx.tower,
        level=MID,
        cols=ctx.ambient_dim,
    )
    return meet_dim(rows, rows @ tlrs._form_matrix(ctx))
