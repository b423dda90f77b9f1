"""Exact dense linear algebra over any tower level.

Everything is Gaussian elimination with first-nonzero pivoting (fields have
no magnitudes, so any nonzero pivot is as good as another and this choice
keeps results deterministic).  Matrices are immutable; all functions are
pure.  Empty matrices follow the conventions det([]) = 1 and rank([]) = 0
so that degenerate block sizes fall out of the general formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AmbientMismatchError,
    NotSquareError,
    SingularLeadingBlockError,
    TooLargeError,
)
from .fields import Elem, FieldTower


class Mat:
    """Immutable row-major matrix of :class:`Elem` values at one level."""

    __slots__ = ("tower", "level", "rows", "cols", "entries")

    def __init__(self, tower: FieldTower, level: str, rows: int, cols: int, entries):
        self.tower = tower
        self.level = level
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != rows or any(len(r) != cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows, tower=None, level=None, cols=None) -> "Mat":
        rows = [list(r) for r in rows]
        if rows and rows[0]:
            probe = rows[0][0]
            tower, level = probe.tower, probe.level
            cols = len(rows[0])
        if tower is None or level is None or cols is None:
            raise ValueError("empty matrix needs explicit tower/level/cols")
        return cls(tower, level, len(rows), cols, rows)

    @classmethod
    def identity(cls, tower: FieldTower, level: str, n: int) -> "Mat":
        zero, one = tower.zero(level), tower.one(level)
        return cls(
            tower,
            level,
            n,
            n,
            [[one if i == j else zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, tower: FieldTower, level: str, rows: int, cols: int) -> "Mat":
        zero = tower.zero(level)
        return cls(tower, level, rows, cols, [[zero] * cols for _ in range(rows)])

    def __getitem__(self, ij) -> Elem:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "Mat":
        return Mat(
            self.tower,
            self.level,
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} + {other.rows}x{other.cols}")
        rows = [[x + y for x, y in zip(a, b)] for a, b in zip(self.entries, other.entries)]
        return Mat(self.tower, self.level, self.rows, self.cols, rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self.tower.zero(self.level)
        out = []
        bt = other.transpose().entries
        for arow in self.entries:
            row = []
            for bcol in bt:
                acc = zero
                for x, y in zip(arow, bcol):
                    if x and y:
                        acc = acc + x * y
                row.append(acc)
            out.append(row)
        return Mat(self.tower, self.level, self.rows, other.cols, out)

    def stack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return Mat(
            self.tower,
            self.level,
            self.rows + other.rows,
            self.cols,
            list(self.entries) + list(other.entries),
        )

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.rows == self.rows
            and other.cols == self.cols
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def to_lists(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.to_lists()})"


@dataclass(frozen=True)
class Subspace:
    """A subspace of the row space F^ambient_dim, held as an RREF basis."""

    ambient_dim: int
    basis: Mat

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def from_generators(cls, rows, tower, level, ambient_dim) -> "Subspace":
        mat = Mat.from_rows(rows, tower=tower, level=level, cols=ambient_dim)
        reduced, _ = _row_reduce(mat)
        return cls(ambient_dim, Mat.from_rows(reduced, tower=tower, level=level, cols=ambient_dim))

    def contains(self, vector) -> bool:
        probe = Subspace.from_generators(
            list(self.basis.entries) + [vector],
            self.basis.tower,
            self.basis.level,
            self.ambient_dim,
        )
        return probe.dim == self.dim


def _row_reduce(m: Mat):
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


def _echelon(m: Mat):
    """Forward elimination to row-echelon form with no pivot inverse: a row
    below pivot row P whose entry in the pivot column is f becomes
    pivot * row - f * P.  Yields, for each column in turn, None when it has
    no pivot, else (pivot, swapped, scaled) with ``scaled`` the number of
    rows multiplied by the pivot.  Stops once every row holds a pivot."""
    rows = [list(r) for r in m.entries]
    nrows = m.rows
    rank = 0
    for col in range(m.cols):
        if rank == nrows:
            return
        pivot_row = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            yield None
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank]
        pv = pivot[col]
        scaled = 0
        for i in range(rank + 1, nrows):
            f = rows[i][col]
            if f:
                # entries left of col + 1 are never read again
                rows[i][col + 1:] = [
                    pv * x - f * y for x, y in zip(rows[i][col + 1:], pivot[col + 1:])
                ]
                scaled += 1
        yield pv, pivot_row != rank, scaled
        rank += 1


def det(m: Mat) -> Elem:
    """Determinant: the signed pivot product of the echelon form, divided
    by the pivot powers the elimination scaled rows with."""
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    one = m.tower.one(m.level)
    acc, scale = one, one
    for step in _echelon(m):
        if step is None:
            return m.tower.zero(m.level)
        pivot, swapped, scaled = step
        acc = -(acc * pivot) if swapped else acc * pivot
        if scaled:
            scale = scale * pivot ** scaled
    return acc / scale


def rank(m: Mat) -> int:
    """Rank of m: the pivot count of its echelon form, no kernel built."""
    return sum(1 for step in _echelon(m) if step is not None)


def min_weight(words, p: int, weight, max_enumeration: int, floor: int = 1) -> int:
    """Least ``weight`` over the nonzero F_p-combinations of ``words``, walked
    in modular p-ary Gray order from words[0]: step t adds word v_p(t)
    entrywise, one addition per entry.  ``floor`` is a proven lower bound on
    that least weight (1 for any nonzero word), so the walk stops at the
    first word whose weight reaches it."""
    size = p ** len(words)
    if size > max_enumeration:
        raise TooLargeError(
            f"enumerating {size} codewords exceeds the guard {max_enumeration}"
        )
    word = words[0]
    best = weight(word)
    for step in range(2, size):
        if best <= floor:
            break
        digit, t = 0, step
        while t % p == 0:
            t, digit = t // p, digit + 1
        word = [a + b for a, b in zip(word, words[digit])]
        best = min(best, weight(word))
    return best


def _kernel_rows(m: Mat, reduced, pivots) -> list[list[Elem]]:
    """Basis of the right kernel of m read off its RREF (``reduced``,
    ``pivots``): one row per free column, 1 there and the negated reduced
    entries of that column at the pivot columns."""
    zero, one = m.tower.zero(m.level), m.tower.one(m.level)
    pivot_set = set(pivots)
    rows = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [zero] * m.cols
        v[free] = one
        for i, pcol in enumerate(pivots):
            v[pcol] = -reduced[i][free]
        rows.append(v)
    return rows


def rank_kernel(m: Mat) -> tuple[int, Subspace]:
    """Rank of m and a basis of its right kernel {v : m v^T = 0}."""
    reduced, pivots = _row_reduce(m)
    kernel_rows = _kernel_rows(m, reduced, pivots)
    return len(pivots), Subspace.from_generators(kernel_rows, m.tower, m.level, m.cols)


def meet_dim(rows: Mat, pairing: Mat) -> int:
    """dim(rowspace(rows) intersect K), K = {v : pairing v^T = 0}.

    The kernel rows come from the one RREF of ``pairing`` and are
    independent, so dim K is their count, and the dimension is
    rank(rows) + dim K - rank [rows; K]."""
    if rows.cols != pairing.cols:
        raise AmbientMismatchError(
            f"ambient dims {rows.cols} and {pairing.cols} differ"
        )
    reduced, pivots = _row_reduce(pairing)
    kernel = _kernel_rows(pairing, reduced, pivots)
    both = rows.stack(Mat(rows.tower, rows.level, len(kernel), rows.cols, kernel))
    return rank(rows) + len(kernel) - rank(both)


def solve(m: Mat, rhs) -> list[Elem]:
    """Solve m x = rhs for square invertible m; raises if singular."""
    if m.rows != m.cols:
        raise NotSquareError("solve needs a square matrix")
    aug_rows = [list(row) + [r] for row, r in zip(m.entries, rhs)]
    aug = Mat.from_rows(aug_rows, tower=m.tower, level=m.level, cols=m.cols + 1)
    reduced, pivots = _row_reduce(aug)
    if pivots != list(range(m.cols)):
        raise SingularLeadingBlockError("singular system")
    return [reduced[i][m.cols] for i in range(m.cols)]


def schur_residual(h: Mat) -> Elem:
    """For h = [[M, b], [c^T, d]] with invertible leading block M, the value
    d - c^T M^{-1} b, which satisfies residual * det(M) = det(h).  A 1x1
    input returns its single entry (empty leading block)."""
    if h.rows != h.cols:
        raise NotSquareError("schur_residual needs a square matrix")
    n = h.rows
    if n == 0:
        raise NotSquareError("schur_residual of an empty matrix")
    if n == 1:
        return h[0, 0]
    lead = Mat.from_rows(
        [row[: n - 1] for row in h.entries[: n - 1]],
        tower=h.tower,
        level=h.level,
        cols=n - 1,
    )
    b = [h.entries[i][n - 1] for i in range(n - 1)]
    try:
        x = solve(lead, b)
    except SingularLeadingBlockError:
        raise SingularLeadingBlockError(
            "leading principal block is singular"
        ) from None
    d = h.entries[n - 1][n - 1]
    acc = d
    for c, xi in zip(h.entries[n - 1][: n - 1], x):
        acc = acc - c * xi
    return acc
