"""Exact dense linear algebra over any tower level.

Everything is Gaussian elimination with first-nonzero pivoting (fields have
no magnitudes, so any nonzero pivot is as good as another and this choice
keeps results deterministic).  Matrices are immutable; all functions are
pure.  Empty matrices follow the conventions det([]) = 1 and rank([]) = 0
so that degenerate block sizes fall out of the general formulas.  A
matrix holds the coordinates of its entries, checked once, when it is
built from :class:`Elem`s, to live at its tower and level (a sum or
product checks its other operand), and builds those elements only when
they are first read.  So the sum, the product and every elimination
except ``meet_dim``'s stacked rank compute on coordinates with
:meth:`FieldTower.coord_ops`, building elements only for returned values.
"""

from __future__ import annotations

from types import SimpleNamespace

from .errors import (
    AmbientMismatchError,
    BadParamsError,
    LevelMismatchError,
    NotSquareError,
    SingularLeadingBlockError,
    TooLargeError,
)
from .fields import Elem, FieldTower


class Mat:
    """Immutable row-major matrix at one level: ``coords`` holds the
    coordinate rows of its entries, and ``entries`` their :class:`Elem`s,
    built on first read and then kept."""

    __slots__ = ("tower", "level", "rows", "cols", "coords", "_entries")

    def __init__(self, tower: FieldTower, level: str, rows: int, cols: int, entries):
        self.tower, self.level, self.rows, self.cols = tower, level, rows, cols
        self._entries = grid = tuple(map(tuple, entries))
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError("entry grid does not match declared shape")
        # a stray entry drops out of its row, so the coordinates fall short
        self.coords = coords = tuple([tuple([e.coords for e in row
                                             if e.tower is tower and e.level == level])
                                      for row in grid])
        if sum(map(len, coords)) != rows * cols:
            raise LevelMismatchError(f"matrix entries must all live at {level!r} of one tower")

    @classmethod
    def from_rows(cls, rows, tower=None, level=None, cols=None) -> "Mat":
        """The matrix of ``rows``, at the tower, level and width of their first entry."""
        rows = [list(r) for r in rows]
        if rows and rows[0]:
            probe, width = rows[0][0], len(rows[0])
            if cols not in (None, width):
                raise ValueError(f"rows of width {width} given cols = {cols}")
            tower, level, cols = tower or probe.tower, level or probe.level, width
        if tower is None or level is None or cols is None:
            raise ValueError("empty matrix needs explicit tower/level/cols")
        return cls(tower, level, len(rows), cols, rows)

    @classmethod
    def _of_coords(cls, tower: FieldTower, level: str, cols: int, rows) -> "Mat":
        """The matrix with the given coordinate rows, unchecked."""
        out = cls.__new__(cls)
        out.tower, out.level, out.rows, out.cols = tower, level, len(rows), cols
        out.coords = tuple(map(tuple, rows))
        out._entries = None
        return out

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            t, lv = self.tower, self.level
            self._entries = tuple(tuple([Elem(t, lv, c) for c in row]) for row in self.coords)
        return self._entries

    def _peer(self, other: "Mat") -> None:
        if other.tower is not self.tower or other.level != self.level:
            raise LevelMismatchError(f"matrix operands must live at {self.level!r} of one tower")

    def __getitem__(self, ij) -> Elem:
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} + {other.rows}x{other.cols}")
        self._peer(other)
        add = self.tower.coord_ops(self.level).add
        rows = [map(add, a, b) for a, b in zip(self.coords, other.coords)]
        return Mat._of_coords(self.tower, self.level, self.cols, rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        self._peer(other)
        ops = self.tower.coord_ops(self.level)
        zero, add, mul = ops.zero, ops.add, ops.mul
        bt = list(zip(*other.coords)) or [()] * other.cols
        out = []
        for arow in self.coords:
            row = []
            for bcol in bt:
                acc = zero
                for x, y in zip(arow, bcol):
                    if x != zero and y != zero:
                        acc = add(acc, mul(x, y))
                row.append(acc)
            out.append(row)
        return Mat._of_coords(self.tower, self.level, other.cols, out)

    def is_zero(self) -> bool:
        zero = self.tower.coord_ops(self.level).zero
        return all(c == zero for row in self.coords for c in row)

    def __eq__(self, other):
        return isinstance(other, Mat) and other.tower is self.tower and (
            other.level, other.rows, other.cols, other.coords
        ) == (self.level, self.rows, self.cols, self.coords)

    def __hash__(self):
        return hash(self.coords)

    def to_lists(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.to_lists()})"


def _coords(m: Mat) -> list[list]:
    """The coordinate rows of m, as fresh lists the eliminations may reduce."""
    return [list(row) for row in m.coords]


def _row_reduce(ops, rows, ncols):
    """Reduced row echelon form of coordinate rows, reduced in place;
    returns (nonzero rows, pivot column list)."""
    zero, mul, sub = ops.zero, ops.mul, ops.sub
    nrows = len(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        for i in range(rank, nrows):
            if rows[i][col] != zero:
                pivot_row = i
                break
        else:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank]
        # the pivot row is zero left of col, so only col.. changes anywhere
        inv = ops.inv(pivot[col])
        pivot[col:] = [mul(x, inv) for x in pivot[col:]]
        for i in range(nrows):
            f = rows[i][col]
            if i != rank and f != zero:
                rows[i][col:] = [sub(x, mul(f, y)) for x, y in zip(rows[i][col:], pivot[col:])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots


def _echelon(ops, rows, ncols):
    """Forward elimination of rows, in place, with the ``zero``, ``mul`` and
    ``sub`` of ``ops`` (coordinate arithmetic, or for meet_dim's stacked
    rank the element operators), to row-echelon form
    with no pivot inverse: a row below pivot row P whose entry in the pivot
    column is f becomes pivot * row - f * P.  Yields, for each column in
    turn, None when it has no pivot, else (pivot, swapped, scaled) with
    ``scaled`` the number of rows multiplied by the pivot.  Stops once
    every row holds a pivot."""
    zero, mul, sub = ops.zero, ops.mul, ops.sub
    nrows = len(rows)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            return
        for i in range(rank, nrows):
            if rows[i][col] != zero:
                pivot_row = i
                break
        else:
            yield None
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank]
        pv = pivot[col]
        scaled = 0
        for i in range(rank + 1, nrows):
            f = rows[i][col]
            if f != zero:
                # entries left of col + 1 are never read again
                rows[i][col + 1:] = [
                    sub(mul(pv, x), mul(f, y))
                    for x, y in zip(rows[i][col + 1:], pivot[col + 1:])
                ]
                scaled += 1
        yield pv, pivot_row != rank, scaled
        rank += 1


def _rank(ops, rows, ncols) -> int:
    return sum(1 for step in _echelon(ops, rows, ncols) if step is not None)


def det(m: Mat) -> Elem:
    """Determinant: the signed pivot product of the echelon form, divided
    by the pivot powers the elimination scaled rows with."""
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    ops = m.tower.coord_ops(m.level)
    mul = ops.mul
    acc = scale = ops.one
    for step in _echelon(ops, _coords(m), m.cols):
        if step is None:
            return Elem(m.tower, m.level, ops.zero)
        pivot, swapped, scaled = step
        acc = ops.neg(mul(acc, pivot)) if swapped else mul(acc, pivot)
        for _ in range(scaled):
            scale = mul(scale, pivot)
    return Elem(m.tower, m.level, mul(acc, ops.inv(scale)))


def rank(m: Mat) -> int:
    """Rank of m: the pivot count of its echelon form, no kernel built."""
    return _rank(m.tower.coord_ops(m.level), _coords(m), m.cols)


def min_weight(words, p: int, weight, max_enumeration: int, floor: int = 1) -> int:
    """Least ``weight`` over the nonzero F_p-combinations of ``words``, walked
    in modular p-ary Gray order from words[0]: step t adds word v_p(t)
    entrywise, one addition per entry.  ``floor`` is a proven lower bound on
    that least weight (1 for any nonzero word), so the walk stops at the
    first word whose weight reaches it."""
    if not words:
        raise BadParamsError("min_weight of an empty basis: it spans no nonzero word")
    size = p ** len(words)
    if size > max_enumeration:
        raise TooLargeError(f"enumerating {size} codewords exceeds the guard {max_enumeration}")
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


def _kernel_rows(ops, reduced, pivots, ncols) -> list[list]:
    """Coordinate basis of the right kernel of a matrix read off its RREF
    (``reduced``, ``pivots``): one row per free column, 1 there and the
    negated reduced entries of that column at the pivot columns."""
    pivot_set = set(pivots)
    rows = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ops.zero] * ncols
        v[free] = ops.one
        for i, pcol in enumerate(pivots):
            v[pcol] = ops.neg(reduced[i][free])
        rows.append(v)
    return rows


def meet_dim(rows: Mat, pairing: Mat) -> int:
    """dim(rowspace(rows) intersect K), K = {v : pairing v^T = 0}.

    The kernel rows come from the one RREF of ``pairing`` and are
    independent, so dim K is their count, and the dimension is
    rank(rows) + dim K - rank [rows; K].

    The stacked rank, unlike every other elimination here, runs on the
    element operators, over ``rows.entries`` (built on this read when rows
    came from coordinates) and the kernel rows as elements.  It is half of
    every acd-search job; on coordinates that benchmark runs about 1.5
    times as many jobs, and perfbench's peak_rss_mb, which grows with every
    job record a run keeps, passes its bound.  Rank ``both`` with ``ops`` on
    coordinates once perfbench stops keeping them."""
    if rows.cols != pairing.cols:
        raise AmbientMismatchError(f"ambient dims {rows.cols} and {pairing.cols} differ")
    rows._peer(pairing)
    tower, level, n = rows.tower, rows.level, rows.cols
    ops = tower.coord_ops(level)
    reduced, pivots = _row_reduce(ops, _coords(pairing), n)
    kernel = [[Elem(tower, level, c) for c in row] for row in _kernel_rows(ops, reduced, pivots, n)]
    both = [list(r) for r in rows.entries] + kernel
    elem_ops = SimpleNamespace(zero=tower.zero(level), mul=Elem.__mul__, sub=Elem.__sub__)
    return _rank(ops, _coords(rows), n) + len(kernel) - _rank(elem_ops, both, n)


def _solve(ops, aug, n: int) -> list:
    """Coordinates of x with M x = b, where ``aug`` holds the rows of
    [M | b] for square M of size n; raises if M is singular."""
    reduced, pivots = _row_reduce(ops, aug, n + 1)
    if pivots != list(range(n)):
        raise SingularLeadingBlockError("singular system")
    return [row[n] for row in reduced]


def schur_residual(h: Mat) -> Elem:
    """For h = [[M, b], [c^T, d]] with invertible leading block M, the value
    d - c^T M^{-1} b, which satisfies residual * det(M) = det(h).  A 1x1
    input returns its single entry (empty leading block)."""
    if h.rows != h.cols:
        raise NotSquareError("schur_residual needs a square matrix")
    n = h.rows
    if n == 0:
        raise NotSquareError("schur_residual of an empty matrix")
    ops = h.tower.coord_ops(h.level)
    rows = _coords(h)
    try:
        # the first n - 1 rows are [M | b]
        x = _solve(ops, rows[: n - 1], n - 1)
    except SingularLeadingBlockError:
        raise SingularLeadingBlockError("leading principal block is singular") from None
    acc = rows[n - 1][n - 1]
    for c, xi in zip(rows[n - 1], x):
        acc = ops.sub(acc, ops.mul(c, xi))
    return Elem(h.tower, h.level, acc)
