"""Exact linear algebra: determinants, kernels, intersections, Schur residuals."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hull_reference
from sumrank import linalg
from sumrank.errors import (
    AmbientMismatchError,
    BadParamsError,
    LevelMismatchError,
    NotSquareError,
    SingularLeadingBlockError,
    TooLargeError,
)
from sumrank.fields import MID, TOP, Elem, FieldTower
from sumrank.linalg import Mat


def mid_mat(tower, rows):
    return Mat.from_rows(
        [[tower.mid(v) for v in row] for row in rows],
        tower=tower,
        level=MID,
        cols=len(rows[0]),
    )


def _rand_elem(tower, level, rng):
    mids = [tower.mid([rng.randrange(tower.p) for _ in range(tower.m)])
            for _ in range(tower.r if level == TOP else 1)]
    return tower.top(mids) if level == TOP else mids[0]


def rand_mid_mat(tower, rng, rows, cols):
    return Mat.from_rows(
        [
            [tower.mid([rng.randrange(tower.p) for _ in range(tower.m)]) for _ in range(cols)]
            for _ in range(rows)
        ],
        tower=tower,
        level=MID,
        cols=cols,
    )


# ---------------------------------------------------------------- determinant


def test_det_gram_example(f25):
    m = mid_mat(f25, [[4, 1], [1, 3]])
    assert linalg.det(m) == f25.mid(1)  # 12 - 1 = 11 = 1 mod 5


def test_det_identity_and_empty(f25):
    assert linalg.det(hull_reference.identity(f25, MID, 3)) == f25.mid_one()
    empty = Mat.from_rows([], tower=f25, level=MID, cols=0)
    assert linalg.det(empty) == f25.mid_one()


def test_det_repeated_row(f25):
    m = mid_mat(f25, [[1, 2], [1, 2]])
    assert not linalg.det(m)


def test_det_multiplicative(f25, f2401):
    """det(AB) = det A * det B at both levels, a singular A (a repeated
    row) included."""
    rng = random.Random(21)
    for tower in (f25, f2401):
        for level in (MID, TOP):
            for n in (2, 3, 4, 6):
                a, b = (Mat.from_rows([[_rand_elem(tower, level, rng) for _ in range(n)]
                                       for _ in range(n)]) for _ in range(2))
                singular = Mat.from_rows(a.entries[:1] + a.entries[:-1])
                for left in (a, singular):
                    assert linalg.det(left @ b) == linalg.det(left) * linalg.det(b)
                assert not linalg.det(singular)


def test_det_requires_square(f25):
    with pytest.raises(NotSquareError):
        linalg.det(mid_mat(f25, [[1, 2, 3], [4, 0, 1]]))


# ---------------------------------------------------------------- rank / kernel


def _nullity(m):
    """dim ker m, as meet_dim counts it: the whole space meets ker m in it."""
    return linalg.meet_dim(hull_reference.identity(m.tower, m.level, m.cols), m)


def test_rank_kernel_zero_matrix(f25):
    m = mid_mat(f25, [[0, 0], [0, 0]])
    assert linalg.rank(m) == 0 and _nullity(m) == 2


def test_rank_kernel_invertible(f25):
    m = mid_mat(f25, [[4, 1], [1, 3]])
    assert linalg.rank(m) == 2 and _nullity(m) == 0


def test_rank_nullity_random(f169):
    rng = random.Random(22)
    for _ in range(20):
        m = rand_mid_mat(f169, rng, 3, 5)
        rank, ker = hull_reference.rank_kernel(m)
        assert linalg.rank(m) == rank
        assert rank + _nullity(m) == 5 == rank + ker.dim
        for krow in ker.basis.entries:
            for mrow in m.entries:
                acc = f169.mid_zero()
                for a, b in zip(mrow, krow):
                    acc = acc + a * b
                assert not acc


def _leibniz_det(m):
    """Sum over permutations of sign * product: no elimination at all."""
    tower, n = m.tower, m.rows
    acc = tower.zero(m.level)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = tower.one(m.level)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def _draw_elem(data, tower, level):
    width = tower.m * (tower.r if level == TOP else 1)
    d = data.draw(st.lists(st.integers(0, tower.p - 1), min_size=width, max_size=width))
    if level == MID:
        return tower.mid(d)
    return tower.top([d[i * tower.m:(i + 1) * tower.m] for i in range(tower.r)])


def _draw_mat(data, tower, level, rows_n, cols, pool=(), combine=False):
    """A rows_n x cols matrix at ``level`` whose rows are drawn at random,
    zero, repeating an earlier row, or, when ``pool`` is given, from it; with
    ``combine`` a row may also be a combination of two earlier rows, so
    that the rank falls short without a repeated row."""
    def elem():
        return _draw_elem(data, tower, level)

    kinds = ["random", "zero", "repeat"] + (["pool"] if pool else [])
    kinds += ["combine"] if combine else []
    rows = []
    for _ in range(rows_n):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "pool":
            rows.append(list(data.draw(st.sampled_from(pool))))
        elif kind == "combine" and rows:
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            c = elem()
            rows.append([x + c * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([tower.zero(level)] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(data.draw(st.sampled_from(rows))))
        else:
            rows.append([elem() for _ in range(cols)])
    return Mat.from_rows(rows, tower=tower, level=level, cols=cols)


@pytest.mark.parametrize("level", [MID, TOP])
@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2), (4, 4)])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_matches_rref_rank(f81, level, shape, data):
    """The echelon pivot count equals the rank of the reference RREF on
    elements, and meet_dim counts the dimension of the reference kernel,
    with rank + kernel dimension = cols, at both levels of q = 9 (m = 2), on
    rows drawn at random, zero, or repeating an earlier row.  On square
    shapes det is nonzero exactly at full rank and equals the Leibniz sum."""
    rows_n, cols = shape
    m = _draw_mat(data, f81, level, rows_n, cols)
    rank, ker = hull_reference.rank_kernel(m)
    assert linalg.rank(m) == rank == linalg.rank(hull_reference.transpose(m))
    assert _nullity(m) == ker.dim == cols - rank
    if rows_n == cols:
        det = linalg.det(m)
        assert bool(det) == (rank == cols)
        assert det == _leibniz_det(m)


@pytest.mark.parametrize("level", [MID, TOP])
@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (2, 1, 4), (4, 2, 3)])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_meet_dim_matches_reference_intersection(f81, level, shape, data):
    """meet_dim(rows, pairing) equals the dimension of the reference
    intersection of rowspace(rows) with the reference kernel of pairing, at
    both levels of q = 9 (m = 2), in square and rectangular shapes
    (rows x cols and pairing rows x cols), on random, zero and repeated
    rows.  Rows may also be reference kernel vectors, so that the
    intersection is nonzero often at both levels."""
    rows_n, pairing_n, cols = shape
    pairing = _draw_mat(data, f81, level, pairing_n, cols)
    _, kernel = hull_reference.rank_kernel(pairing)
    rows = _draw_mat(data, f81, level, rows_n, cols, kernel.basis.entries)
    assert linalg.meet_dim(rows, pairing) == hull_reference.meet_dim(rows, pairing)


@pytest.fixture(scope="module")
def kernel_towers(f81, f169):
    return {(3, 2, 2): f81, (13, 1, 2): f169, (5, 1, 3): FieldTower(5, 1, 3)}


@pytest.mark.parametrize("level", [MID, TOP])
@pytest.mark.parametrize("shape", [(3, 2, 2), (13, 1, 2), (5, 1, 3)])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_coordinate_kernels_match_elem_reference(kernel_towers, shape, level, data):
    """det, rank, schur_residual and the matrix sum and product, which
    compute on raw coordinates, and meet_dim, whose stacked rank runs on
    the element operators, agree with the reference elimination and
    products on elements, at both levels of three towers (m = 2, a large
    prime field, r = 3), on square and rectangular matrices whose rows are
    random, zero, repeated or combinations of earlier rows."""
    tower = kernel_towers[shape]
    n = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    a = _draw_mat(data, tower, level, n, n, combine=True)
    b = _draw_mat(data, tower, level, n, n, combine=True)
    rect = _draw_mat(data, tower, level, n, cols, combine=True)
    assert linalg.det(a) == hull_reference.det(a)
    assert linalg.rank(rect) == hull_reference.rank_kernel(rect)[0]
    assert a + b == hull_reference.add(a, b)
    assert a @ rect == hull_reference.matmul(a, rect)

    pairing = _draw_mat(data, tower, level, data.draw(st.integers(0, 3)), cols, combine=True)
    _, kernel = hull_reference.rank_kernel(pairing)
    rows = _draw_mat(data, tower, level, n, cols, kernel.basis.entries, combine=True)
    assert linalg.meet_dim(rows, pairing) == hull_reference.meet_dim(rows, pairing)

    lead = Mat.from_rows([row[: n - 1] for row in a.entries[: n - 1]],
                         tower=tower, level=level, cols=n - 1)
    if hull_reference.det(lead):
        assert linalg.schur_residual(a) == hull_reference.schur_residual(a)
    else:
        with pytest.raises(SingularLeadingBlockError):
            linalg.schur_residual(a)


@pytest.fixture(scope="module")
def coordinate_towers(f81):
    """(3, 2, 2) as the products left it, and a twin with F_9 and F_81 on
    their exp/log tables."""
    twin = FieldTower(3, 2, 2)
    for level in (MID, TOP):
        ops = twin.coord_ops(level)
        for _ in range(ops.size - 1):
            ops.mul(ops.one, ops.one)
    return {"products": f81, "tables": twin}


@pytest.mark.parametrize("level", [MID, TOP])
@pytest.mark.parametrize("arithmetic", ["products", "tables"])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_matrices_of_coordinates_match_matrices_of_elements(
        coordinate_towers, arithmetic, level, data):
    """A matrix built from coordinates (Mat._of_coords, which builds no
    element until its entries are read) equals, and hashes as, the matrix
    built from the same elements, reads back the same entries and text, and
    agrees on +, @, det, rank and meet_dim with the reference on elements,
    at both levels of (3, 2, 2), with and without tables.  The same
    coordinates at the other level or in another tower compare unequal."""
    tower = coordinate_towers[arithmetic]
    twin = coordinate_towers["tables" if arithmetic == "products" else "products"]
    n = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    a = _draw_mat(data, tower, level, n, n, combine=True)
    rect = _draw_mat(data, tower, level, n, cols, combine=True)
    pairing = _draw_mat(data, tower, level, data.draw(st.integers(0, 3)), cols, combine=True)
    _, kernel = hull_reference.rank_kernel(pairing)
    rows = _draw_mat(data, tower, level, n, cols, kernel.basis.entries, combine=True)

    def of_coords(m, tower=tower, level=level):
        return Mat._of_coords(tower, level, m.cols, [list(row) for row in m.coords])

    ca, crect, cpairing, crows = map(of_coords, (a, rect, pairing, rows))
    for m, c in ((a, ca), (rect, crect), (pairing, cpairing), (rows, crows)):
        assert c == m and hash(c) == hash(m)
        assert c.entries == m.entries and c.to_lists() == m.to_lists()
        assert c != of_coords(m, level=TOP if level == MID else MID)
        assert c != of_coords(m, tower=twin)
    assert ca + ca == hull_reference.add(a, a)
    assert ca @ crect == hull_reference.matmul(a, rect)
    assert linalg.det(ca) == hull_reference.det(a)
    assert linalg.rank(crect) == hull_reference.rank_kernel(rect)[0]
    assert linalg.meet_dim(crows, cpairing) == hull_reference.meet_dim(rows, pairing)


def test_kernels_make_no_elem_arithmetic(f81, forbidden):
    """With every arithmetic operator of Elem made to raise, the kernels
    still run at both levels of q = 9, and return what the Elem reference
    returns with the operators in place.  meet_dim is the exception: its
    stacked rank still runs on the element operators, so it is checked
    outside."""
    rng = random.Random(27)
    ops = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__")
    for level in (MID, TOP):
        units = [e for e in (f81.mid_elements() if level == MID else f81.top_elements()) if e]
        rand = lambda rows, cols: Mat.from_rows(
            [[rng.choice(units) for _ in range(cols)] for _ in range(rows)],
            tower=f81, level=level, cols=cols)
        a = rand(4, 4)
        while not hull_reference.det(a) or not hull_reference.det(
            Mat.from_rows([r[:3] for r in a.entries[:3]], tower=f81, level=level, cols=3)
        ):
            a = rand(4, 4)
        low = Mat.from_rows(a.entries + rand(1, 4).entries)  # 5 x 4, rank 4
        pairing = Mat.from_rows(list(low.entries[:2]), tower=f81, level=level, cols=4)
        with forbidden(Elem, *ops):
            with pytest.raises(AssertionError):
                a[0, 0] * a[0, 0]
            got = [
                linalg.det(a),
                linalg.rank(low),
                linalg.rank(hull_reference.transpose(low)),
                linalg.schur_residual(a),
                a + a,
                low @ a,
            ]
        assert linalg.meet_dim(low, pairing) == hull_reference.meet_dim(low, pairing)
        assert got == [
            hull_reference.det(a),
            hull_reference.rank_kernel(low)[0],
            hull_reference.rank_kernel(hull_reference.transpose(low))[0],
            hull_reference.schur_residual(a),
            hull_reference.add(a, a),
            hull_reference.matmul(low, a),
        ]


def test_kernels_reject_entries_of_another_level(f81, forbidden):
    """The kernels compute on raw coordinates, which cannot tell levels or
    towers apart, so a matrix refuses an entry from another level or
    another tower (equal or not) with LevelMismatchError when it is built,
    before any arithmetic: no kernel ever sees mixed entries."""
    twin = FieldTower(3, 2, 2)
    one = f81.mid(1)
    ops = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__")
    for stray in (f81.top(1), twin.mid(1)):
        with forbidden(Elem, *ops):
            with pytest.raises(LevelMismatchError):
                Mat.from_rows([[one, stray], [one, one]])
    with pytest.raises(LevelMismatchError):
        hull_reference.identity(f81, MID, 2) + hull_reference.identity(f81, TOP, 2)


def test_matrices_refuse_a_stray_entry_anywhere(f81):
    """Mat(...) and Mat.from_rows check every entry, not only the first:
    an entry of the other level or of another tower, in any row and column,
    is refused with LevelMismatchError.  Sums and products refuse an
    operand from another tower or level, whatever their shapes."""
    twin = FieldTower(3, 2, 2)
    for level in (MID, TOP):
        one = f81.one(level)
        other = TOP if level == MID else MID
        for stray in (f81.one(other), twin.one(level)):
            for i, j in itertools.product(range(3), repeat=2):
                rows = [[stray if (s, t) == (i, j) else one for t in range(3)] for s in range(3)]
                with pytest.raises(LevelMismatchError):
                    Mat(f81, level, 3, 3, rows)
                with pytest.raises(LevelMismatchError):
                    Mat.from_rows(rows)
                with pytest.raises(LevelMismatchError):
                    Mat.from_rows(rows, tower=f81, level=level, cols=3)
        square = hull_reference.identity(f81, level, 2)
        for foreign in (hull_reference.identity(f81, other, 2),
                        hull_reference.identity(twin, level, 2)):
            for call in (lambda a, b: a + b, lambda a, b: a @ b):
                with pytest.raises(LevelMismatchError):
                    call(square, foreign)
                with pytest.raises(LevelMismatchError):
                    call(foreign, square)


def test_span_rejects_rows_of_another_width(f81):
    """A matrix, whose row space the kernels span, refuses a row shorter or
    longer than its declared width, even one whose extra entries are zero."""
    one, zero = f81.mid(1), f81.mid(0)
    for rows in ([[one, zero]], [[one, zero, zero, zero]], [[one, zero, one], [one]]):
        with pytest.raises(ValueError, match="declared shape"):
            Mat(f81, MID, len(rows), 3, rows)
    assert linalg.rank(Mat(f81, MID, 1, 3, [[one, zero, one]])) == 1


def test_from_rows_checks_the_shape_it_is_given(f81):
    """from_rows reads tower, level and width off the first row; any of
    them also given must agree, or the call raises instead of returning a
    matrix of another shape or level."""
    one, zero = f81.mid(1), f81.mid(0)
    with pytest.raises(ValueError, match="width 2"):
        Mat.from_rows([[one, zero]], tower=f81, level=MID, cols=3)
    with pytest.raises(LevelMismatchError):
        Mat.from_rows([[one, zero]], tower=f81, level=TOP, cols=2)
    with pytest.raises(LevelMismatchError):
        Mat.from_rows([[one, zero]], tower=FieldTower(3, 2, 2), level=MID, cols=2)
    given = Mat.from_rows([[one, zero]], tower=f81, level=MID, cols=2)
    assert given == Mat.from_rows([[one, zero]]) == Mat(f81, MID, 1, 2, [[one, zero]])
    assert Mat.from_rows([], tower=f81, level=TOP, cols=3).cols == 3


# ---------------------------------------------------------------- distance walk


def _hamming(word):
    return sum(1 for c in word if c)


def _counting(weight):
    """A weight function that also records every weight it returns."""
    calls = []

    def counted(word):
        calls.append(weight(word))
        return calls[-1]

    return counted, calls


def _words(tower, rows):
    return [[tower.mid(v) for v in row] for row in rows]


def test_min_weight_stops_at_floor(f25):
    """The walk stops at the first word whose weight reaches the floor; with
    floor 0, which no nonzero word reaches, it weighs all 124 words."""
    words = _words(f25, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 4]])
    counted, walk = _counting(_hamming)
    full = linalg.min_weight(words, 5, counted, 125, floor=0)
    assert len(walk) == 124 and full == min(walk) == 1
    for floor in range(1, 5):
        counted, calls = _counting(_hamming)
        got = linalg.min_weight(words, 5, counted, 125, floor=floor)
        stop = next((i for i, w in enumerate(walk) if w <= floor), len(walk) - 1)
        assert calls == walk[: stop + 1], floor
        assert got == min(calls), floor
    assert len(calls) == 1  # floor 4: the first word already weighs 4


def test_min_weight_guard_precedes_walk(f25):
    words = _words(f25, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 4]])
    counted, calls = _counting(_hamming)
    with pytest.raises(TooLargeError, match=r"^enumerating 125 codewords exceeds the guard 124$"):
        linalg.min_weight(words, 5, counted, 124, floor=4)
    assert calls == []


def test_min_weight_rejects_empty_basis():
    with pytest.raises(BadParamsError, match="empty basis"):
        linalg.min_weight([], 5, len, 10)


def test_min_weight_floor_one_is_the_least_weight(f25, f81):
    """Floor 1, the default, returns the least weight over every nonzero
    combination, enumerated here coefficient vector by coefficient vector."""
    rng = random.Random(25)
    for tower in (f25, f81):
        mids = list(tower.mid_elements())
        for n in (1, 2, 3):
            for _ in range(4):
                words = [[rng.choice(mids) for _ in range(4)] for _ in range(n)]
                expected = min(
                    _hamming([sum((tower.mid(c) * w[j] for c, w in zip(coef, words)),
                                  tower.mid_zero()) for j in range(4)])
                    for coef in itertools.product(range(tower.p), repeat=n)
                    if any(coef)
                )
                size = tower.p ** n
                assert linalg.min_weight(words, tower.p, _hamming, size) == expected
                assert linalg.min_weight(words, tower.p, _hamming, size, floor=1) == expected


# ---------------------------------------------------------------- intersection


def test_intersect_self(f25):
    basis = mid_mat(f25, [[1, 0, 0, 0], [0, 1, 0, 0]])
    s = hull_reference.span(basis.entries, f25, MID, 4)
    assert hull_reference.intersect(s, s).basis == s.basis


def test_intersect_complementary(f25):
    a = hull_reference.span(
        mid_mat(f25, [[1, 0, 0, 0], [0, 1, 0, 0]]).entries, f25, MID, 4
    )
    b = hull_reference.span(
        mid_mat(f25, [[0, 0, 1, 0], [0, 0, 0, 1]]).entries, f25, MID, 4
    )
    assert hull_reference.intersect(a, b).dim == 0


def test_intersection_dimension_formula(f169):
    rng = random.Random(23)
    for _ in range(20):
        a = hull_reference.span(
            rand_mid_mat(f169, rng, rng.randint(1, 4), 6).entries, f169, MID, 6
        )
        b = hull_reference.span(
            rand_mid_mat(f169, rng, rng.randint(1, 4), 6).entries, f169, MID, 6
        )
        inter = hull_reference.intersect(a, b)
        total = hull_reference.subspace_sum(a, b)
        assert a.dim + b.dim == inter.dim + total.dim
        for row in inter.basis.entries:
            assert hull_reference.contains(a, row) and hull_reference.contains(b, row)


def test_intersect_ambient_mismatch(f25):
    a = hull_reference.span([], f25, MID, 3)
    b = hull_reference.span([], f25, MID, 4)
    with pytest.raises(AmbientMismatchError):
        hull_reference.intersect(a, b)
    with pytest.raises(AmbientMismatchError):
        linalg.meet_dim(a.basis, b.basis)


# ---------------------------------------------------------------- Schur residual


def test_schur_diag(f25):
    for c in range(5):
        h = mid_mat(f25, [[1, 0], [0, c]])
        assert linalg.schur_residual(h) == f25.mid(c)


def test_schur_degenerate_one_by_one(f25):
    for c in range(5):
        assert linalg.schur_residual(mid_mat(f25, [[c]])) == f25.mid(c)


def test_schur_times_det_leading_equals_det(f169):
    rng = random.Random(24)
    done = 0
    while done < 20:
        h = rand_mid_mat(f169, rng, 3, 3)
        lead = Mat.from_rows(
            [row[:2] for row in h.entries[:2]], tower=f169, level=MID, cols=2
        )
        if not linalg.det(lead):
            continue
        assert linalg.schur_residual(h) * linalg.det(lead) == linalg.det(h)
        done += 1


def test_schur_singular_leading_block(f25):
    h = mid_mat(f25, [[0, 0, 1], [0, 0, 2], [1, 2, 3]])
    with pytest.raises(SingularLeadingBlockError):
        linalg.schur_residual(h)
