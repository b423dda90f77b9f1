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
    NotSquareError,
    SingularLeadingBlockError,
    TooLargeError,
)
from sumrank.fields import MID, TOP
from sumrank.linalg import Mat, Subspace


def mid_mat(tower, rows):
    return Mat.from_rows(
        [[tower.mid(v) for v in row] for row in rows],
        tower=tower,
        level=MID,
        cols=len(rows[0]),
    )


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
    assert linalg.det(Mat.identity(f25, MID, 3)) == f25.mid_one()
    empty = Mat.from_rows([], tower=f25, level=MID, cols=0)
    assert linalg.det(empty) == f25.mid_one()


def test_det_repeated_row(f25):
    m = mid_mat(f25, [[1, 2], [1, 2]])
    assert not linalg.det(m)


def test_det_multiplicative(f25, f2401):
    rng = random.Random(21)
    for tower in (f25, f2401):
        for n in (2, 3, 4, 6):
            a = rand_mid_mat(tower, rng, n, n)
            b = rand_mid_mat(tower, rng, n, n)
            assert linalg.det(a @ b) == linalg.det(a) * linalg.det(b)


def test_det_requires_square(f25):
    with pytest.raises(NotSquareError):
        linalg.det(mid_mat(f25, [[1, 2, 3], [4, 0, 1]]))


# ---------------------------------------------------------------- rank / kernel


def test_rank_kernel_zero_matrix(f25):
    m = Mat.zeros(f25, MID, 2, 2)
    rank, ker = linalg.rank_kernel(m)
    assert rank == 0 and ker.dim == 2


def test_rank_kernel_invertible(f25):
    rank, ker = linalg.rank_kernel(mid_mat(f25, [[4, 1], [1, 3]]))
    assert rank == 2 and ker.dim == 0


def test_rank_nullity_random(f169):
    rng = random.Random(22)
    for _ in range(20):
        m = rand_mid_mat(f169, rng, 3, 5)
        rank, ker = linalg.rank_kernel(m)
        assert rank + ker.dim == 5
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


def _draw_mat(data, tower, level, rows_n, cols, pool=()):
    """A rows_n x cols matrix at ``level`` whose rows are drawn at random,
    zero, repeating an earlier row, or, when ``pool`` is given, from it."""
    width = tower.m * (tower.r if level == TOP else 1)
    digits = st.lists(st.integers(0, tower.p - 1), min_size=width, max_size=width)

    def elem():
        d = data.draw(digits)
        if level == MID:
            return tower.mid(d)
        return tower.top([d[i * tower.m:(i + 1) * tower.m] for i in range(tower.r)])

    kinds = ["random", "zero", "repeat"] + (["pool"] if pool else [])
    rows = []
    for _ in range(rows_n):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "pool":
            rows.append(list(data.draw(st.sampled_from(pool))))
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
    """The echelon pivot count equals the RREF rank of rank_kernel, with
    rank + kernel dimension = cols, at both levels of q = 9 (m = 2), on rows
    drawn at random, zero, or repeating an earlier row.  On square shapes
    det is nonzero exactly at full rank and equals the Leibniz sum."""
    rows_n, cols = shape
    m = _draw_mat(data, f81, level, rows_n, cols)
    rank, ker = linalg.rank_kernel(m)
    assert linalg.rank(m) == rank == linalg.rank(m.transpose())
    assert rank + ker.dim == cols
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
    s = Subspace.from_generators(basis.entries, f25, MID, 4)
    assert hull_reference.intersect(s, s).basis == s.basis


def test_intersect_complementary(f25):
    a = Subspace.from_generators(
        mid_mat(f25, [[1, 0, 0, 0], [0, 1, 0, 0]]).entries, f25, MID, 4
    )
    b = Subspace.from_generators(
        mid_mat(f25, [[0, 0, 1, 0], [0, 0, 0, 1]]).entries, f25, MID, 4
    )
    assert hull_reference.intersect(a, b).dim == 0


def test_intersection_dimension_formula(f169):
    rng = random.Random(23)
    for _ in range(20):
        a = Subspace.from_generators(
            rand_mid_mat(f169, rng, rng.randint(1, 4), 6).entries, f169, MID, 6
        )
        b = Subspace.from_generators(
            rand_mid_mat(f169, rng, rng.randint(1, 4), 6).entries, f169, MID, 6
        )
        inter = hull_reference.intersect(a, b)
        total = hull_reference.subspace_sum(a, b)
        assert a.dim + b.dim == inter.dim + total.dim
        for row in inter.basis.entries:
            assert a.contains(row) and b.contains(row)


def test_intersect_ambient_mismatch(f25):
    a = Subspace.from_generators([], f25, MID, 3)
    b = Subspace.from_generators([], f25, MID, 4)
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
