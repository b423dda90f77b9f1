"""Twisted polynomial ring, quotient reduction, evaluation, sum-rank weight."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hull_reference
import skew_reference
from sumrank import linalg
from sumrank.errors import BadParamsError, BlockOutOfRangeError, LevelMismatchError
from sumrank.fields import MID, Elem, FieldTower
from sumrank.skew import (
    QuotientCtx,
    SkewPoly,
    ThetaPoly,
    build_h_lambda,
    evaluate_at_point,
)

# (p, m, r) and ell of the property tests: m = 2 and r = 3 included
PROPERTY_SHAPES = [((5, 1, 2), 4), ((3, 2, 2), 2), ((5, 1, 3), 2), ((7, 1, 3), 3)]


def rand_skew(tower, rng, max_deg):
    return SkewPoly(
        tower,
        [
            tower.top([[rng.randrange(tower.p) for _ in range(tower.m)] for _ in range(tower.r)])
            for _ in range(max_deg + 1)
        ],
    )


@pytest.fixture(scope="module")
def ctx25(f25):
    return QuotientCtx.build(f25, 2)


# ---------------------------------------------------------------- ring structure


def test_twist_rule_on_u(f25):
    u_poly = SkewPoly(f25, [f25.top([0, 1])])
    x = SkewPoly.monomial(f25, f25.top_one(), 1)
    # X * u = theta(u) X = (4u) X
    assert x * u_poly == SkewPoly(f25, [f25.top_zero(), f25.top([0, 4])])
    # X^2 * u = u X^2 since theta^2 = id
    x2 = SkewPoly.monomial(f25, f25.top_one(), 2)
    assert x2 * u_poly == SkewPoly.monomial(f25, f25.top([0, 1]), 2)


def test_twist_rule_all_scalars(f25):
    x = SkewPoly.monomial(f25, f25.top_one(), 1)
    for a in f25.top_elements():
        lhs = x * SkewPoly(f25, [a])
        rhs = SkewPoly(f25, [f25.top_zero(), f25.frobenius(a, 1)])
        assert lhs == rhs


def test_one_is_identity(f25):
    rng = random.Random(31)
    one = SkewPoly.one(f25)
    for _ in range(20):
        f = rand_skew(f25, rng, 4)
        assert f * one == f
        assert one * f == f


def test_ring_axioms_random(f25):
    rng = random.Random(32)
    for _ in range(25):
        f, g, h = (rand_skew(f25, rng, 3) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


# ---------------------------------------------------------------- modulus


def test_h_lambda_golden(f25, ctx25):
    # independent oracle: commutative product over F_5 in Y = X^2
    # (Y - 1)(Y - 4) = Y^2 - 5Y + 4 = Y^2 + 4  ->  X^4 + 4
    expected = SkewPoly(
        f25, [f25.top(4), f25.top(0), f25.top(0), f25.top(0), f25.top(1)]
    )
    assert ctx25.h_lambda == expected


def test_h_lambda_single_factor(f25):
    h = build_h_lambda(f25, f25.subgroup_lambda(1))
    assert h == SkewPoly(f25, [f25.top(4), f25.top(0), f25.top(1)])  # X^2 - 1


def test_h_lambda_commutative_oracle(f169):
    # coefficients must match the ordinary polynomial prod (Y - lambda_i)
    for ell in (2, 3, 4):
        lams = f169.subgroup_lambda(ell)
        ypoly = [f169.mid_one()]
        for lam in lams:
            nxt = [-(lam * ypoly[0])]
            for i in range(1, len(ypoly)):
                nxt.append(ypoly[i - 1] - lam * ypoly[i])
            nxt.append(ypoly[-1])
            ypoly = nxt
        h = build_h_lambda(f169, lams)
        assert h.degree == 2 * ell
        for i, c in enumerate(h.coeffs):
            assert f169.in_mid_subfield(c)
            expect = ypoly[i // 2] if i % 2 == 0 else f169.mid_zero()
            assert f169.as_mid(c) == expect


def test_h_lambda_factor_order_irrelevant(f25):
    lams = f25.subgroup_lambda(2)
    assert build_h_lambda(f25, lams) == build_h_lambda(f25, tuple(reversed(lams)))


def test_h_lambda_central(f25, ctx25):
    rng = random.Random(33)
    for _ in range(10):
        f = rand_skew(f25, rng, 3)
        assert ctx25.h_lambda * f == f * ctx25.h_lambda


def test_h_lambda_rejects_bad_points(f25):
    with pytest.raises(BadParamsError):
        build_h_lambda(f25, (f25.mid(1), f25.mid(1)))
    with pytest.raises(BadParamsError):
        build_h_lambda(f25, (f25.mid(0),))


# ---------------------------------------------------------------- reduction


def test_reduce_low_degree_fixed(f25, ctx25):
    rng = random.Random(34)
    for _ in range(10):
        f = rand_skew(f25, rng, 3)
        assert ctx25.reduce(f) == f


def test_reduce_modulus_to_zero(f25, ctx25):
    assert not ctx25.reduce(ctx25.h_lambda)


def test_reduce_x4(f25, ctx25):
    x4 = SkewPoly.monomial(f25, f25.top_one(), 4)
    assert ctx25.reduce(x4) == SkewPoly.one(f25)  # X^4 = -4 = 1 mod X^4+4


def test_reduce_is_congruent(f25, ctx25):
    # difference f - reduce(f) must be a left multiple of the modulus:
    # re-reducing it gives zero, and eval maps agree blockwise
    rng = random.Random(35)
    for _ in range(10):
        f = rand_skew(f25, rng, 7)
        red = ctx25.reduce(f)
        assert red.degree < ctx25.modulus_degree
        assert not ctx25.reduce(f - red)


def test_left_and_right_reduction_coincide(f25, ctx25):
    # centrality of the modulus makes remainder-on-the-left equal
    # remainder-on-the-right; right division is redone here from scratch
    rng = random.Random(42)
    h = ctx25.h_lambda
    d_mod = ctx25.modulus_degree
    for _ in range(15):
        f = rand_skew(f25, rng, 7)
        rem = list(f.coeffs)
        while len(rem) - 1 >= d_mod:
            k = len(rem) - 1 - d_mod
            # cancel the top term with H * (c X^k): the modulus degree is a
            # multiple of r, so c = theta^(-deg H)(lead) is the lead itself
            c = f25.frobenius(rem[-1], (-d_mod) % 2)
            for j, hj in enumerate(h.coeffs):
                if hj:
                    rem[k + j] = rem[k + j] - hj * f25.frobenius(c, j)
            rem.pop()
            while rem and not rem[-1]:
                rem.pop()
        assert SkewPoly(f25, rem) == ctx25.reduce(f)


# ---------------------------------------------------------------- evaluation


def test_evaluate_constant(f25, ctx25):
    c = f25.parse_top("3+2u")
    out = ctx25.evaluate(SkewPoly(f25, [c]), 1)
    assert out.coeffs == (c, f25.top_zero())


def test_evaluate_x_gives_alpha_theta(f25, ctx25):
    x = SkewPoly.monomial(f25, f25.top_one(), 1)
    for i in (1, 2):
        out = ctx25.evaluate(x, i)
        assert out.coeffs == (f25.top_zero(), ctx25.alphas[i - 1])


def test_evaluate_block_powers_give_subgroup_powers(f25, ctx25):
    # X^(j*r) acts on block i as multiplication by lambda_i^j
    for j in (1, 2, 3):
        f = SkewPoly.monomial(f25, f25.top_one(), 2 * j)
        for i in (1, 2):
            out = ctx25.evaluate(ctx25.reduce(f), i)
            lam_pow = ctx25.lambdas[i - 1] ** j
            assert out.coeffs == (f25.top(lam_pow), f25.top_zero())


def test_evaluate_block_range(f25, ctx25):
    with pytest.raises(BlockOutOfRangeError):
        ctx25.evaluate(SkewPoly.one(f25), 3)


def test_eval_map_zero_and_one(f25, ctx25):
    zeros = ctx25.eval_map(SkewPoly.zero(f25))
    assert all(not t for t in zeros)
    ones = ctx25.eval_map(SkewPoly.one(f25))
    assert all(t == ThetaPoly(f25, [f25.top_one(), f25.top_zero()]) for t in ones)


def test_eval_map_kills_modulus_multiples(f25, ctx25):
    rng = random.Random(36)
    for _ in range(10):
        f = rand_skew(f25, rng, 3)
        image = ctx25.eval_map(ctx25.h_lambda * f)
        assert all(not t for t in image)


def test_unreduced_evaluation_kills_ideal(f25, ctx25):
    # evaluate is a ring hom on the whole twisted ring, so it must vanish
    # on multiples of the modulus without any reduction step in between
    rng = random.Random(41)
    for _ in range(10):
        f = rand_skew(f25, rng, 3)
        for i in (1, 2):
            assert not ctx25.evaluate(ctx25.h_lambda * f, i)
            assert not ctx25.evaluate(f * ctx25.h_lambda, i)


def test_evaluation_constant_on_residue_classes(f25, ctx25):
    rng = random.Random(43)
    for _ in range(10):
        f = rand_skew(f25, rng, 7)
        red = ctx25.reduce(f)
        for i in (1, 2):
            assert ctx25.evaluate(f, i) == ctx25.evaluate(red, i)


def test_eval_map_multiplicative(f25, ctx25):
    rng = random.Random(37)
    for _ in range(100):
        f = rand_skew(f25, rng, 3)
        g = rand_skew(f25, rng, 3)
        lhs = ctx25.eval_map(f * g)
        pf, pg = ctx25.eval_map(f), ctx25.eval_map(g)
        for l, a, b in zip(lhs, pf, pg):
            assert l == a.compose(b)


def test_eval_map_bijective_on_basis(f25, ctx25):
    rows = [[c for t in ctx25.eval_map(b) for c in skew_reference.coords_mid(t)]
            for b in skew_reference.ambient_basis(ctx25)]
    mat = linalg.Mat.from_rows(rows, tower=f25, level=MID, cols=ctx25.ambient_dim)
    assert linalg.rank(mat) == ctx25.ambient_dim == 8


# ---------------------------------------------------------------- theta polys


def test_compose_matches_matrix_product(f25):
    rng = random.Random(38)
    for _ in range(25):
        a = ThetaPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(2)]
        )
        b = ThetaPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(2)]
        )
        assert a.compose(b).matrix() == a.matrix() @ b.matrix()


def _rank(t):
    """Rank of the K-linear map of a theta-polynomial (0..r)."""
    return linalg.rank(t.matrix())


def _weight(ctx, f):
    """Sum-rank weight of f: the ranks of its block values, summed."""
    return sum(_rank(t) for t in ctx.eval_map(f))


def test_theta_rank_golden(f25):
    assert _rank(ThetaPoly(f25, [f25.top_one(), f25.top_zero()])) == 2
    # theta - 1 kills exactly F_q
    tm1 = ThetaPoly(f25, [f25.top(4), f25.top_one()])
    assert _rank(tm1) == 1
    for c in f25.mid_units():
        scaled = ThetaPoly(f25, [f25.top(c), f25.top_zero()])
        assert _rank(scaled) == 2


def test_theta_rank_nullity(f25):
    rng = random.Random(39)
    for _ in range(25):
        t = ThetaPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(2)]
        )
        rank, ker = hull_reference.rank_kernel(t.matrix())
        assert _rank(t) == rank == 2 - ker.dim


# ---------------------------------------------------------------- sum-rank weight


def test_weight_zero_vector(f25, ctx25):
    assert _weight(ctx25, SkewPoly.zero(f25)) == 0


def test_weight_identity_blocks(f25, ctx25):
    # 1 evaluates to the identity on every block
    assert _weight(ctx25, SkewPoly.one(f25)) == 4


def test_vector_serialization(f25, ctx25):
    x = SkewPoly.monomial(f25, f25.top_one(), 1)
    rows = [[str(c) for c in t.coeffs] for t in ctx25.eval_map(x)]
    assert rows == [["0+0u", "1+0u"], ["0+0u", "1+1u"]]


def test_weight_positive_definite(f25, ctx25):
    rng = random.Random(40)
    for _ in range(40):
        f = rand_skew(f25, rng, 3)
        w = _weight(ctx25, f)
        assert (w == 0) == (not ctx25.reduce(f))
        assert 0 <= w <= 4


@functools.lru_cache(maxsize=None)
def _linearity_ctx(shape, ell):
    return QuotientCtx.build(FieldTower(*shape), ell)


def _top_from_index(tower, index):
    digits = [(index // tower.p**i) % tower.p for i in range(tower.m * tower.r)]
    return tower.top([digits[t * tower.m : (t + 1) * tower.m] for t in range(tower.r)])


@pytest.mark.parametrize("shape,ell", PROPERTY_SHAPES)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_eval_map_is_fq_linear(shape, ell, data):
    """eval_map(c f + g) = c eval_map(f) + eval_map(g) blockwise for c in
    F_q; both polynomials have degree >= ell*r, so reduction takes part."""
    ctx = _linearity_ctx(shape, ell)
    tower = ctx.tower
    n = ctx.modulus_degree

    def poly():
        degree = data.draw(st.integers(n, n + 2 * tower.r))
        body = data.draw(
            st.lists(st.integers(0, tower.top_order - 1), min_size=degree, max_size=degree)
        )
        lead = data.draw(st.integers(1, tower.top_order - 1))
        return SkewPoly(tower, [_top_from_index(tower, i) for i in body + [lead]])

    f, g = poly(), poly()
    digits = st.lists(st.integers(0, tower.p - 1), min_size=tower.m, max_size=tower.m)
    c = tower.top(tower.mid(data.draw(digits)))
    combined = ctx.eval_map(SkewPoly(tower, [c]) * f + g)
    for got, a, b in zip(combined, ctx.eval_map(f), ctx.eval_map(g)):
        assert got == ThetaPoly(tower, [c * x + y for x, y in zip(a.coeffs, b.coeffs)])


# ---------------------------------------------------------------- properties


def _draw_poly(data, tower, max_degree):
    body = data.draw(st.lists(st.integers(0, tower.top_order - 1), max_size=max_degree + 1))
    return SkewPoly(tower, [_top_from_index(tower, i) for i in body])


def _draw_theta(data, tower):
    body = data.draw(st.lists(
        st.integers(0, tower.top_order - 1), min_size=tower.r, max_size=tower.r))
    return ThetaPoly(tower, [_top_from_index(tower, i) for i in body])


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=20, deadline=None)


@pytest.mark.parametrize("shape,ell", PROPERTY_SHAPES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_skew_products_associate_and_distribute(shape, ell, data):
    tower = _linearity_ctx(shape, ell).tower
    f, g, h = (_draw_poly(data, tower, 2 * tower.r) for _ in range(3))
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@pytest.mark.parametrize("shape,ell", PROPERTY_SHAPES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_h_lambda_is_central(shape, ell, data):
    ctx = _linearity_ctx(shape, ell)
    f = _draw_poly(data, ctx.tower, ctx.modulus_degree + ctx.tower.r)
    assert ctx.h_lambda * f == f * ctx.h_lambda


@pytest.mark.parametrize("shape,ell", PROPERTY_SHAPES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_reduce_is_idempotent_and_kills_the_modulus(shape, ell, data):
    ctx = _linearity_ctx(shape, ell)
    n = ctx.modulus_degree
    f, g = (_draw_poly(data, ctx.tower, n + 2 * ctx.tower.r) for _ in range(2))
    red = ctx.reduce(f)
    assert red.degree < n
    assert ctx.reduce(red) == red
    assert not ctx.reduce(ctx.h_lambda * g)
    assert ctx.reduce(f + g * ctx.h_lambda) == red


@pytest.mark.parametrize("shape,ell", PROPERTY_SHAPES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_eval_map_is_multiplicative(shape, ell, data):
    ctx = _linearity_ctx(shape, ell)
    f, g = (_draw_poly(data, ctx.tower, ctx.modulus_degree + ctx.tower.r) for _ in range(2))
    for got, a, b in zip(ctx.eval_map(f * g), ctx.eval_map(f), ctx.eval_map(g)):
        assert got == a.compose(b)


@pytest.mark.parametrize("shape,ell", PROPERTY_SHAPES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_compose_matrix_is_the_matrix_product(shape, ell, data):
    tower = _linearity_ctx(shape, ell).tower
    a, b = _draw_theta(data, tower), _draw_theta(data, tower)
    assert a.compose(b).matrix() == a.matrix() @ b.matrix()


# (p, m, r) and ell of every class of the tlrs-certify benchmark (the
# towers of tests/test_tlrs.py's CERTIFY_CLASSES, every ell | q - 1 up to
# the class's largest) and of the property tests
BLOCK_SHAPES = sorted({*PROPERTY_SHAPES, *(
    (shape, ell)
    for shape, max_ell in (((5, 1, 2), 4), ((3, 2, 2), 4), ((13, 1, 2), 4), ((5, 1, 3), 4),
                           ((7, 1, 3), 3))
    for ell in range(1, max_ell + 1)
    if (shape[0] ** shape[1] - 1) % ell == 0
)})


@pytest.mark.parametrize("shape,ell", BLOCK_SHAPES)
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_block_matrices_match_the_reference(shape, ell, data):
    """The block matrices of a residue, from the coordinate evaluation and
    matrix kernels, are the reference's: the element-operator reduction,
    evaluation at each point and matrix of each value.  Polynomials reach
    past the modulus degree, so reduction takes part."""
    ctx = _linearity_ctx(shape, ell)
    f = _draw_poly(data, ctx.tower, ctx.modulus_degree + ctx.tower.r)
    expected = [skew_reference.matrix(t) for t in skew_reference.eval_map(ctx, f)]
    assert ctx.block_matrices(f) == expected
    assert [t.matrix() for t in ctx.eval_map(f)] == expected


# ---------------------------------------------------------------- coordinate kernels


def test_skew_kernels_make_no_elem_arithmetic(forbidden):
    """With every arithmetic operator of Elem made to raise, the product,
    reduction, evaluation, composition and block matrices still run, and
    return what the element-operator reference returns, on every property
    shape: operands above the modulus degree, so reduction takes part."""
    rng = random.Random(44)
    ops = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__")
    for shape, ell in PROPERTY_SHAPES:
        ctx = _linearity_ctx(shape, ell)
        tower = ctx.tower
        n = ctx.modulus_degree
        f, g = rand_skew(tower, rng, n + 1), rand_skew(tower, rng, n - 1)
        alpha = _top_from_index(tower, rng.randrange(1, tower.top_order))
        a, b = (ThetaPoly(tower, [_top_from_index(tower, rng.randrange(tower.top_order))
                                  for _ in range(tower.r)]) for _ in range(2))
        h_lambda = SkewPoly.one(tower)
        for lam in ctx.lambdas:
            factor = SkewPoly(tower, [-tower.top(lam)] + [0] * (tower.r - 1) + [1])
            h_lambda = skew_reference.mul(h_lambda, factor)
        expected = [
            skew_reference.mul(f, g),
            skew_reference.reduce(ctx, f),
            skew_reference.eval_map(ctx, f),
            skew_reference.evaluate_at_point(f, ctx.alphas[-1]),
            skew_reference.evaluate_at_point(g, alpha),
            skew_reference.matrix(a),
            skew_reference.compose(a, b),
            h_lambda,
            [skew_reference.matrix(t) for t in skew_reference.eval_map(ctx, f)],
        ]
        with forbidden(Elem, *ops):
            with pytest.raises(AssertionError):
                alpha * alpha
            got = [
                f * g,
                ctx.reduce(f),
                list(ctx.eval_map(f)),
                ctx.evaluate(f, ell),
                evaluate_at_point(g, alpha),
                a.matrix(),
                a.compose(b),
                build_h_lambda(tower, ctx.lambdas),
                ctx.block_matrices(f),
            ]
        assert got == expected, shape


def test_kernels_refuse_operands_of_another_tower(f25, f169):
    """Mixing F_25 and F_169 operands raises LevelMismatchError, as the
    element operators do, although both towers have p prime and r = 2."""
    ctx25 = QuotientCtx.build(f25, 2)
    ctx169 = QuotientCtx.build(f169, 2)
    f = SkewPoly(f25, [f25.top([1, 2]), f25.top([3, 1])])
    g = SkewPoly(f169, [f169.top([1, 2]), f169.top([3, 1])])
    s = ThetaPoly(f25, [f25.top([1, 2]), f25.top([3, 1])])
    t = ThetaPoly(f169, [f169.top([1, 2]), f169.top([3, 1])])
    calls = [
        lambda: f * g,
        lambda: g * f,
        lambda: s.compose(t),
        lambda: t.compose(s),
        lambda: ctx25.reduce(g),
        lambda: ctx25.reduce(ctx169.h_lambda * g),
        lambda: ctx25.eval_map(g),
        lambda: ctx25.block_matrices(g),
        lambda: ctx169.evaluate(f, 1),
        lambda: evaluate_at_point(f, f169.top([1, 1])),
        lambda: evaluate_at_point(f, f25.mid(2)),
    ]
    for call in calls:
        with pytest.raises(LevelMismatchError):
            call()
