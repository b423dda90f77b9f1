"""Tower arithmetic: golden values over F_25/F_5 plus structural properties."""

import itertools
import random

import pytest

from sumrank import fields
from sumrank.errors import (
    BadTowerError,
    LevelMismatchError,
    NotADivisorError,
    ZeroInputError,
)
from sumrank.fields import MID, FieldTower


def rand_top(tower, rng):
    return tower.top(
        [[rng.randrange(tower.p) for _ in range(tower.m)] for _ in range(tower.r)]
    )


# ---------------------------------------------------------------- arithmetic


# (p, m, r): default base_modulus, top_modulus, generator_of_units
DEFAULT_MODELS = {
    (5, 1, 2): ([0, 1], [[3], [0], [1]], [2]),
    (13, 1, 2): ([0, 1], [[11], [0], [1]], [2]),
    (17, 1, 2): ([0, 1], [[14], [0], [1]], [3]),
    (3, 2, 2): ([1, 0, 1], [[2, 2], [0, 0], [1, 0]], [1, 1]),
    (3, 2, 3): ([1, 0, 1], [[0, 1], [0, 0], [0, 1], [1, 0]], [1, 1]),
    (7, 2, 2): ([4, 0, 1], [[6, 6], [0, 0], [1, 0]], [1, 1]),
    (5, 1, 3): ([0, 1], [[1], [0], [1], [1]], [2]),
    (7, 1, 3): ([0, 1], [[5], [0], [0], [1]], [3]),
    (2, 3, 2): ([1, 0, 1, 1], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [0, 0, 1]),
    (3, 4, 3): ([1, 0, 1, 1, 1], [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
                [0, 0, 1, 1]),
}


def test_pinned_quadratic_model(f25):
    # default modulus gives u^2 = 2 over F_5
    assert [list(c) for c in f25.top_modulus] == [[3], [0], [1]]
    u = f25.top([0, 1])
    assert u * u == f25.top(2)
    for (p, m, r), expected in DEFAULT_MODELS.items():
        d = FieldTower(p, m, r).to_dict()
        got = (d["base_modulus"], d["top_modulus"], d["generator_of_units"])
        assert got == expected, (p, m, r)


def test_binomial_closed_form_matches_rabin():
    """x^d - a is irreducible by Lidl-Niederreiter Thm 3.75 exactly when the
    Rabin test says so, for every nonzero a and d = 2..4 over F_3, F_5,
    F_7, F_8, F_9 and F_13."""
    verdicts = set()
    for p, m in ((3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1)):
        ops = FieldTower(p, m, 1).coord_ops(MID)
        for a in itertools.product(range(p), repeat=m):
            if a == ops.zero:
                continue
            for d in (2, 3, 4):
                binomial = [ops.neg(a)] + [ops.zero] * (d - 1) + [ops.one]
                closed = fields._binomial_is_irreducible(ops, a, d)
                assert closed == fields._poly_is_irreducible(ops, binomial), (p, m, a, d)
                verdicts.add(closed)
    assert verdicts == {False, True}


def test_default_moduli_need_few_rabin_tests(monkeypatch):
    """FieldTower(3, 4, 3) Rabin-tests only 9 polynomials: the base quartic's
    5 fallback candidates with nonzero constant term, the top cubic's 2
    (no binomial x^3 - a is irreducible over F_81, since 3 does not divide
    80), and each modulus once more when the tower validates it."""
    real = fields._poly_is_irreducible
    calls = []

    def counted(ops, f):
        calls.append(len(f) - 1)
        return real(ops, f)

    monkeypatch.setattr(fields, "_poly_is_irreducible", counted)
    FieldTower(3, 4, 3)
    assert calls == [4] * 6 + [3] * 3


def test_square_of_two_plus_u(f25):
    eta = f25.parse_top("2+1u")
    assert eta * eta == f25.parse_top("1+4u")


def test_multiplicative_identity(f25):
    rng = random.Random(7)
    one = f25.top_one()
    for _ in range(25):
        a = rand_top(f25, rng)
        assert a * one == a
        assert a + f25.top_zero() == a
        assert a - a == f25.top_zero()


def test_division_and_inverse(f25):
    rng = random.Random(8)
    for _ in range(25):
        a = rand_top(f25, rng)
        if not a:
            continue
        assert (a / a) == f25.top_one()
        assert a * a**-1 == f25.top_one()
    with pytest.raises(ZeroDivisionError):
        f25.top_one() / f25.top_zero()


def test_level_mismatch_rejected(f25):
    with pytest.raises(LevelMismatchError):
        f25.top_one() + f25.mid_one()


def test_field_axioms_random(f25, f81):
    rng = random.Random(9)
    for tower in (f25, f81):
        for _ in range(30):
            a, b, c = (rand_top(tower, rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a * b == b * a


# ---------------------------------------------------------------- frobenius


def test_frobenius_of_u(f25):
    u = f25.top([0, 1])
    assert f25.frobenius(u, 1) == f25.top([0, 4])


def test_frobenius_fixes_base_and_has_order_r(f25):
    rng = random.Random(10)
    for c in f25.mid_elements():
        emb = f25.top(c)
        for h in range(4):
            assert f25.frobenius(emb, h) == emb
    for _ in range(20):
        x = rand_top(f25, rng)
        assert f25.frobenius(x, 2) == x


def test_frobenius_is_ring_hom(f25, f81):
    rng = random.Random(11)
    for tower in (f25, f81):
        for _ in range(20):
            x, y = rand_top(tower, rng), rand_top(tower, rng)
            fx, fy = tower.frobenius(x, 1), tower.frobenius(y, 1)
            assert tower.frobenius(x + y, 1) == fx + fy
            assert tower.frobenius(x * y, 1) == fx * fy


# ---------------------------------------------------------------- trace / norm


def test_trace_golden_values(f25):
    u = f25.top([0, 1])
    assert f25.trace(f25.top_one()) == f25.mid(2)
    assert f25.trace(u) == f25.mid_zero()
    assert f25.trace(u * u) == f25.mid(4)


def test_norm_of_one(f25):
    assert f25.norm(f25.top_one()) == f25.mid_one()


def test_trace_linear_and_frobenius_invariant(f25, f81):
    rng = random.Random(12)
    for tower in (f25, f81):
        for _ in range(25):
            x, y = rand_top(tower, rng), rand_top(tower, rng)
            h = rng.randrange(tower.r)
            assert tower.trace(x + y) == tower.trace(x) + tower.trace(y)
            assert tower.trace(tower.frobenius(x, h)) == tower.trace(x)
            assert tower.norm(x * y) == tower.norm(x) * tower.norm(y)


def test_trace_equals_matrix_trace(f25, f81):
    # independent route: trace of the multiplication-by-x matrix over F_q
    rng = random.Random(13)
    for tower in (f25, f81):
        r = tower.r
        basis = [tower.top([0] * t + [1] + [0] * (r - 1 - t)) for t in range(r)]
        for _ in range(15):
            x = rand_top(tower, rng)
            diag = tower.mid_zero()
            for t, b in enumerate(basis):
                image = x * b
                diag = diag + tower.mid(list(image.coords[t]))
            assert diag == tower.trace(x)


# ---------------------------------------------------------------- norm preimages


def test_norm_preimage_of_one_is_one(f25):
    assert f25.norm_preimage(f25.mid_one()) == f25.top_one()


def test_norm_preimage_roundtrip_exhaustive(f25, f169):
    for tower in (f25, f169):
        for lam in tower.mid_units():
            alpha = tower.norm_preimage(lam)
            assert tower.norm(alpha) == lam
            # alpha * theta(alpha) is the norm for r = 2
            assert tower.as_mid(alpha * tower.frobenius(alpha, 1)) == lam


def test_norm_preimage_rejects_zero(f25):
    with pytest.raises(ZeroInputError):
        f25.norm_preimage(f25.mid_zero())


# ---------------------------------------------------------------- squares


def test_is_square_golden(f25):
    assert f25.is_square(f25.mid(4))  # -1 is a square since q = 1 mod 4
    assert f25.is_square(f25.mid_one())
    assert not f25.is_square(f25.mid(2))
    assert not f25.is_square(f25.mid(3))


def test_is_square_matches_squaring_table(f25, f169, f81, f2401):
    for tower in (f25, f169, f81, f2401):
        squares = {(x * x).coords for x in tower.mid_units()}
        for x in tower.mid_units():
            assert tower.is_square(x) == (x.coords in squares)


def test_is_square_rejects_zero(f25):
    with pytest.raises(ZeroInputError):
        f25.is_square(f25.mid_zero())


# ---------------------------------------------------------------- skew unit


def test_skew_unit_golden(f25):
    alpha = f25.skew_unit()
    assert alpha == f25.top([0, 1])  # u itself: u^5 = 4u = -u
    assert f25.frobenius(alpha, 1) == -alpha


def test_skew_unit_square_is_nonsquare_in_base(f25, f169, f81):
    for tower in (f25, f169, f81):
        alpha = tower.skew_unit()
        alpha_sq = tower.as_mid(alpha * alpha)  # lands in F_q
        assert not tower.is_square(alpha_sq)
        # norm = alpha^(q+1) = -alpha^2, also a nonsquare
        assert tower.norm(alpha) == -alpha_sq
        assert not tower.is_square(tower.norm(alpha))


def test_skew_unit_needs_quadratic_tower():
    tower = FieldTower(5, 1, 1)
    with pytest.raises(BadTowerError):
        tower.skew_unit()


# ---------------------------------------------------------------- subgroups


def test_subgroup_order_two(f25):
    assert [str(x) for x in f25.subgroup_lambda(2)] == ["1", "4"]


def test_subgroup_trivial(f25):
    assert f25.subgroup_lambda(1) == (f25.mid_one(),)


def test_subgroup_full(f25):
    lams = f25.subgroup_lambda(4)
    g = f25.generator_of_units
    assert lams == (f25.mid_one(), g, g * g, g * g * g)
    assert len({x.coords for x in lams}) == 4
    prod = f25.mid_one()
    for x in lams:
        prod = prod * x
    assert f25.multiplicative_order(prod) in (1, 2, 4)
    # closure under multiplication
    members = {x.coords for x in lams}
    for a in lams:
        for b in lams:
            assert (a * b).coords in members


def test_subgroup_requires_divisor(f25):
    with pytest.raises(NotADivisorError):
        f25.subgroup_lambda(3)


# ---------------------------------------------------------------- encoding


def test_text_roundtrip(f25):
    for text in ("2+1u", "0+1u", "3+0u", "4+4u"):
        assert str(f25.parse_top(text)) == text
    assert f25.parse_top("[2,1]") == f25.parse_top("2+1u")
    assert f25.parse_top("u") == f25.top([0, 1])
    assert f25.parse_top("4u") == f25.top([0, 4])
    assert f25.parse_top("3") == f25.top(3)


def test_tower_descriptor_roundtrip(f25, f81):
    for tower in (f25, f81):
        clone = FieldTower.from_dict(tower.to_dict())
        assert clone.to_dict() == tower.to_dict()


def test_rejects_reducible_modulus():
    with pytest.raises(BadTowerError):
        FieldTower(5, 1, 2, top_modulus=[[4], [0], [1]])  # x^2 - 1 splits
    with pytest.raises(BadTowerError):
        FieldTower(4, 1, 2)  # 4 is not prime
