"""Tower arithmetic: golden values over F_25/F_5 plus structural properties."""

import itertools
import random
import re

import pytest

from sumrank import fields
from sumrank.errors import (
    BadTowerError,
    LevelMismatchError,
    NotADivisorError,
    ZeroInputError,
)
from sumrank.fields import MID, TOP, FieldTower


def rand_mid(tower, rng):
    return tower.mid([rng.randrange(tower.p) for _ in range(tower.m)])


def rand_top(tower, rng):
    return tower.top([rand_mid(tower, rng) for _ in range(tower.r)])


def tabulated(tower, level):
    """Whether the level multiplies through its exp/log tables."""
    return "_tabulate" in tower.coord_ops(level).mul.__qualname__


def make_products(tower, level, count):
    ops = tower.coord_ops(level)
    for _ in range(count):
        ops.mul(ops.one, ops.one)


def tabulate(tower, levels=(MID, TOP)):
    """The tower after each of the levels has made as many products as it
    has units: those with tables use them from then on."""
    for level in levels:
        make_products(tower, level, tower.coord_ops(level).size - 1)
    return tower


@pytest.fixture(scope="module")
def towers(f25, f81):
    """The towers of the property tests: F_25 and F_81 (r = 2), and r = 1,
    r = 3, and m = 2 with r = 3; and F_81 again with both levels on tables."""
    return (f25, f81, FieldTower(5, 1, 1), FieldTower(13, 1, 3), FieldTower(3, 2, 3),
            tabulate(FieldTower(3, 2, 2)))


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
    with pytest.raises(LevelMismatchError, match="^operands live at 'top' and 'mid'$"):
        f25.top_one() + f25.mid_one()
    # a tower built alike is still another tower, whatever the levels
    twin = FieldTower(5, 1, 2)
    for a, b in ((f25.top(1), twin.top(1)), (f25.mid(2), twin.mid(2)), (f25.top(1), twin.mid(1))):
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            with pytest.raises(LevelMismatchError, match="^operands belong to different towers$"):
                getattr(a, op)(b)


def test_field_axioms_random(towers):
    rng = random.Random(9)
    for tower in towers:
        for _ in range(30):
            for rand in (rand_mid, rand_top):
                a, b, c = (rand(tower, rng) for _ in range(3))
                zero, one = tower.zero(a.level), tower.one(a.level)
                assert (a + b) + c == a + (b + c) and a + b == b + a
                assert a + zero == a and a + (-a) == zero and a - b == a + (-b)
                assert (a + b) * c == a * c + b * c
                assert a * (b * c) == (a * b) * c
                assert a * b == b * a and a * one == a
                if a:
                    assert a * a**-1 == one and (b / a) * a == b


# ---------------------------------------------------------------- exp/log tables


# (p, m, r, level): every level with tables in the perfbench towers, the
# cubic towers over F_5, F_7 and F_9, and the F_81 of FieldTower(3, 4, 3)
TABLE_LEVELS = [(5, 1, 2, TOP), (3, 2, 2, MID), (3, 2, 2, TOP), (13, 1, 2, TOP),
                (17, 1, 2, TOP), (5, 1, 3, TOP), (7, 1, 3, TOP), (3, 2, 3, MID),
                (3, 2, 3, TOP), (3, 4, 3, MID)]


@pytest.mark.parametrize("p, m, r, level", TABLE_LEVELS)
def test_tables_match_the_convolution(p, m, r, level):
    """Table products (every pair up to 128 elements, else 6,000 seeded
    pairs), inverses (every unit) and theta^h (every h, every element)
    equal the convolution's, FieldTower._top_mul and _mid_mul, and the
    coordinate Frobenius route."""
    tower = tabulate(FieldTower(p, m, r), [level])
    assert tabulated(tower, level)
    ops = tower.coord_ops(level)
    conv = tower._top_mul if level == TOP else tower._mid_mul
    elems = [x.coords for x in (tower.top_elements() if level == TOP else tower.mid_elements())]
    if len(elems) <= 128:
        pairs = itertools.product(elems, repeat=2)
    else:
        rng = random.Random(f"tables {p} {m} {r}")
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(6000)]
    for a, b in pairs:
        assert ops.mul(a, b) == conv(a, b), (a, b)
    for a in elems[1:]:
        assert conv(a, ops.inv(a)) == ops.one, a
    with pytest.raises(ZeroDivisionError):
        ops.inv(ops.zero)
    if level == TOP:
        for x in elems:
            for h in range(-r, 2 * r):
                assert tower._theta(x, h) == FieldTower._theta(tower, x, h), (x, h)


def test_a_tower_builds_no_table_until_it_multiplies():
    """A fresh tower has no table, and constructing the q = 13 and 17
    quadratic towers (with their skew units) and F_729 over F_9 builds none."""
    fresh = [FieldTower(5, 1, 2), FieldTower(13, 1, 2), FieldTower(17, 1, 2),
             FieldTower(3, 2, 3)]
    for tower in fresh[1:3]:
        tower.skew_unit()
    for tower in fresh:
        assert not tabulated(tower, MID) and not tabulated(tower, TOP), tower


@pytest.mark.parametrize("p, m, r, level", [(5, 1, 2, TOP), (3, 2, 2, MID), (3, 2, 2, TOP)])
def test_a_level_tabulates_at_its_nth_product(p, m, r, level):
    tower = FieldTower(p, m, r)
    n = tower.coord_ops(level).size - 1
    make_products(tower, level, n - 1)
    assert not tabulated(tower, level)
    make_products(tower, level, 1)
    assert tabulated(tower, level)


def test_a_product_cached_before_the_build_stays_correct(monkeypatch):
    """A caller that took ops.mul before the tables existed builds them, once,
    at the n-th product, and multiplies correctly before and after."""
    builds = []
    real = FieldTower._tabulate
    monkeypatch.setattr(FieldTower, "_tabulate",
                        lambda self, level, *a: builds.append(level) or real(self, level, *a))
    tower = FieldTower(7, 1, 3)
    mul = tower.coord_ops(TOP).mul
    rng = random.Random(12)
    for i in range(3 * (tower.top_order - 1)):
        a, b = rand_top(tower, rng).coords, rand_top(tower, rng).coords
        assert mul(a, b) == tower._top_mul(a, b), i
    assert tabulated(tower, TOP) and mul is not tower.coord_ops(TOP).mul
    assert builds == [TOP]


def test_large_tops_keep_the_convolution():
    """FieldTower(3, 4, 3)'s top field has 3^12 elements, above the table
    bound: it never tabulates and multiplies on the convolution, while its
    F_81 does tabulate."""
    tower = FieldTower(3, 4, 3)
    rng = random.Random(13)
    ops = tower.coord_ops(TOP)
    for _ in range(200):
        a, b = rand_top(tower, rng).coords, rand_top(tower, rng).coords
        assert ops.mul(a, b) == tower._top_mul(a, b)
    assert ops.mul == tower._top_mul and not tabulated(tower, TOP)
    assert tabulated(tower, MID)


# ---------------------------------------------------------------- frobenius


def test_frobenius_of_u(f25):
    u = f25.top([0, 1])
    assert f25.frobenius(u, 1) == f25.top([0, 4])


def test_frobenius_fixes_base_and_has_order_r(towers):
    """theta fixes F_q, theta^r is the identity, and no smaller power is:
    theta^h moves u, a root of the degree-r top modulus, for 0 < h < r."""
    rng = random.Random(10)
    for tower in towers:
        r = tower.r
        for c in tower.mid_elements():
            emb = tower.top(c)
            for h in range(2 * r):
                assert tower.frobenius(emb, h) == emb
        u = tower.top([int(t == 1) for t in range(r)])
        for h in range(1, r):
            assert tower.frobenius(u, h) != u
        for _ in range(20):
            x = rand_top(tower, rng)
            assert tower.frobenius(x, r) == x
            for h in range(1, r):
                assert tower.frobenius(tower.frobenius(x, h), r - h) == x


def test_frobenius_is_ring_hom(towers):
    rng = random.Random(11)
    for tower in towers:
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


def test_trace_linear_and_frobenius_invariant(towers):
    rng = random.Random(12)
    for tower in towers:
        for _ in range(25):
            x, y, c = rand_top(tower, rng), rand_top(tower, rng), rand_mid(tower, rng)
            h = rng.randrange(tower.r)
            assert tower.trace(tower.top(c) * x + y) == c * tower.trace(x) + tower.trace(y)
            assert tower.trace(tower.frobenius(x, h)) == tower.trace(x)
            assert tower.norm(x * y) == tower.norm(x) * tower.norm(y)


def test_trace_equals_matrix_trace(towers):
    # independent route: trace of the multiplication-by-x matrix over F_q
    rng = random.Random(13)
    for tower in towers:
        r = tower.r
        basis = [tower.top([0] * t + [1] + [0] * (r - 1 - t)) for t in range(r)]
        for _ in range(15):
            x = rand_top(tower, rng)
            diag = tower.mid_zero()
            for t, b in enumerate(basis):
                image = x * b
                diag = diag + tower.mid(list(image.coords[t]))
            assert diag == tower.trace(x)


def _frobenius_sum_trace(tower, x):
    """Reference: Tr(x) as the sum of the r Frobenius images of x."""
    acc = x
    for h in range(1, tower.r):
        acc = acc + tower.frobenius(x, h)
    return tower.as_mid(acc)


def _frobenius_product_norm(tower, x):
    """Reference: N(x) as the product of the r Frobenius images of x."""
    acc = x
    for h in range(1, tower.r):
        acc = acc * tower.frobenius(x, h)
    return tower.as_mid(acc)


def test_trace_and_norm_match_their_frobenius_references(towers):
    """The coordinate trace (sum_t x_t Tr(u^t)) and the norm over the
    coordinate Frobenius images equal the element-operator sum and
    product of the r images, on every element of every tower."""
    for tower in towers:
        for x in tower.top_elements():
            assert tower.trace(x) == _frobenius_sum_trace(tower, x), (tower, x)
            assert tower.norm(x) == _frobenius_product_norm(tower, x), (tower, x)


@pytest.mark.parametrize("name, given, wanted", [("trace", MID, TOP), ("norm", MID, TOP),
                                                  ("multiplicative_order", TOP, MID)])
def test_structure_maps_refuse_the_other_level(towers, name, given, wanted):
    """trace and norm act on L and multiplicative_order on F_q; an element
    of the other level is refused at every r, also at r = 1, where both
    levels are the same field."""
    for tower in towers:
        with pytest.raises(LevelMismatchError, match=f"{name} acts on {wanted}-level elements"):
            getattr(tower, name)(tower.one(given))


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


@pytest.mark.parametrize("args, top_modulus", [
    ((5, 1, 2), None), ((13, 1, 2), None), ((17, 1, 2), None), ((3, 2, 2), None),
    ((17, 1, 2), (3, 1, 1)),  # u^2 + u + 3: the norm form has a cross term
])
def test_quadratic_norm_preimage_is_the_scans_least(args, top_modulus):
    """At r = 2 the preimage solved by square roots is the least element of
    L, in canonical order, that the scan over L finds."""
    tower = FieldTower(*args, top_modulus=top_modulus)
    for lam in tower.mid_units():
        least = next(c for c in tower.top_units() if tower.norm(c) == lam)
        assert tower.norm_preimage(lam) == least, (args, lam)


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


def _naive_order(tower, x):
    """Reference: the least n >= 1 with x^n = 1, by repeated products."""
    order, acc = 1, x
    while acc != tower.mid_one():
        acc, order = acc * x, order + 1
    return order


def test_multiplicative_order_matches_naive_loop(towers, f2401):
    """The order found by stripping the prime factors of q - 1 equals the
    product loop's on every unit of F_q, for q = 5, 8, 9, 13 and 49; the
    zero element has order 0."""
    for tower in (*towers, FieldTower(2, 3, 1), f2401):
        for x in tower.mid_units():
            assert tower.multiplicative_order(x) == _naive_order(tower, x), (tower, x)
        assert tower.multiplicative_order(tower.mid_zero()) == 0


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
    # every element's text parses back for m = 1 (r = 1 and r = 3), and
    # every nested [..] list of F_q coordinate lists for m = 2
    for tower in (FieldTower(5, 1, 1), FieldTower(5, 1, 3)):
        for x in tower.top_elements():
            assert tower.parse_top(str(x)) == x, str(x)
    f9 = FieldTower(3, 2, 2)
    for x in f9.top_elements():
        text = "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in x.coords) + "]"
        assert f9.parse_top(text) == x, text


def test_tower_descriptor_roundtrip(f25, f81):
    for tower in (f25, f81):
        clone = FieldTower(**tower.to_dict())
        assert clone.to_dict() == tower.to_dict()


def test_rejects_reducible_modulus():
    with pytest.raises(BadTowerError):
        FieldTower(5, 1, 2, top_modulus=[[4], [0], [1]])  # x^2 - 1 splits
    with pytest.raises(BadTowerError):
        FieldTower(4, 1, 2)  # 4 is not prime


def test_parse_top_signed_terms(f25):
    assert f25.parse_top("3-2u") == f25.top([3, 3])
    assert f25.parse_top("-u") == f25.top([0, 4])
    assert f25.parse_top("+2u") == f25.top([0, 2])
    assert f25.parse_top("u^0") == f25.top(1)
    assert f25.parse_top("2u+3u") == f25.top(0)
    assert f25.parse_top("-2-3u^1") == f25.top([3, 2])


def test_parse_top_names_the_text_of_an_empty_term(f25):
    """A term the text leaves empty is an error naming the text, not a term
    silently dropped or a complaint about an empty integer."""
    for text in ("1+", "1++2u", "+", "-", "", "1-", "1+u^", "+-2u", "1+2u^-1", "2u3", "u^2"):
        with pytest.raises(ValueError, match=re.escape(f"element {text!r}")):
            f25.parse_top(text)
