"""Twisted-code construction, Gram machinery, and double-routed LCD checks."""

import itertools
import random

import pytest

import hull_reference
from sumrank import linalg, tlrs
from sumrank.errors import BadParamsError, TooLargeError
from sumrank.fields import MID, Elem, FieldTower
from sumrank.skew import QuotientCtx, SkewPoly


# (p, m, r), k, largest ell of the tlrs-certify benchmark classes: every
# ell | q - 1 up to it with k <= ell*r - 1 is one class
CERTIFY_CLASSES = (
    ((5, 1, 2), 1, 4),
    ((5, 1, 2), 2, 2),
    ((3, 2, 2), 1, 4),
    ((13, 1, 2), 1, 4),
    ((5, 1, 3), 1, 4),
    ((7, 1, 3), 1, 3),
)


@pytest.fixture(scope="module")
def ctx25(f25):
    return QuotientCtx.build(f25, 2)


@pytest.fixture(scope="module")
def example_code(f25, ctx25):
    """The worked example: q=5, ell=2, k=1, h=0, eta=2+u."""
    return tlrs.build_code(tlrs.TlrsParams(ctx25, 1, 0, f25.parse_top("2+1u")))


# ---------------------------------------------------------------- construction


def test_example_basis(f25, example_code):
    eta = f25.parse_top("2+1u")
    u = f25.top([0, 1])
    expected = (
        SkewPoly(f25, [f25.top_one(), eta]),       # 1 + eta X
        SkewPoly(f25, [u, eta * u]),               # u + eta u X
    )
    assert example_code.basis_polys == expected


def test_k1_has_no_untwisted_rows(example_code):
    assert len(example_code.basis_polys) == 2  # just the r twisted rows


def test_code_dimension(f169):
    ctx = QuotientCtx.build(f169, 3)
    rng = random.Random(51)
    for k in (1, 2, 5):
        eta = f169.parse_top("1+1u")
        code = tlrs.build_code(tlrs.TlrsParams(ctx, k, 1, eta))
        assert len(code.basis_polys) == 2 * k
        space = hull_reference.code_subspace(code)
        assert space.dim == 2 * k


def test_membership_of_twisted_words(f25, ctx25, example_code):
    rng = random.Random(52)
    space = hull_reference.code_subspace(example_code)
    eta = example_code.params.eta
    for _ in range(10):
        f0 = f25.top([rng.randrange(5), rng.randrange(5)])
        word = SkewPoly(f25, [f0]) + SkewPoly.monomial(f25, eta * f0, 1)
        assert hull_reference.contains(space, hull_reference.coords_of(ctx25, word))


def test_param_validation(f25, ctx25):
    eta = f25.parse_top("2+1u")
    with pytest.raises(BadParamsError):
        tlrs.TlrsParams(ctx25, 0, 0, eta)
    even = FieldTower(2, 1, 2)
    with pytest.raises(BadParamsError):
        tlrs.TlrsParams(QuotientCtx.build(even, 1), 1, 0, even.top([1, 1]))
    with pytest.raises(BadParamsError):
        tlrs.TlrsParams(ctx25, 4, 0, eta)  # k = ell*r is out of scope
    with pytest.raises(BadParamsError):
        tlrs.TlrsParams(ctx25, 1, 2, eta)
    with pytest.raises(BadParamsError):
        tlrs.TlrsParams(ctx25, 1, 0, f25.top_zero())
    # an eta of a tower built alike is refused up front, not in build_code
    with pytest.raises(BadParamsError, match="must belong to the tower of the quotient context"):
        tlrs.TlrsParams(ctx25, 1, 0, FieldTower(5, 1, 2).parse_top("2+1u"))


def test_basis_polynomials_are_their_own_residues():
    """At the largest k = ell*r - 1, on every tower and length of the
    tlrs-certify classes and every h, each basis polynomial has degree
    below ell*r, so QuotientCtx.reduce hands it back as it is: gram and
    hull_oracle pair the basis polynomials without reducing them."""
    rng = random.Random(64)
    largest = {}
    for shape, _, max_ell in CERTIFY_CLASSES:
        largest[shape] = max(max_ell, largest.get(shape, 0))
    cases = 0
    for shape, max_ell in largest.items():
        tower = FieldTower(*shape)
        units = list(tower.top_units())
        for ell in range(1, max_ell + 1):
            if (tower.q - 1) % ell:
                continue
            ctx = QuotientCtx.build(tower, ell)
            k = ctx.modulus_degree - 1
            for h in range(tower.r):
                code = tlrs.build_code(tlrs.TlrsParams(ctx, k, h, rng.choice(units)))
                assert max(f.degree for f in code.basis_polys) == k
                assert all(ctx.reduce(f) is f for f in code.basis_polys), (shape, ell, h)
                cases += 1
    assert cases == 2 * 3 + 2 * 3 + 2 * 4 + 3 * 3 + 3 * 3


# ---------------------------------------------------------------- bilinear form


def form(f, g, ctx):
    """<F, G> = Tr(sum_i f_i g_i) on the reduced representatives, through
    the pairing that ``tlrs.gram`` computes its entries with."""
    tower = ctx.tower
    return Elem(tower, MID, tlrs._pairing(tower, ctx.reduce(f), ctx.reduce(g)))


def test_form_golden_entry(f25, ctx25, example_code):
    f, g = example_code.basis_polys
    # Tr(u(1 + eta^2)) = Tr(3 + 2u) = 1
    assert form(f, g, ctx25) == f25.mid(1)


def test_form_with_zero(f25, ctx25):
    rng = random.Random(53)
    zero = SkewPoly.zero(f25)
    for _ in range(5):
        f = SkewPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)]
        )
        assert not form(f, zero, ctx25)


def test_form_disjoint_monomials(f25, ctx25):
    for i in range(4):
        for j in range(4):
            xi = SkewPoly.monomial(f25, f25.top_one(), i)
            xj = SkewPoly.monomial(f25, f25.top_one(), j)
            value = form(xi, xj, ctx25)
            if i != j:
                assert not value
            else:
                assert value == f25.mid(2)  # Tr(1)


def test_form_symmetric_bilinear(f25, ctx25):
    rng = random.Random(54)
    for _ in range(15):
        f = SkewPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)]
        )
        g = SkewPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)]
        )
        h = SkewPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)]
        )
        assert form(f, g, ctx25) == form(g, f, ctx25)
        lhs = form(f + g, h, ctx25)
        assert lhs == form(f, h, ctx25) + form(g, h, ctx25)


def test_form_nondegenerate_on_ambient(f25, ctx25):
    assert linalg.det(hull_reference.form_matrix(ctx25))


def test_eval_side_form_is_experimental(f25, ctx25):
    """<1, 1> and <X, X> under the package's bilinear form over F_25."""
    one = SkewPoly.one(f25)
    x = SkewPoly.monomial(f25, f25.top_one(), 1)
    assert form(one, one, ctx25) == f25.mid(2)
    assert form(x, x, ctx25) == f25.mid(2)


# ---------------------------------------------------------------- Gram matrix


def test_example_gram(example_code):
    report = tlrs.gram(example_code, with_oracle=True)
    assert report.gram.to_lists() == [["4", "1"], ["1", "3"]]
    assert str(report.det_value) == "1"
    assert str(report.alpha_value) == "2+4u"
    assert report.lcd_by_criterion and report.lcd_by_oracle
    assert report.hull_dim == 0


def test_self_orthogonal_gram(f25, ctx25):
    code = tlrs.build_code(tlrs.TlrsParams(ctx25, 1, 0, f25.parse_top("2+0u")))
    report = tlrs.gram(code, with_oracle=True)
    assert report.gram.is_zero()
    assert not report.lcd_by_criterion and not report.lcd_by_oracle
    assert report.hull_dim == 2  # C inside its dual


def test_gram_block_assembly_matches_entrywise(f25, f169):
    rng = random.Random(55)
    for tower, ells in ((f25, (1, 2)), (f169, (2, 3))):
        for ell in ells:
            ctx = QuotientCtx.build(tower, ell)
            for _ in range(6):
                k = rng.randint(1, ctx.modulus_degree - 1)
                h = rng.randrange(tower.r)
                eta = tower.top([rng.randrange(tower.p), rng.randrange(tower.p)])
                if not eta:
                    continue
                code = tlrs.build_code(tlrs.TlrsParams(ctx, k, h, eta))
                report = tlrs.gram(code)
                assert hull_reference.gram_assembled(code) == report.gram
                assert hull_reference.is_symmetric(report.gram)
                det_blocks = (
                    linalg.det(report.m_block) ** (k - 1)
                    * linalg.det(report.b_block)
                )
                assert report.det_value == det_blocks


def test_gram_report_serializes(example_code):
    record = tlrs.gram(example_code, with_oracle=True).to_dict()
    assert record["schema"] == 1
    assert record["gram"] == [["4", "1"], ["1", "3"]]
    assert record["dual_dim"] == 6


# ---------------------------------------------------------------- criterion


def test_criterion_golden(f25, ctx25):
    mk = lambda eta: tlrs.TlrsParams(ctx25, 1, 0, eta)
    assert tlrs.lcd_criterion(mk(f25.parse_top("2+1u")))
    assert not tlrs.lcd_criterion(mk(f25.parse_top("2+0u")))
    assert tlrs.lcd_criterion(mk(f25.top([0, 1])))  # 1 + u^2 = 3 != 0


def test_criterion_ignores_k_and_h(f25, ctx25):
    for eta_text, expected in (("2+1u", True), ("2+0u", False), ("3+0u", False)):
        eta = f25.parse_top(eta_text)
        for k in (1, 2, 3):
            for h in (0, 1):
                assert tlrs.lcd_criterion(tlrs.TlrsParams(ctx25, k, h, eta)) == expected


# ---------------------------------------------------------------- duals and hulls


def test_dual_dimension(f25, ctx25, example_code):
    dual = hull_reference.dual_basis(example_code)
    assert dual.ambient_dim == 8
    assert dual.dim == 6  # ell r^2 - kr


def test_double_dual(f25, ctx25, example_code):
    code_space = hull_reference.code_subspace(example_code)
    dual = hull_reference.dual_basis(example_code)
    pairings = linalg.Mat.from_rows(
        dual.basis.entries, tower=f25, level=MID, cols=8
    ) @ hull_reference.form_matrix(ctx25)
    _, double = hull_reference.rank_kernel(pairings)
    assert double.basis == code_space.basis


def test_dual_of_zero_is_ambient(f25, ctx25):
    empty = linalg.Mat.from_rows([], tower=f25, level=MID, cols=8)
    pairings = empty @ hull_reference.form_matrix(ctx25)
    _, dual = hull_reference.rank_kernel(pairings)
    assert dual.dim == 8


def test_hull_example_values(f25, ctx25, example_code):
    assert tlrs.hull_oracle(example_code) == 0
    self_orth = tlrs.build_code(tlrs.TlrsParams(ctx25, 1, 0, f25.parse_top("2+0u")))
    assert tlrs.hull_oracle(self_orth) == 2


def test_code_plus_dual_fills_ambient_when_lcd(example_code):
    # trivial hull plus complementary dimensions means a direct sum
    code_space = hull_reference.code_subspace(example_code)
    dual = hull_reference.dual_basis(example_code)
    assert hull_reference.subspace_sum(code_space, dual).dim == 8


def test_hull_matches_criterion_eta_sweep(f25, ctx25):
    for eta in f25.top_units():
        params = tlrs.TlrsParams(ctx25, 1, 0, eta)
        hull = tlrs.hull_oracle(tlrs.build_code(params))
        assert (hull == 0) == tlrs.lcd_criterion(params)


def test_hull_oracle_matches_intersection_reference(f25, ctx25, forbidden):
    """The rank count of hull_oracle agrees with the reference intersection
    of the code with its dual on every class of the tlrs-certify benchmark
    with a random twist and h, on an eta^2 = -1 twist (hull > 0) wherever L
    has one, and on the self-orthogonal (5,1,2) eta = 2 code (hull 2).  The
    oracle never calls the Gram machinery of the criterion it checks."""
    rng = random.Random(61)
    cases = 0
    for shape, k, max_ell in CERTIFY_CLASSES:
        tower = FieldTower(*shape)
        units = list(tower.top_units())
        non_lcd = [e for e in units if not tower.top_one() + e * e]
        for ell in range(1, max_ell + 1):
            if (tower.q - 1) % ell or k > ell * tower.r - 1:
                continue
            ctx = QuotientCtx.build(tower, ell)
            for eta in [rng.choice(units)] + non_lcd[:1]:
                code = tlrs.build_code(tlrs.TlrsParams(ctx, k, rng.randrange(tower.r), eta))
                with forbidden(tlrs, "gram", "gram_blocks", "_pairing"):
                    hull = tlrs.hull_oracle(code)
                assert hull == hull_reference.tlrs_hull(code), (shape, k, ell, str(eta))
                assert hull > 0 or eta not in non_lcd
                cases += 1
    assert cases == 17 + 14  # (7,1,3) has no eta with eta^2 = -1
    self_orth = tlrs.build_code(tlrs.TlrsParams(ctx25, 1, 0, f25.parse_top("2+0u")))
    assert tlrs.hull_oracle(self_orth) == hull_reference.tlrs_hull(self_orth) == 2


def test_slot_sized_hull_matches_full_ambient_reference():
    """hull_oracle counts on the X-slots 0..D its basis residues occupy;
    the reference pairs the code with the dense form on all ell*r^2
    ambient coordinates.  They agree for every k < N = ell*r (so on
    every D from 1 to N - 1), every h, a random twist and each eta with
    eta^2 = -1, whose hull has dimension r."""
    rng = random.Random(63)
    cases = non_lcd_cases = 0
    for shape, ells in (((5, 1, 2), (2, 4)), ((3, 2, 2), (2,)), ((5, 1, 3), (2,)),
                        ((7, 1, 3), (2, 3))):
        tower = FieldTower(*shape)
        units = list(tower.top_units())
        non_lcd = [e for e in units if not tower.top_one() + e * e]
        for ell in ells:
            ctx = QuotientCtx.build(tower, ell)
            for k in range(1, ctx.modulus_degree):
                for h in range(tower.r):
                    for i, eta in enumerate([rng.choice(units)] + non_lcd):
                        params = tlrs.TlrsParams(ctx, k, h, eta)
                        code = tlrs.build_code(params)
                        hull = tlrs.hull_oracle(code)
                        case = (shape, ell, k, h, str(eta))
                        assert hull == hull_reference.tlrs_hull(code), case
                        assert hull == (0 if tlrs.lcd_criterion(params) else tower.r), case
                        cases += 1
                        non_lcd_cases += i > 0
    assert (cases, non_lcd_cases) == (162, 82)  # -1 is no square in F_7 or F_343


def test_dim_code_plus_dual(f25, f169):
    rng = random.Random(56)
    for tower, ell in ((f25, 2), (f169, 3)):
        ctx = QuotientCtx.build(tower, ell)
        for _ in range(5):
            k = rng.randint(1, ctx.modulus_degree - 1)
            eta = tower.top([rng.randrange(tower.p), rng.randrange(tower.p)])
            if not eta:
                continue
            code = tlrs.build_code(tlrs.TlrsParams(ctx, k, 0, eta))
            assert (
                hull_reference.code_subspace(code).dim + hull_reference.dual_basis(code).dim
                == ctx.ambient_dim
            )


# ---------------------------------------------------------------- distances


def test_example_min_distance(example_code):
    # exhaustive over the 24 nonzero codewords; meets ell*r - k + 1
    d = tlrs.min_sum_rank_distance(example_code)
    assert d == 4
    assert d == tlrs.sum_rank_singleton_bound(example_code.params)


def test_distance_guard(example_code):
    with pytest.raises(TooLargeError, match=r"^enumerating 25 codewords exceeds the guard 10$"):
        tlrs.min_sum_rank_distance(example_code, max_enumeration=10)


def test_distance_guard_trips_before_any_evaluation(example_code, forbidden):
    with forbidden(QuotientCtx, "eval_map", "evaluate", "block_matrices"):
        with pytest.raises(TooLargeError, match=r"^enumerating 25 codewords exceeds the guard 10$"):
            tlrs.min_sum_rank_distance(example_code, max_enumeration=10)


def test_walk_that_stops_at_its_first_word_evaluates_one_residue(monkeypatch):
    """At (5,1,2), ell = 4, k = 1 every code's first word already weighs
    the floor N - k = 7, so the walk stops there: of the kr = 2 basis
    residues only the first is evaluated (its block matrices built)."""
    tower = FieldTower(5, 1, 2)
    ctx = QuotientCtx.build(tower, 4)
    real, calls = QuotientCtx.block_matrices, []

    def counting(self, f):
        calls.append(f)
        return real(self, f)

    monkeypatch.setattr(QuotientCtx, "block_matrices", counting)
    for h in range(tower.r):
        for eta in tower.top_units():
            code = tlrs.build_code(tlrs.TlrsParams(ctx, 1, h, eta))
            assert tlrs.min_sum_rank_distance(code) == 7
            assert calls == [code.basis_polys[0]], (h, str(eta))
            calls.clear()


def _per_word_min_sum_rank_distance(code):
    """Reference: every nonzero message's codeword built as a SkewPoly,
    reduced, evaluated and weighed on its own, each block ranked through
    the reference RREF rather than the oracle's ``linalg.rank``."""
    params = code.params
    ctx = params.ctx
    tower = ctx.tower
    best = None
    for message in itertools.product(list(tower.top_elements()), repeat=params.k):
        if not any(message):
            continue
        twist = params.eta * tower.frobenius(message[0], params.h)
        f = SkewPoly(tower, list(message)) + SkewPoly.monomial(tower, twist, params.k)
        w = sum(hull_reference.rank_kernel(t.matrix())[0] for t in ctx.eval_map(f))
        if best is None or w < best:
            best = w
    return best


def test_min_sum_rank_distance_matches_per_word_reference():
    """The Gray walk over precomputed block images agrees with the per-word
    path on every class of the tlrs-certify benchmark (m = 2 and r = 3
    included, k = 2 at (5,1,2)), plus a non-LCD twist eta^2 = -1 at
    ell = 2 wherever L has one."""
    rng = random.Random(59)
    cases = 0
    for shape, k, max_ell in CERTIFY_CLASSES:
        tower = FieldTower(*shape)
        units = list(tower.top_units())
        non_lcd = [e for e in units if not tower.top_one() + e * e]
        for ell in range(1, max_ell + 1):
            if (tower.q - 1) % ell or k > ell * tower.r - 1:
                continue
            ctx = QuotientCtx.build(tower, ell)
            etas = [rng.choice(units)] + (non_lcd[:1] if ell == 2 else [])
            for eta in etas:
                params = tlrs.TlrsParams(ctx, k, rng.randrange(tower.r), eta)
                code = tlrs.build_code(params)
                expected = _per_word_min_sum_rank_distance(code)
                assert tlrs.min_sum_rank_distance(code) == expected, (shape, k, ell, str(eta))
                cases += 1
    assert cases == 17 + 5  # 17 classes; (7,1,3) has no eta with eta^2 = -1


def test_per_code_routes_match_their_references(monkeypatch):
    """On every class of the tlrs-certify benchmark, with a random twist and
    an eta^2 = -1 twist wherever L has one: the block images the distance
    oracle hands the walk, each built on first read, are word by word
    those of the per-word route
    (omega^s * b built, evaluated and turned into matrices); the Gram
    entries are the pairwise forms, and the closed-form blocks those of
    the element-operator reference."""
    rng = random.Random(62)
    real = linalg.min_weight
    seen = []

    def spy(words, *args, **kwargs):
        seen.append(words)
        return real(words, *args, **kwargs)

    monkeypatch.setattr(linalg, "min_weight", spy)
    cases = 0
    for shape, k, max_ell in CERTIFY_CLASSES:
        tower = FieldTower(*shape)
        units = list(tower.top_units())
        non_lcd = [e for e in units if not tower.top_one() + e * e]
        for ell in range(1, max_ell + 1):
            if (tower.q - 1) % ell or k > ell * tower.r - 1:
                continue
            ctx = QuotientCtx.build(tower, ell)
            for eta in [rng.choice(units)] + non_lcd[:1]:
                code = tlrs.build_code(tlrs.TlrsParams(ctx, k, rng.randrange(tower.r), eta))
                case = (shape, k, ell, str(eta))
                tlrs.min_sum_rank_distance(code)
                per_word = [[t.matrix() for t in ctx.eval_map(SkewPoly(tower, [w]) * b)]
                            for b in code.basis_polys for w in tower.mid_basis()]
                words = seen.pop()
                assert [words[i] for i in range(len(words))] == per_word, case
                report = tlrs.gram(code)
                for i, f in enumerate(code.basis_polys):
                    for j, g in enumerate(code.basis_polys):
                        assert report.gram[i, j] == hull_reference.lambda_form(f, g, ctx), case
                m_block, b_block, alpha = hull_reference.gram_blocks(code)
                assert (report.m_block, report.b_block, report.alpha_value) == (
                    m_block, b_block, alpha), case
                cases += 1
    assert cases == 17 + 14  # (7,1,3) has no eta with eta^2 = -1


def test_min_sum_rank_distance_needs_the_fq_span():
    """At q = 9 this code reaches its floor N - k = 2 only with coefficients
    outside F_3: a walk over the F_3-span of the code basis (the omega^0
    words alone) never gets below 4."""
    tower = FieldTower(3, 2, 2)
    ctx = QuotientCtx.build(tower, 2)
    params = tlrs.TlrsParams(ctx, 2, 0, tower.top([[1, 2], [1, 0]]))
    code = tlrs.build_code(params)
    assert tlrs.min_sum_rank_distance(code) == _per_word_min_sum_rank_distance(code) == 2
    fp_span = [[t.matrix() for t in ctx.eval_map(b)] for b in code.basis_polys]
    weight = lambda blocks: sum(linalg.rank(b) for b in blocks)
    assert linalg.min_weight(fp_span, tower.p, weight, 10**6) == 4


def test_sum_rank_distance_sandwich(floor_and_full_walk):
    """On every tlrs-certify class, with a random twist, an eta^2 = -1
    twist where L has one and an h = 0 twist: the oracle hands the walk the
    floor N - k, stops with the same answer as the full walk, and that
    answer lies in N - k <= d <= N - k + 1 (N = ell*r).  At k = 1 the first
    word of the walk had the least weight in every code tried, which would
    hide a floor one too high, so k = 3 at q = 5 joins: there most walks
    meet a word of weight N - k + 1 before one of weight N - k."""
    rng = random.Random(60)
    seen = set()
    for shape, k, max_ell in CERTIFY_CLASSES + (((5, 1, 2), 3, 4),):
        tower = FieldTower(*shape)
        units = list(tower.top_units())
        non_lcd = [e for e in units if not tower.top_one() + e * e]
        for ell in range(1, max_ell + 1):
            if (tower.q - 1) % ell or k > ell * tower.r - 1:
                continue
            ctx = QuotientCtx.build(tower, ell)
            n = ell * tower.r
            twists = [(rng.randrange(tower.r), rng.choice(units)), (0, rng.choice(units))]
            twists += [(rng.randrange(tower.r), eta) for eta in non_lcd[:1]]
            for h, eta in twists:
                params = tlrs.TlrsParams(ctx, k, h, eta)
                d, floor, full = floor_and_full_walk(
                    tlrs.min_sum_rank_distance, tlrs.build_code(params)
                )
                case = (shape, k, ell, h, str(eta))
                assert floor == tlrs.sum_rank_distance_floor(params) == n - k, case
                assert d == full, case
                assert n - k <= d <= n - k + 1 == tlrs.sum_rank_singleton_bound(params), case
                seen.add(d - (n - k))
    assert seen == {0, 1}  # both sides of the sandwich occur


def test_cubic_extension_equivalence():
    """The criterion/Gram/hull equivalence is not special to r = 2."""
    from sumrank.fields import FieldTower

    tower = FieldTower(13, 1, 3)  # L = F_2197
    ctx = QuotientCtx.build(tower, 2)
    rng = random.Random(58)
    etas = [tower.top(5)]  # 5^2 = -1 mod 13: a guaranteed non-LCD twist
    while len(etas) < 12:
        cand = tower.top([rng.randrange(13) for _ in range(3)])
        if cand:
            etas.append(cand)
    seen_bad = False
    for eta in etas:
        for k in (1, 2):
            for h in (0, 1, 2):
                params = tlrs.TlrsParams(ctx, k, h, eta)
                code = tlrs.build_code(params)
                report = tlrs.gram(code, with_oracle=True)
                assert hull_reference.gram_assembled(code) == report.gram
                verdict = tlrs.lcd_criterion(params)
                assert bool(report.det_value) == verdict
                assert (report.hull_dim == 0) == verdict
                seen_bad = seen_bad or not verdict
    assert seen_bad  # the sweep includes a degenerate twist


def test_weight_scaling_invariance(f25, ctx25):
    rng = random.Random(57)
    for _ in range(10):
        f = SkewPoly(
            f25, [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(3)]
        )
        base = ctx25.eval_map(f)
        for c in f25.mid_units():
            scaled = ctx25.eval_map(SkewPoly(f25, [c]) * f)
            for a, b in zip(base, scaled):
                assert linalg.rank(a.matrix()) == linalg.rank(b.matrix())
