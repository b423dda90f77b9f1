"""Additive twisted codes: construction, trace matrices, dual and distance
certification, evaluation-set search."""

import itertools
import random

import pytest

import hull_reference
import paper_reference
from paper_reference import BadRootsError, LengthMismatchError
from sumrank import acd, linalg
from sumrank.errors import (
    BadParamsError,
    SearchFailedError,
    SingularMError,
    TooLargeError,
)
from sumrank.fields import FieldTower


@pytest.fixture(scope="module")
def good25(f25):
    """q=5, k=1, points {2,3}, gamma=u: certifiably complementary-dual."""
    return acd.AcdParams.make(f25, 1, [2, 3], f25.parse_top("0+1u"))


@pytest.fixture(scope="module")
def bad25(f25):
    """q=5, k=1, points {1,2}: p_2 = 0 makes the trace matrix singular."""
    return acd.AcdParams.make(f25, 1, [1, 2], f25.parse_top("0+1u"))


# ---------------------------------------------------------------- parameters


def test_param_validation(f25, f169):
    u = f25.parse_top("0+1u")
    # a twist or skew unit of a tower built alike is refused up front
    twin = FieldTower(5, 1, 2)
    with pytest.raises(BadParamsError, match="must belong to the code's tower"):
        acd.AcdParams.make(f25, 1, [2, 3], twin.parse_top("0+1u"))
    with pytest.raises(BadParamsError, match="must belong to the code's tower"):
        acd.AcdParams(f25, 1, (f25.mid(2), f25.mid(3)), u, twin.skew_unit())
    with pytest.raises(BadParamsError):
        acd.AcdParams.make(f25, 2, [1, 2], u)  # k > ell - 1
    with pytest.raises(BadParamsError):
        acd.AcdParams.make(f25, 1, [1, 1], u)  # repeated point
    with pytest.raises(BadParamsError):
        acd.AcdParams.make(f25, 1, [0, 1], u)  # zero point
    with pytest.raises(BadParamsError):
        acd.AcdParams.make(f25, 1, [1, 2], f25.top_zero())
    with pytest.raises(BadParamsError):
        # q = 7 = 3 mod 4 is outside the construction's standing assumption
        acd.AcdParams.make(FieldTower(7, 1, 2), 1, [1, 2])


# ---------------------------------------------------------------- basis / encoding


def test_basis_k1(f25, good25):
    basis = acd.code_basis(good25)
    assert len(basis) == 2
    assert basis[0] == (f25.top_one(),)
    assert basis[1] == (f25.top_zero(), good25.twist_scalar)


def test_basis_k2(f169):
    alpha = f169.skew_unit()
    params = acd.AcdParams.make(f169, 2, [1, 2, 3, 4])
    basis = acd.code_basis(params)
    assert len(basis) == 4
    one, zero = f169.top_one(), f169.top_zero()
    assert basis[0] == (one,)
    assert basis[1] == (zero, one)
    assert basis[2] == (zero, alpha)
    assert basis[3] == (zero, zero, alpha)  # gamma defaults to alpha


def test_encode_zero_and_unit(f25, good25):
    assert all(not c for c in paper_reference.encode(good25, [0, 0]))
    ones = paper_reference.encode(good25, [1, 0])
    assert all(c == f25.top_one() for c in ones)


def test_encode_golden(f25):
    params = acd.AcdParams.make(f25, 1, [1, 2, 3], f25.parse_top("0+1u"))
    word = paper_reference.encode(params, [1, 1])
    assert [str(c) for c in word] == ["1+1u", "1+2u", "1+3u"]


def test_encode_length_check(good25):
    with pytest.raises(LengthMismatchError):
        paper_reference.encode(good25, [1, 2, 3])


def test_code_dimension_via_expansion(f169):
    rng = random.Random(61)
    units = list(f169.mid_units())
    for _ in range(5):
        ell = rng.randint(3, 7)
        k = rng.randint(1, ell - 1)
        params = acd.AcdParams.make(f169, k, rng.sample(units, ell))
        assert linalg.rank(acd.expanded_generator(params)) == 2 * k


# ---------------------------------------------------------------- pairing


def test_trace_hermitian_golden(f25):
    one, u = f25.top_one(), f25.top([0, 1])
    assert paper_reference.trace_hermitian([one], [one]) == f25.mid(2)
    assert paper_reference.trace_hermitian([u], [u]) == f25.mid(1)  # Tr(4u^2) = Tr(3) = 1


def test_trace_hermitian_symmetric(f25):
    rng = random.Random(62)
    for _ in range(20):
        x = [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)]
        y = [f25.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)]
        assert paper_reference.trace_hermitian(x, y) == paper_reference.trace_hermitian(y, x)


def test_trace_hermitian_length_check(f25):
    with pytest.raises(LengthMismatchError):
        paper_reference.trace_hermitian([f25.top_one()], [f25.top_one(), f25.top_one()])


# ---------------------------------------------------------------- trace matrix


def test_t_matrix_golden(f25, good25):
    assert acd.t_matrix(good25).to_lists() == [["4", "0"], ["0", "3"]]


def test_t_matrix_corner_entries(f169):
    rng = random.Random(63)
    units = list(f169.mid_units())
    alpha = f169.skew_unit()
    for _ in range(5):
        ell = rng.randint(3, 7)
        k = rng.randint(1, min(3, ell - 1))
        c = units[rng.randrange(len(units))]
        gamma = f169.top(c) * alpha  # trace-zero twist
        params = acd.AcdParams.make(f169, k, rng.sample(units, ell), gamma)
        ps = acd.power_sums(f169, params.lambda_set, 2 * k)
        t = acd.t_matrix(params)
        two = f169.mid(2)
        assert t[0, 0] == two * ps[0]  # 2 ell
        assert t[2 * k - 1, 2 * k - 1] == two * f169.norm(gamma) * ps[2 * k]
        if k >= 2:
            alpha_sq = f169.as_mid(alpha * alpha)
            assert t[k, k] == -(two * alpha_sq * ps[2])  # (alpha X, alpha X)


def test_t_matrix_matches_closed_forms(f25, f169):
    rng = random.Random(64)
    for tower in (f25, f169):
        units = list(tower.mid_units())
        alpha = tower.skew_unit()
        for _ in range(6):
            ell = rng.randint(2, min(tower.q - 2, 7))
            k = rng.randint(1, min(3, ell - 1))
            c = units[rng.randrange(len(units))]
            params = acd.AcdParams.make(
                tower, k, rng.sample(units, ell), tower.top(c) * alpha
            )
            exp_gg, exp_t = paper_reference.closed_form_tables(params)
            assert acd.gg_dagger(params) == exp_gg
            assert acd.t_matrix(params) == exp_t


def test_t_matrix_block_diagonal_when_trace_zero(f169):
    rng = random.Random(65)
    units = list(f169.mid_units())
    alpha = f169.skew_unit()
    for _ in range(4):
        ell = rng.randint(4, 8)
        k = rng.randint(2, min(3, ell - 1))
        params = acd.AcdParams.make(f169, k, rng.sample(units, ell), alpha)
        t = acd.t_matrix(params)
        for i in range(k):  # rows of the {1, X^i} block
            for j in range(k, 2 * k):  # columns of the {alpha X^i, gamma X^k} block
                assert not t[i, j] and not t[j, i]


# ---------------------------------------------------------------- verdicts


def test_acd_check_good(good25):
    verdicts = acd.acd_check(good25)
    assert verdicts.matrix_ok and verdicts.structured_ok


def test_acd_check_bad(bad25):
    verdicts = acd.acd_check(bad25)
    assert not verdicts.matrix_ok and verdicts.structured_ok is False


def test_acd_check_k1_delta(f25, good25):
    # degenerate blocks: Delta = 2 gamma^(q+1) p_2 = 2 * 3 * 3 = 3 mod 5
    verdicts = acd.acd_check(good25)
    assert verdicts.delta == f25.mid(3)


def test_acd_check_trace_nonzero_reason(f25):
    params = acd.AcdParams.make(f25, 1, [2, 3], f25.parse_top("1+1u"))
    verdicts = acd.acd_check(params)
    assert verdicts.structured_ok is None
    assert verdicts.structured_reason == "trace_nonzero"
    assert verdicts.matrix_ok == (acd.acd_oracle(params) == 0)


def test_acd_oracle_examples(good25, bad25):
    assert acd.acd_oracle(good25) == 0
    assert acd.acd_oracle(bad25) >= 1


def test_acd_oracle_dims(f169):
    rng = random.Random(66)
    units = list(f169.mid_units())
    tops = list(f169.top_units())
    for _ in range(15):
        ell = rng.randint(2, 8)
        k = rng.randint(1, ell - 1)
        gamma = tops[rng.randrange(len(tops))]
        params = acd.AcdParams(
            f169, k, tuple(rng.sample(units, ell)), gamma, f169.skew_unit()
        )
        hull = acd.acd_oracle(params)
        assert 0 <= hull <= 2 * k
        assert (hull == 0) == acd.acd_check(params).matrix_ok


def test_acd_oracle_matches_intersection_reference(f25, f81, f169, forbidden):
    """The rank count of acd_oracle agrees with the reference intersection
    of the code with its dual on every acd-distance class with a random
    evaluation set and twist, on every set lambda_search finds at q = 13
    (hull 0), and on a q = 9 (m = 2) code with a hull: k = 1, ell = 3 and
    the default twist alpha, where p | ell forces one.  The oracle never
    calls the trace matrix or the power sums of the criterion it checks."""
    from sumrank.fields import FieldTower

    rng = random.Random(73)
    cases = []
    for tower, k, ells in (
        (f25, 2, range(3, 5)),
        (f81, 1, range(2, 9)),
        (f169, 1, range(2, 9)),
        (FieldTower(17, 1, 2), 1, range(2, 9)),
    ):
        units = list(tower.mid_units())
        tops = list(tower.top_units())
        for ell in ells:
            cases.append(
                acd.AcdParams.make(tower, k, rng.sample(units, ell), rng.choice(tops))
            )
    found = [
        acd.lambda_search(f169, k, ell)
        for ell in range(2, f169.q - 1)
        for k in range(1, ell // 2 + 1)
        if k + ell < f169.q
    ]
    forced = acd.AcdParams.make(f81, 1, [[1, 2], [2, 1], [2, 2]])
    hulls = []
    with forbidden(acd, "t_matrix", "gg_dagger", "power_sums"):
        for params in cases + found + [forced]:
            hull = acd.acd_oracle(params)
            case = (params.tower.q, params.k, [str(x) for x in params.lambda_set])
            assert hull == hull_reference.acd_hull(params), case
            hulls.append(hull)
    assert len(found) == 22 and not any(hulls[len(cases):-1])
    assert hulls[-1] >= 1 and any(hulls[:len(cases)])


def test_acd_oracle_guard(good25):
    with pytest.raises(TooLargeError):
        acd.acd_oracle(good25, max_hull=2)


def test_dual_dimension_identity(f169):
    # dim C + dim C-perp = 2 ell, with the dual rebuilt here from scratch
    # through public pairings against the ambient {e_j, alpha e_j} basis
    rng = random.Random(68)
    units = list(f169.mid_units())
    alpha = f169.skew_unit()
    zero, one = f169.top_zero(), f169.top_one()
    for _ in range(5):
        ell = rng.randint(2, 6)
        k = rng.randint(1, ell - 1)
        params = acd.AcdParams.make(f169, k, rng.sample(units, ell))
        gen = acd.generator_matrix(params)
        ambient = []
        for j in range(ell):
            for scalar in (one, alpha):
                vec = [zero] * ell
                vec[j] = scalar
                ambient.append(vec)
        pairing_rows = [
            [paper_reference.trace_hermitian(list(row), vec) for vec in ambient]
            for row in gen.entries
        ]
        pairings = linalg.Mat.from_rows(pairing_rows)
        rank, dual = hull_reference.rank_kernel(pairings)
        assert rank == 2 * k
        assert dual.dim == 2 * ell - 2 * k


# ---------------------------------------------------------------- distance


def test_mds_criterion_golden(f25, good25):
    assert acd.mds_criterion(good25)  # gamma = u, norm 3 nonsquare
    square = acd.AcdParams.make(f25, 1, [2, 3], f25.parse_top("1+0u"))
    assert not acd.mds_criterion(square)  # gamma = 1
    for c in (2, 3, 4):
        in_base = acd.AcdParams.make(f25, 1, [2, 3], f25.parse_top(f"{c}+0u"))
        assert not acd.mds_criterion(in_base)  # norms of F_q* scalars are squares


def test_min_distance_golden(f25, good25):
    params3 = acd.AcdParams.make(f25, 1, [1, 2, 3], f25.parse_top("0+1u"))
    assert acd.min_distance_oracle(params3) == 3  # = ell - k + 1
    assert acd.min_distance_oracle(good25) == 2


def test_min_distance_square_twist_measured(f25):
    # gamma = 1 fails the sufficient test and indeed misses the bound here
    params = acd.AcdParams.make(f25, 1, [1, 2, 3], f25.parse_top("1+0u"))
    assert not acd.mds_criterion(params)
    d = acd.min_distance_oracle(params)
    assert d == 2  # measured; below the bound 3 but within Singleton
    assert d <= params.ell - params.k + 1


def test_min_distance_guard(good25):
    with pytest.raises(TooLargeError, match=r"^enumerating 25 codewords exceeds the guard 3$"):
        acd.min_distance_oracle(good25, max_enumeration=3)


def _per_message_min_distance(params):
    """Reference: every nonzero message encoded on its own and weighed."""
    best = None
    mids = list(params.tower.mid_elements())
    for message in itertools.product(mids, repeat=2 * params.k):
        if any(message):
            w = sum(1 for c in paper_reference.encode(params, message) if c)
            best = w if best is None else min(best, w)
    return best


def test_min_distance_matches_per_message_reference(f25, f81, f169):
    """The Gray walk agrees with encoding every message on its own, on every
    class of the acd-distance benchmark with a random twist, plus one
    square-norm twist per tower, where mds_criterion is false."""
    from sumrank.fields import FieldTower

    rng = random.Random(71)
    below_bound = 0
    for tower, k, ells in (
        (f25, 2, range(3, 5)),
        (f81, 1, range(2, 9)),
        (f169, 1, range(2, 9)),
        (FieldTower(17, 1, 2), 1, range(2, 9)),
    ):
        units = list(tower.mid_units())
        tops = list(tower.top_units())
        square = [g for g in tops if tower.is_square(tower.norm(g))]
        cases = [(ell, rng.choice(tops)) for ell in ells]
        cases.append((rng.choice(ells), rng.choice(square)))
        for ell, gamma in cases:
            params = acd.AcdParams.make(tower, k, rng.sample(units, ell), gamma)
            d = acd.min_distance_oracle(params)
            assert d == _per_message_min_distance(params), (tower, ell, str(gamma))
            below_bound += d < ell - k + 1
        assert not acd.mds_criterion(params)  # the square-norm case, run last
    assert below_bound
    # gamma = 1 with no point in F_3: the words of weight ell - 1 need
    # coefficients outside F_p, which only the omega^s multiples reach
    params = acd.AcdParams.make(f81, 1, [[1, 2], [2, 1], [2, 2]], f81.top_one())
    assert acd.min_distance_oracle(params) == _per_message_min_distance(params) == 2


def test_min_distance_floor_walk(f25, f81, f169, floor_and_full_walk):
    """gamma in F_q makes gamma * prod(x - s) over k points a codeword, so
    d = ell - k, the floor the oracle hands the walk.  On every acd-distance
    class with such twists, and the q = 9, gamma = 1 case, the walk stops
    there with the same answer as the full walk."""
    from sumrank.fields import FieldTower

    rng = random.Random(72)
    cases = [(f81, 1, ((1, 2), (2, 1), (2, 2)), f81.top_one())]
    for tower, k, ells in (
        (f25, 2, range(3, 5)),
        (f81, 1, range(2, 9)),
        (f169, 1, range(2, 9)),
        (FieldTower(17, 1, 2), 1, range(2, 9)),
    ):
        units = list(tower.mid_units())
        for ell in ells:
            gamma = tower.top(rng.choice(units))
            cases.append((tower, k, rng.sample(units, ell), gamma))
    for tower, k, lams, gamma in cases:
        params = acd.AcdParams.make(tower, k, lams, gamma)
        d, floor, full = floor_and_full_walk(acd.min_distance_oracle, params)
        case = (tower, k, [str(x) for x in params.lambda_set], str(gamma))
        assert floor == params.ell - k, case
        assert d == full == params.ell - k, case


# ---------------------------------------------------------------- root products


def test_root_product_k1(f25):
    params = acd.AcdParams.make(f25, 1, [1, 2, 3], f25.parse_top("0+1u"))
    for lam in (1, 2, 3):
        res = paper_reference.root_product_check(params, [lam], 1)
        # forced a0 = -gamma * a_k * lam is a u-multiple, never in F_q
        assert res.forced_a0 == -(params.twist_scalar * f25.top(lam))
        assert not res.exists and res.member is None


def test_root_product_in_field_twist(f25):
    # gamma in F_q makes the forced constant land in F_q; witness vanishes
    params = acd.AcdParams.make(f25, 2, [1, 2, 3, 4], f25.parse_top("1+0u"))
    res = paper_reference.root_product_check(params, [1, 2], 1)
    assert res.exists
    assert res.forced_a0 == f25.top(2)  # (-1)^2 * 1 * 1 * 2
    for lam in (1, 2):
        acc = f25.top_zero()
        for i, c in enumerate(res.member):
            acc = acc + c * f25.top(lam) ** i
        assert not acc


def test_root_product_validation(f25, good25):
    with pytest.raises(BadRootsError):
        paper_reference.root_product_check(good25, [4], 1)  # not an evaluation point
    with pytest.raises(BadRootsError):
        paper_reference.root_product_check(good25, [2, 3], 1)  # wrong count
    with pytest.raises(BadRootsError):
        paper_reference.root_product_check(good25, [2], 0)  # a_k must be nonzero


# ---------------------------------------------------------------- power sums


def test_power_sums_convention(f25, f169):
    for tower, ell in ((f25, 3), (f169, 6)):
        units = list(tower.mid_units())[:ell]
        ps = acd.power_sums(tower, units, 4)
        assert ps[0] == tower.mid(ell)


def test_geometric_closed_form(f169):
    """p_e over {1, g, .., g^(ell-1)} is (g^(e*ell) - 1) / (g^e - 1) when
    g^e != 1, else ell mod p."""
    one = f169.mid_one()
    for g in f169.mid_units():
        if f169.multiplicative_order(g) != 12:
            continue
        for ell in (2, 4, 6):
            lams = [g**i for i in range(ell)]
            ps = acd.power_sums(f169, lams, 6)
            for e in range(7):
                ge = g**e
                expected = (
                    f169.mid(ell) if ge == one else (ge**ell - one) / (ge - one)
                )
                assert ps[e] == expected


# ---------------------------------------------------------------- search


def test_search_small_example(f25):
    params = acd.lambda_search(f25, 1, 3)
    assert acd.acd_oracle(params) == 0
    assert acd.mds_criterion(params)
    assert acd.min_distance_oracle(params) == 3


def test_search_geometric_fails_then_exhaustive_recovers(f25):
    with pytest.raises(SearchFailedError) as info:
        acd.lambda_search(f25, 1, 2, strategy="geometric")
    assert info.value.candidates_scanned == 2  # both primitive elements tried
    params = acd.lambda_search(f25, 1, 2)  # auto falls back to subsets
    assert acd.acd_oracle(params) == 0
    assert acd.min_distance_oracle(params) == 2


def test_search_fails_fast_once_k_plus_ell_reaches_q(f169, monkeypatch):
    """(4, 9) at q = 13 is decided by the rank bound on T, before any
    candidate is scanned and whatever the strategy."""
    scans = []
    monkeypatch.setattr(acd, "_dets_pass", lambda *a, **kw: scans.append(a))
    for strategy in ("auto", "geometric", "exhaustive"):
        with pytest.raises(SearchFailedError) as info:
            acd.lambda_search(f169, 4, 9, strategy=strategy)
        assert info.value.candidates_scanned == 0
        assert "rank T <= 1 + 2(q - 1 - ell) = 7 < 2k = 8" in str(info.value)
    assert not scans


def test_search_validates_ranges(f25):
    with pytest.raises(BadParamsError):
        acd.lambda_search(f25, 1, 4)  # ell > q - 2
    with pytest.raises(BadParamsError):
        acd.lambda_search(f25, 2, 3)  # ell < 2k


def test_search_geometric_q13(f169):
    params = acd.lambda_search(f169, 2, 4, strategy="geometric")
    g = params.lambda_set[1]
    assert f169.multiplicative_order(g) == 12
    assert params.lambda_set == tuple(g**i for i in range(4))
    assert acd.acd_oracle(params) == 0


def test_search_prime_power_base():
    """q = 25 (itself a prime power) works end to end."""
    from sumrank.fields import FieldTower

    tower = FieldTower(5, 2, 2)  # F_25 < F_625
    params = acd.lambda_search(tower, 1, 3)
    assert acd.mds_criterion(params)
    assert acd.acd_oracle(params) == 0
    assert acd.min_distance_oracle(params) == 3
    assert paper_reference.delta_identity_check(params)


def test_search_fails_fast_at_k1_when_p_divides_ell(f81, monkeypatch):
    """q = 9, k = 1: p_0 = ell = 0 in F_q when 3 | ell, so det G0 = 0 and,
    with gamma = alpha, T is singular.  The search says so with no scan, and
    the hull oracle confirms a nontrivial hull on every subset.  Other twists
    can certify there; one such code is pinned."""
    tower = f81
    units = list(tower.mid_units())
    scans = []
    monkeypatch.setattr(acd, "_dets_pass", lambda *a, **kw: scans.append(a))
    for ell, subsets in ((3, 56), (6, 28)):
        for strategy in ("auto", "geometric", "exhaustive"):
            with pytest.raises(SearchFailedError) as info:
                acd.lambda_search(tower, 1, ell, strategy=strategy)
            assert info.value.candidates_scanned == 0
            assert "p = 3 divides ell" in str(info.value)
        hulls = [
            acd.acd_oracle(acd.AcdParams.make(tower, 1, lam))
            for lam in itertools.combinations(units, ell)
        ]
        assert len(hulls) == subsets and min(hulls) >= 1
    assert not scans
    lam = [tower.parse_mid(x) for x in ("[1,2]", "[2,1]", "[2,2]")]
    gamma = tower.top([[2, 2], [2, 1]])
    assert str(gamma) == "(2+2y)+(2+1y)u"
    params = acd.AcdParams.make(tower, 1, lam, gamma)
    assert acd.acd_check(params).matrix_ok
    assert acd.acd_oracle(params) == 0
    assert acd.min_distance_oracle(params) == 3


def test_no_certifiable_set_once_k_plus_ell_reaches_q(f81):
    """For k + ell >= q, T(lambda) = -2 E_11 - T(F_q* minus lambda) has rank
    at most 1 + 2(q-1-ell) < 2k, so every evaluation set and every twist
    leaves a hull of dimension at least 2(k + ell - q) + 1."""
    tower = f81
    q = tower.q
    alpha = tower.skew_unit()
    trace_twist = next(
        g
        for g in tower.top_units()
        if tower.trace(g) and not tower.is_square(tower.norm(g))
    )
    square_twist = next(g for g in tower.top_units() if tower.is_square(tower.norm(g)))
    units = list(tower.mid_units())
    checked = 0
    for k, ell in ((2, 7), (3, 6), (3, 7)):
        bound = 2 * (k + ell - q) + 1
        for lam in itertools.combinations(units, ell):
            for gamma in (alpha, trace_twist, square_twist):
                params = acd.AcdParams.make(tower, k, lam, gamma)
                where = f"k={k}, lambda={[str(x) for x in lam]}, gamma={gamma}"
                assert not linalg.det(acd.t_matrix(params)), where
                assert acd.acd_oracle(params) >= bound, where
            checked += 1
    assert checked == 8 + 28 + 8


# ---------------------------------------------------------------- Schur identity


def test_delta_identity_k1(f25, good25):
    assert paper_reference.delta_identity_check(good25)


def test_delta_identity_geometric(f169):
    params = acd.lambda_search(f169, 2, 4, strategy="geometric")
    assert paper_reference.delta_identity_check(params)


def test_delta_identity_random_sets(f169):
    rng = random.Random(67)
    units = list(f169.mid_units())
    checked = 0
    while checked < 20:
        ell = rng.randint(4, 8)
        k = rng.randint(2, min(4, ell - 1))
        params = acd.AcdParams.make(f169, k, rng.sample(units, ell))
        try:
            assert paper_reference.delta_identity_check(params)
        except SingularMError:
            continue
        checked += 1


def test_delta_identity_needs_alpha_twist(f25, good25):
    shifted = acd.AcdParams.make(
        f25, 1, [2, 3], f25.parse_top("1+1u")
    )
    with pytest.raises(BadParamsError):
        paper_reference.delta_identity_check(shifted)


# ---------------------------------------------------------------- report


def test_report_roundtrip(good25):
    report = acd.build_report(good25, with_oracle=True, with_distance=True)
    record = report.to_dict()
    assert record["schema"] == 1
    assert record["t"] == [["4", "0"], ["0", "3"]]
    assert record["acd_by_matrix"] and record["acd_by_oracle"]
    assert record["mds_by_criterion"]
    assert record["min_distance"] == 2
    assert record["singleton_bound"] == 2


def test_build_report_computes_matrices_once(f169, monkeypatch):
    calls = {"generator_matrix": 0, "t_matrix": 0, "power_sums": 0}
    for name in calls:
        original = getattr(acd, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(acd, name, counted)
    params = acd.AcdParams.make(f169, 1, [1, 2, 3, 4])
    report = acd.build_report(params, with_oracle=True, with_distance=True)
    assert report.delta is not None and report.min_distance is not None
    assert report.generator is params._generator and report.t_mat is params._t
    assert calls == {"generator_matrix": 1, "t_matrix": 1, "power_sums": 1}
