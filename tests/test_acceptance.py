"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (finite-field equality or integer
equality); randomized sweeps are seeded and their sizes are asserted.
"""

import itertools
import random

import pytest

import paper_reference
import skew_reference
from sumrank import acd, linalg, tlrs
from sumrank.errors import SearchFailedError, SingularMError
from sumrank.fields import MID, FieldTower
from sumrank.linalg import Mat
from sumrank.skew import QuotientCtx, SkewPoly


def _verdict(n: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {desc}")


@pytest.fixture(scope="module")
def f25s():
    return FieldTower(5, 1, 2)


@pytest.fixture(scope="module")
def f169s():
    return FieldTower(13, 1, 2)


# ---------------------------------------------------------------------------


def test_c01_worked_example_exact(f25s):
    desc = "worked example q=5, L={1,4}, k=1, h=0, eta=2+u reproduced exactly"
    tower = f25s
    ctx = QuotientCtx.build(tower, 2)
    eta = tower.parse_top("2+1u")
    assert str(eta * eta) == "1+4u"
    assert str(tower.top_one() + eta * eta) == "2+4u"
    params = tlrs.TlrsParams(ctx, 1, 0, eta)
    report = tlrs.gram(tlrs.build_code(params), with_oracle=True)
    assert report.gram.to_lists() == [["4", "1"], ["1", "3"]]
    assert str(report.det_value) == "1"
    assert report.lcd_by_criterion is True
    assert bool(report.det_value)
    assert report.hull_dim == 0 and report.lcd_by_oracle is True
    _verdict(1, True, desc)


def test_c02_self_orthogonal_example(f25s):
    desc = "eta=2 gives the zero Gram matrix and a dimension-2 hull"
    ctx = QuotientCtx.build(f25s, 2)
    params = tlrs.TlrsParams(ctx, 1, 0, f25s.parse_top("2+0u"))
    report = tlrs.gram(tlrs.build_code(params), with_oracle=True)
    assert report.gram.is_zero()
    assert report.hull_dim == 2
    assert report.lcd_by_oracle is False
    _verdict(2, True, desc)


def test_c03_lcd_equivalence_exhaustive(f25s, f169s):
    desc = (
        "criterion == Gram nonsingularity == trivial hull over the full"
        " desk grid (zero counterexamples)"
    )
    checked = 0
    for tower in (f25s, f169s):
        q = tower.q
        ells = [e for e in range(1, q) if (q - 1) % e == 0 and e * 4 <= 16]
        for ell in ells:
            ctx = QuotientCtx.build(tower, ell)
            for k in range(1, ctx.modulus_degree):
                for h in (0, 1):
                    for eta in tower.top_units():
                        params = tlrs.TlrsParams(ctx, k, h, eta)
                        code = tlrs.build_code(params)
                        report = tlrs.gram(code, with_oracle=True)
                        a = tlrs.lcd_criterion(params)
                        b = bool(report.det_value)
                        c = report.hull_dim == 0
                        assert a == b == c, (
                            f"counterexample at q={q}, ell={ell}, k={k},"
                            f" h={h}, eta={eta}"
                        )
                        checked += 1
    assert checked == (1 + 3 + 7) * 2 * 24 + (1 + 3 + 5 + 7) * 2 * 168
    _verdict(3, True, desc + f" [{checked} codes]")


def test_c04_evaluation_algebra(f25s):
    desc = "residue evaluation is K-linear, bijective, and multiplicative"
    tower = f25s
    ctx = QuotientCtx.build(tower, 2)
    rng = random.Random(104)

    def rand_poly():
        return SkewPoly(
            tower,
            [tower.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)],
        )

    # bijective on a spanning K-basis of the residue space
    def eval_coords(f):
        return [c for t in ctx.eval_map(f) for c in skew_reference.coords_mid(t)]

    rows = [eval_coords(b) for b in skew_reference.ambient_basis(ctx)]
    mat = Mat.from_rows(rows, tower=tower, level=MID, cols=ctx.ambient_dim)
    assert linalg.rank(mat) == ctx.ambient_dim

    # K-linearity in coordinates
    for _ in range(200):
        f, g = rand_poly(), rand_poly()
        a, b = tower.mid(rng.randrange(5)), tower.mid(rng.randrange(5))
        combo = SkewPoly(tower, [a]) * f + SkewPoly(tower, [b]) * g
        lhs = eval_coords(combo)
        rf = eval_coords(f)
        rg = eval_coords(g)
        rhs = [a * x + b * y for x, y in zip(rf, rg)]
        assert lhs == rhs

    # multiplicativity on >= 10^3 random pairs
    pairs = 0
    for _ in range(1000):
        f, g = rand_poly(), rand_poly()
        lhs = ctx.eval_map(f * g)
        pf, pg = ctx.eval_map(f), ctx.eval_map(g)
        for left, x, y in zip(lhs, pf, pg):
            assert left == x.compose(y)
        pairs += 1
    assert pairs >= 1000
    _verdict(4, True, desc + f" [{pairs} product pairs]")


def test_c05_trace_table_verification(f25s, f169s):
    desc = "every generator-pairing entry matches its power-sum closed form"
    rng = random.Random(105)
    entries = 0
    for tower in (f25s, f169s):
        units = list(tower.mid_units())
        alpha = tower.skew_unit()
        max_ell = min(tower.q - 2, 8)
        for ell in range(2, max_ell + 1):
            for k in range(1, min(3, ell - 1) + 1):
                for _ in range(2):
                    lam = rng.sample(units, ell)
                    c = units[rng.randrange(len(units))]
                    gamma = tower.top(c) * alpha  # Tr(gamma) = 0
                    params = acd.AcdParams.make(tower, k, lam, gamma)
                    assert not tower.trace(gamma)
                    exp_gg, exp_t = paper_reference.closed_form_tables(params)
                    assert acd.gg_dagger(params) == exp_gg
                    assert acd.t_matrix(params) == exp_t
                    entries += (2 * k) ** 2 * 2
    _verdict(5, True, desc + f" [{entries} entries]")


def _random_admissible_params(tower, rng, trace_zero: bool):
    units = list(tower.mid_units())
    ell = rng.randint(2, min(tower.q - 1, 8))
    k = rng.randint(1, ell - 1)
    lam = tuple(rng.sample(units, ell))
    alpha = tower.skew_unit()
    if trace_zero:
        c = units[rng.randrange(len(units))]
        gamma = tower.top(c) * alpha
    else:
        gamma = alpha
        while True:
            cand = tower.top(
                [
                    [rng.randrange(tower.p) for _ in range(tower.m)]
                    for _ in range(2)
                ]
            )
            if cand:
                gamma = cand
                break
    return acd.AcdParams(tower, k, lam, gamma, alpha)


@pytest.fixture(scope="module")
def random_sweep(f25s, f169s):
    """One seeded sweep shared by criteria 6 and 7."""
    rng = random.Random(106)
    towers = [f25s, FieldTower(3, 2, 2), f169s]  # q = 5, 9, 13
    runs = []
    for i in range(510):
        tower = towers[i % len(towers)]
        params = _random_admissible_params(tower, rng, trace_zero=(i % 2 == 0))
        verdicts = acd.acd_check(params)
        hull = acd.acd_oracle(params)
        runs.append((params, verdicts, hull))
    return runs


def test_c06_matrix_criterion_oracle_equivalence(random_sweep):
    desc = "det T != 0 matches the brute-force hull across the random sweep"
    assert len(random_sweep) >= 500
    nonzero_trace = 0
    for params, verdicts, hull in random_sweep:
        assert verdicts.matrix_ok == (hull == 0), (
            f"disagreement at q={params.tower.q}, k={params.k},"
            f" lambda={[str(x) for x in params.lambda_set]},"
            f" gamma={params.twist_scalar}"
        )
        if params.tower.trace(params.twist_scalar):
            nonzero_trace += 1
    assert nonzero_trace > 100  # the sweep genuinely includes Tr(gamma) != 0
    _verdict(
        6,
        True,
        desc + f" [{len(random_sweep)} runs, {nonzero_trace} with Tr(gamma)!=0]",
    )


def test_c07_structured_path_equivalence(random_sweep):
    desc = "block criterion (det G0 != 0 and Delta != 0) matches det T != 0"
    applicable = 0
    for params, verdicts, hull in random_sweep:
        if verdicts.structured_ok is None:
            continue
        applicable += 1
        assert verdicts.structured_ok == verdicts.matrix_ok, (
            f"structured/matrix disagreement at q={params.tower.q},"
            f" k={params.k}, lambda={[str(x) for x in params.lambda_set]}"
        )
    assert applicable > 100
    _verdict(7, True, desc + f" [{applicable} applicable runs]")


def test_c08_mds_certification(f25s, f169s):
    desc = "nonsquare-norm twist forces d = ell-k+1; Singleton never violated"
    rng = random.Random(108)
    certified = 0
    for tower, pairs in (
        (f25s, [(1, 2), (1, 3)]),
        (f169s, [(k, ell) for k in (1, 2) for ell in range(k + 1, 7)]),
    ):
        units = list(tower.mid_units())
        for k, ell in pairs:
            lam_draws = [rng.sample(units, ell) for _ in range(3)]
            for lam in lam_draws:
                params = acd.AcdParams.make(tower, k, lam)  # gamma = alpha
                assert acd.mds_criterion(params)
                d = acd.min_distance_oracle(params)
                bound = ell - k + 1
                assert d == bound, (
                    f"q={tower.q}, k={k}, lambda={[str(x) for x in lam]}:"
                    f" d={d} != {bound}"
                )
                certified += 1
            # a square-norm twist only promises the Singleton bound
            square = acd.AcdParams.make(tower, k, lam_draws[0], tower.top_one())
            assert not acd.mds_criterion(square)
            assert acd.min_distance_oracle(square) <= ell - k + 1
    _verdict(8, True, desc + f" [{certified} certified runs]")


def test_c09_schur_identity(f25s, f169s):
    desc = "Delta equals -2 alpha^2 det(H)/det(M) on every alpha-twist sample"
    rng = random.Random(109)
    checked = 0
    for tower in (f25s, f169s):
        units = list(tower.mid_units())
        attempts = 0
        while checked < (10 if tower.q == 5 else 40) and attempts < 500:
            attempts += 1
            ell = rng.randint(2, min(tower.q - 2, 9))
            k = rng.randint(1, min(4, ell - 1))
            params = acd.AcdParams.make(tower, k, rng.sample(units, ell))
            try:
                assert paper_reference.delta_identity_check(params)
            except SingularMError:
                continue
            checked += 1
    assert checked >= 40
    _verdict(9, True, desc + f" [{checked} samples]")


def test_c10_existence_instantiation(f25s, f169s):
    desc = (
        "searched parameters certify (dual-intersection and distance oracles)"
        " for every (k, ell) with 2k <= ell <= q-2 and k+ell < q at q=13,"
        " every evaluation set has a nontrivial hull once k+ell >= q, plus"
        " the q=5 fallback case"
    )
    # q=5: the geometric recipe must fail at (k=1, ell=2) and the subset
    # fallback must recover it
    with pytest.raises(SearchFailedError):
        acd.lambda_search(f25s, 1, 2, strategy="geometric")
    recovered = acd.lambda_search(f25s, 1, 2)
    assert acd.acd_oracle(recovered) == 0
    assert acd.mds_criterion(recovered)
    assert acd.min_distance_oracle(recovered) == 2

    # q=13: a pair is feasible exactly when k + ell < q.  Beyond that, the
    # rank bound on T (README, "Expected result") forces a hull of at least
    # 2(k + ell - q) + 1 on every evaluation set; the hull oracle, which
    # shares no code with the search, checks this on every subset.
    q = f169s.q
    units = list(f169s.mid_units())
    distance_guard = 10**5
    failures = []
    certified = infeasible = 0
    for k in range(1, 6):
        for ell in range(2 * k, q - 1):
            if k + ell < q:
                try:
                    params = acd.lambda_search(f169s, k, ell)
                except SearchFailedError as exc:
                    failures.append(
                        f"feasible (k={k}, ell={ell}): no certifiable evaluation"
                        f" set among {exc.candidates_scanned} candidates"
                    )
                    continue
                verdicts = acd.acd_check(params)
                ok = (
                    verdicts.matrix_ok
                    and verdicts.structured_ok in (True, None)
                    and acd.mds_criterion(params)
                    and acd.acd_oracle(params) == 0
                )
                if q ** (2 * k) <= distance_guard:
                    ok = ok and acd.min_distance_oracle(params) == ell - k + 1
                if ok:
                    certified += 1
                else:
                    failures.append(
                        f"feasible (k={k}, ell={ell}): found params fail checks"
                    )
                continue
            try:
                found = acd.lambda_search(f169s, k, ell)
            except SearchFailedError:
                pass
            else:
                failures.append(
                    f"infeasible (k={k}, ell={ell}): search returned"
                    f" lambda={[str(x) for x in found.lambda_set]}"
                )
                continue
            bound = 2 * (k + ell - q) + 1
            for lam in itertools.combinations(units, ell):
                hull = acd.acd_oracle(acd.AcdParams.make(f169s, k, lam))
                if hull < bound:
                    failures.append(
                        f"infeasible (k={k}, ell={ell}): hull {hull} < {bound}"
                        f" at lambda={[str(x) for x in lam]}"
                    )
                    break
            else:
                infeasible += 1
    _verdict(
        10,
        not failures,
        desc
        + f" [{certified} pairs certified, {infeasible} pairs proved infeasible]",
    )
    assert not failures, "q=13 dichotomy fails for: " + "; ".join(failures)
    assert (certified, infeasible) == (22, 8)
