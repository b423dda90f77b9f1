"""Walkthrough: the twisted polynomial ring and its evaluation map.

Shows the multiplication rule X a = theta(a) X, reduction modulo the
central modulus, evaluation of residues into tuples of linearized maps,
the multiplicativity of that evaluation, and the sum-rank weights it
induces on codewords.
"""

import random

from sumrank import FieldTower, QuotientCtx, SkewPoly, linalg, tlrs

tower = FieldTower(5, 1, 2)
u = tower.top([0, 1])
x = SkewPoly.monomial(tower, tower.top_one(), 1)

print("the twist rule: X * u =", x * SkewPoly(tower, [u]))
print("but X^2 * u =", SkewPoly.monomial(tower, tower.top_one(), 2) * SkewPoly(tower, [u]))

ctx = QuotientCtx.build(tower, 2)
print(f"\nmodulus H = {ctx.h_lambda} (degree {ctx.modulus_degree}, coefficients in F_5)")
print(f"evaluation points (norm preimages): {[str(a) for a in ctx.alphas]}")
print(f"their norms (the subgroup): {[str(l) for l in ctx.lambdas]}")

print("\nreduction: X^4 =", ctx.reduce(SkewPoly.monomial(tower, tower.top_one(), 4)))

# A residue evaluates blockwise to linearized maps: X acts at block i as
# alpha_i * theta, and X^2 as multiplication by lambda_i.
for i in (1, 2):
    print(f"block {i}: X ->", ctx.evaluate(x, i), "  X^2 ->",
          ctx.evaluate(SkewPoly.monomial(tower, tower.top_one(), 2), i))

# Multiplicativity: evaluating a product equals composing the evaluations.
rng = random.Random(0)


def rand_poly():
    return SkewPoly(
        tower, [tower.top([rng.randrange(5), rng.randrange(5)]) for _ in range(4)]
    )


trials = 200
for _ in range(trials):
    f, g = rand_poly(), rand_poly()
    lhs = ctx.eval_map(f * g)
    pf, pg = ctx.eval_map(f), ctx.eval_map(g)
    assert all(a == b.compose(c) for a, b, c in zip(lhs, pf, pg))
print(f"\nevaluation is multiplicative on {trials} random residue pairs")

# Sum-rank weights: each block contributes the rank of its linearized map.
params = tlrs.TlrsParams(ctx, 1, 0, tower.parse_top("2+1u"))
code = tlrs.build_code(params)
word = code.basis_polys[0]
ranks = [linalg.rank(t.matrix()) for t in ctx.eval_map(word)]
print(f"\ncodeword {word}")
print(f"block ranks {ranks}, sum-rank weight {sum(ranks)}")
print("exhaustive minimum sum-rank distance:", tlrs.min_sum_rank_distance(code),
      "(bound:", tlrs.sum_rank_singleton_bound(params), ")")
