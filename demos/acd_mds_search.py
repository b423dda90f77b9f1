"""Walkthrough: additive twisted codes over F_{q^2} that are simultaneously
complementary-dual (under the trace-Hermitian pairing) and distance-optimal.

Demonstrates the trace-matrix certificate, its block structure for
trace-zero twists, the brute-force hull and distance oracles, and the
evaluation-set search including the instructive small case where the
geometric recipe fails and the subset fallback recovers it.
"""

from sumrank import FieldTower, acd

# --- q = 5: small enough to see everything ---------------------------------
tower = FieldTower(5, 1, 2)
alpha = tower.skew_unit()
print(f"q = 5, alpha = {alpha} (alpha^q = -alpha, alpha^2 = {alpha * alpha})")

good = acd.AcdParams.make(tower, k=1, lambda_set=[2, 3])  # gamma = alpha
print("\nevaluation points {2,3}, twist gamma = alpha:")
print("  trace matrix T =", acd.t_matrix(good).to_lists())
verdicts = acd.acd_check(good)
print(f"  det T = {verdicts.det_t}; matrix verdict {verdicts.matrix_ok},"
      f" block verdict {verdicts.structured_ok} (Delta = {verdicts.delta})")
print(f"  hull oracle: {acd.acd_oracle(good)},"
      f" min distance: {acd.min_distance_oracle(good)}"
      f" (Singleton bound {good.ell - good.k + 1})")

bad = acd.AcdParams.make(tower, k=1, lambda_set=[1, 2])
print("\nevaluation points {1,2}: the power sum p_2 = 1 + 4 vanishes mod 5,")
print("  trace matrix T =", acd.t_matrix(bad).to_lists())
print(f"  hull oracle: {acd.acd_oracle(bad)} (not complementary-dual)")

# The geometric recipe tries {1, g} for primitive g in {2, 3}; both give
# p_2 = 0, so the subset fallback has to step in.
try:
    acd.lambda_search(tower, 1, 2, strategy="geometric")
except acd.SearchFailedError as exc:
    print(f"\ngeometric search fails ({exc.candidates_scanned} candidates)")
found = acd.lambda_search(tower, 1, 2)
print(f"subset fallback finds {[str(x) for x in found.lambda_set]}:"
      f" hull {acd.acd_oracle(found)}, d = {acd.min_distance_oracle(found)}")

# --- q = 13: the search across all feasible (k, ell) ------------------------
tower13 = FieldTower(13, 1, 2)
print("\nq = 13 certificates (gamma = alpha):")
print(f"{'k':>2} {'ell':>3}  evaluation set{'':<26} hull  d  bound")
for k in (1, 2, 3):
    for ell in range(2 * k, 12):
        try:
            params = acd.lambda_search(tower13, k, ell)
        except acd.SearchFailedError as exc:
            print(f"{k:>2} {ell:>3}  none: {exc}")
            continue
        hull = acd.acd_oracle(params)
        d = (
            acd.min_distance_oracle(params)
            if tower13.q ** (2 * k) <= 10**5
            else None
        )
        lam = ",".join(str(x) for x in params.lambda_set)
        d_text = "-" if d is None else str(d)
        print(f"{k:>2} {ell:>3}  {{{lam:<38}}} {hull:>3} {d_text:>3} {ell - k + 1:>5}")

print("\n(the blank rows above ell = 12 - k reflect a genuine boundary:")
print(" once k + ell reaches q, the trace pairing is structurally singular")
print(" for every evaluation set, so no certifiable code exists there)")
