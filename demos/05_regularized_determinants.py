"""Zeta-regularized determinants of eigenvalue progressions.

An infinite descending progression of eigenvalues has a divergent
characteristic product; zeta regularization assigns it a finite value,
and for integer progressions that value closes up in Gamma functions:

    eigenvalues m0, m0-1, m0-2, ...   ->   GC(s - m0)^(-1)     exactly
    eigenvalues m0, m0-2, m0-4, ...   ->   2^(1/2) GR(s - m0)^(-1)

The series route (Euler-Maclaurin on the Hurwitz zeta derivative) knows
nothing about Gamma functions, which makes it an honest cross-check.
"""

import math

from archfactor import (Progression, evaluate_log, hurwitz_zeta_deriv0,
                        normalize, product, regdet_progression, render)

print("closed forms:")
for step in (1, 2):
    p = Progression(0, step, None, 1)
    print(f"  step {step}: det(s - theta)/2pi over {{0, {-step}, ...}} "
          f"= {render(regdet_progression(p))}")

print("\nclosed form vs series oracle (step 1, eigenvalues 0, -1, -2, ...):")
expr = regdet_progression(Progression(0, 1, None, 1))
for s in (0.7, 1.5, 3.2):
    closed, _ = evaluate_log(expr, s)
    oracle = hurwitz_zeta_deriv0(s, 2 * math.pi)
    print(f"  s={s}: closed {closed:+.12f}   series {oracle:+.12f}   "
          f"diff {abs(closed - oracle):.2e}")

# at s = 1 the determinant over {1, 2, 3, ...}/2pi is exactly 2pi
print(f"\nat s=1: exp(log det) = {math.exp(hurwitz_zeta_deriv0(1.0, 2*math.pi)):.12f}"
      f"   (2 pi = {2*math.pi:.12f})")

print("\nsplitting invariance: one step-1 progression equals its two "
      "step-2 halves,")
print("because the two 2^(1/2) constants cancel the duplication factor 2:")
whole = regdet_progression(Progression(0, 1, None, 1))
halves = product((regdet_progression(Progression(0, 2, None, 1)),
                  regdet_progression(Progression(-1, 2, None, 1))))
print(f"  halves:            {render(halves)}")
print(f"  whole:             {render(whole)}")
print(f"  normalize(halves): {render(normalize(halves))}")
print(f"  normalize(whole):  {render(normalize(whole))}")
assert normalize(halves) == normalize(whole)
