"""The full identity, end to end.

For every input the package builds, weight by weight, the local factor
with its alternating sign (left side) and the ratio of regularized
determinants of that weight's scaling spectrum, even over odd (right
side).  The verdict is exact: the canonical form of left over right must
be a constant, 1 over C and a power of sqrt(2) over R.  The divisor of
the product of these residues, read off its canonical form, says where
a mismatch would show, and the ratio of the two sides evaluated at
sample points is reported alongside as an independent check.
"""

import math

from archfactor import (PRESET_NAMES, GammaExpression, HodgeData, Place,
                        Progression, WeightPiece,
                        completed_alternating_product, preset,
                        regdet_progression, render, theta_spectrum,
                        verify_theorem)

print(f"{'input':12s} {'residue':10s} {'divisor':8s} {'constant log':>14s}"
      f" {'spread':>9s}")
for name in PRESET_NAMES:
    report = verify_theorem(preset(name))
    print(f"{name:12s} {render(report.residue):10s}"
          f" {'match' if report.divisor_match else 'MISMATCH':8s}"
          f" {report.constant_log:+14.8f} {report.constant_stddev:9.2e}")

print("\nconstants in units of (1/2) log 2:")
for name in ("point_R", "P1_R", "elliptic_R"):
    c = verify_theorem(preset(name)).constant_log
    print(f"  {name:12s} {c / (0.5 * math.log(2)):+.6f}")

# both sides, written out for the elliptic curve over R
data = preset("elliptic_R")
lhs = completed_alternating_product(data)
measure = theta_spectrum(data)
rhs = GammaExpression()  # even-parity determinants over odd-parity ones
for tails, k in ((measure.even, 1), (measure.odd, -1)):
    for first, step, mult in tails:
        rhs.add(regdet_progression(Progression(first, step, None, mult)), k)
rhs.clean()
print(f"\nelliptic_R LHS: {render(lhs)}")
print(f"elliptic_R RHS: {render(rhs)}")

# a quartic surface over C, input by hand
quartic = HodgeData(
    "quartic_surface_C", 2, Place.COMPLEX,
    (WeightPiece(0, {(0, 0): 1}),
     WeightPiece(2, {(2, 0): 1, (1, 1): 20, (0, 2): 1}),
     WeightPiece(4, {(2, 2): 1})))
report = verify_theorem(quartic)
print(f"\n{quartic.name}: ok={report.ok()}, "
      f"constant log = {report.constant_log:+.3e}")
print("per weight:", dict(report.per_weight))
