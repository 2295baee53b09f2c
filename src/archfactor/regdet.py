"""Zeta-regularized determinants of shifted eigenvalue progressions.

For an infinite descending progression m0, m0 - step, m0 - 2*step, ...
of eigenvalues of multiplicity mu, the determinant of (s - theta)/(2*pi)
restricted to that block is defined through the Hurwitz zeta function:
with x = (s - m0)/step and c = 2*pi/step,

    zeta_block(z) = mu * c^z * zeta_H(z, x),
    det = exp(-zeta_block'(0)).

Differentiating and using zeta_H(0, x) = 1/2 - x together with
zeta_H'(0, x) = log Gamma(x) - (1/2) log(2*pi) gives the closed forms

    step 1:  det = GC(s - m0)^(-mu)                (constant exactly 1)
    step 2:  det = 2^(mu/2) * GR(s - m0)^(-mu).

Finite progressions are plain products of the factors (s - m)/(2*pi).
The closed forms are added into the exponent tables of a
:class:`GammaExpression`; :func:`hurwitz_zeta_deriv0` evaluates
-zeta_block'(0) for mu = 1 by direct Euler-Maclaurin summation, with no
Gamma function anywhere, and serves as the independent numerical oracle
for all of the above.
"""

import math

from .cyclic import Progression
from .gamma import GammaExpression
from .hodge import InputError

# Euler-Maclaurin configuration: explicit terms, then B_2 .. B_12
# correction terms on the remainder.
_EM_TERMS = 10_000
_B_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def add_tail_determinants(out: GammaExpression, step: int, tails,
                          k: int = 1) -> GammaExpression:
    """Multiply the k-th power of the block determinant of each infinite
    tail (first, multiplicity) of one step into ``out``, in closed form."""
    if step not in (1, 2):
        raise InputError(
            f"no closed form for infinite step-{step} progressions")
    table, total = (out.gc if step == 1 else out.gr), 0
    for first, mu in tails:
        table[-first] = table.get(-first, 0) - k * mu
        total += mu
    if step == 2:
        out.halves += k * total
    return out


def regdet_progression(p: Progression) -> GammaExpression:
    """Exact closed form of the block determinant of one progression; a
    finite one is a plain product of linear factors."""
    out = GammaExpression()
    if p.multiplicity == 0 or p.count == 0:
        return out
    if p.count is None:
        return add_tail_determinants(out, p.step, ((p.first, p.multiplicity),))
    out.lin = {m: p.multiplicity for m in range(
        p.first - (p.count - 1) * p.step, p.first + 1, p.step)}
    return out


def hurwitz_zeta_deriv0(x: float, two_pi_over_delta: float) -> float:
    """-d/dz [ c^z * zeta_H(z, x) ] at z = 0 for c = two_pi_over_delta.

    This is log det for a single unit-multiplicity infinite progression
    with x = (s - m0)/delta, evaluated with no recourse to Gamma: the
    Hurwitz zeta value and derivative at 0 come from Euler-Maclaurin
    summation with 10^4 explicit terms and Bernoulli corrections through
    B_12.  Requires x > 0 and c > 0.
    """
    if x <= 0:
        raise InputError(f"need x > 0, got {x}")
    if two_pi_over_delta <= 0:
        raise InputError(f"need c > 0, got {two_pi_over_delta}")
    n = _EM_TERMS
    a = x + n
    log_a = math.log(a)
    # zeta_H(z, x) = sum_{k<n} (x+k)^-z + a^(1-z)/(z-1) + a^-z/2
    #               + sum_i B_2i/(2i)! * z(z+1)..(z+2i-2) * a^(-z-2i+1)
    # evaluated termwise at z = 0 and differentiated termwise in z.
    value0 = n - a + 0.5
    deriv0 = -math.fsum(math.log(x + k) for k in range(n))
    deriv0 += a * log_a - a - 0.5 * log_a
    for i, b2i in enumerate(_B_EVEN, start=1):
        deriv0 += b2i / ((2 * i) * (2 * i - 1)) * a ** (1 - 2 * i)
    return -(math.log(two_pi_over_delta) * value0 + deriv0)
