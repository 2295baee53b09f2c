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

A finite progression is the product of its factors (s - m)/(2*pi), each
the GR ratio GR(s - m + 2) / GR(s - m); for steps 1 and 2 the ratios
telescope, to at most four GRs whatever the count.  Its value at a point
is summed from the factors (:func:`finite_regdet_log`).  The closed forms
are added into the exponent tables of a :class:`GammaExpression`, each
tail by its own step; :func:`hurwitz_zeta_deriv0` evaluates
-zeta_block'(0) for mu = 1 by direct Euler-Maclaurin summation, with no
Gamma function anywhere, and serves as the independent numerical oracle
for all of the above.
"""

import math

from .cyclic import Progression
from .gamma import GammaExpression, SINGULARITY_GUARD, SingularEvaluationError
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


def add_tail_determinants(out: GammaExpression, tails,
                          k: int = 1) -> GammaExpression:
    """Multiply the k-th power of the block determinant of each infinite
    tail (first, step, multiplicity) into ``out``, in closed form."""
    for first, step, mu in tails:
        if step == 1:
            out.gc[-first] = out.gc.get(-first, 0) - k * mu
        elif step == 2:
            out.gr[-first] = out.gr.get(-first, 0) - k * mu
            out.halves += k * mu
        else:
            raise InputError(
                f"no closed form for infinite step-{step} progressions")
    return out


def regdet_progression(p: Progression) -> GammaExpression:
    """Exact closed form of the block determinant of one progression; a
    finite one is the product of GR(s - m + 2) / GR(s - m) over its terms."""
    out = GammaExpression()
    if p.multiplicity == 0 or p.count == 0:
        return out
    if p.count is None:
        return add_tail_determinants(out, ((p.first, p.step, p.multiplicity),))
    gr, mu = out.gr, p.multiplicity
    for a in range(-p.first, p.count * p.step - p.first, p.step):  # a = -m
        gr[a + 2] = gr.get(a + 2, 0) + mu
        gr[a] = gr.get(a, 0) - mu
    return out.clean()


def finite_regdet_log(p: Progression, s: float,
                      guard: float = SINGULARITY_GUARD):
    """(log|det|, sign) of a finite block at real s, summed from its
    factors (s - m)/2pi: left of the terms, the GR ratios have removable
    poles that :func:`evaluate_log` refuses.  A term m at most ``guard``
    from s raises, naming the pole GR(s - m) of its ratio."""
    total, sign, mu = 0.0, 1, p.multiplicity
    for m in range(p.first - (p.count - 1) * p.step, p.first + 1,
                   p.step) if mu else ():
        if s == m or abs(s - m) <= guard:
            raise SingularEvaluationError(f"GR(s{-m:+d}) singular near s={s}")
        total += mu * math.log(abs(s - m) / (2.0 * math.pi))
        if mu % 2 and s < m:
            sign = -sign
    return total, sign


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
