"""Exact formal products of shifted Gamma factors.

The basic object is :class:`GammaExpression`, a finite formal product

    2^(a2 + b2*s) * pi^(api + bpi*s)
      * prod_a GR(s + a)^gr[a]
      * prod_a GC(s + a)^gc[a]
      * prod_m ((s - m) / (2*pi))^lin[m]

with integer shifts ``a``, integer exponents, integer roots ``m`` of the
linear factors, and exact rational prefactor coefficients.  The two
Gamma building blocks are fixed once and for all as

    GR(z) = pi^(-z/2)   * Gamma(z/2)      poles: z = 0, -2, -4, ...
    GC(z) = (2*pi)^(-z) * Gamma(z)        poles: z = 0, -1, -2, ...

Note the deliberate absence of an extra factor 2 in GC.  Under this
convention the zeta-regularized product of the arithmetic progression
(s - m0 + k), k >= 0, rescaled by 2*pi, is exactly GC(s - m0)^(-1) with
constant 1, and the duplication formula picks up a 2:

    GR(z) * GR(z+1) = 2 * GC(z).

All structural operations (:func:`product`, :func:`power`, the
canonical form :func:`normalize`, and the zero and pole orders
:func:`order_at` and :func:`nearest_divisor_point`) are exact
integer/rational arithmetic.  Only :func:`evaluate_log` leaves the
exact world; it works in the log domain with an explicit sign, so large
exponents never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

LN2 = math.log(2.0)
LNPI = math.log(math.pi)
LN2PI = math.log(2.0 * math.pi)

#: Default radius around a zero or pole inside which evaluation refuses
#: to run rather than return a huge, meaningless float.
SINGULARITY_GUARD = 1e-9


class SingularEvaluationError(ValueError):
    """Numeric evaluation was requested on or too close to a zero/pole."""


def _clean(table) -> dict:
    # canonical form: integer keys/values, zero exponents dropped, sorted
    out = {}
    for k, v in sorted(table.items()):
        v = int(v)
        if v:
            out[int(k)] = v
    return out


@dataclass(frozen=True)
class GammaExpression:
    """A formal product of GR/GC factors, linear factors and a prefactor.

    ``gr`` maps a shift ``a`` to the exponent of GR(s+a), ``gc`` likewise
    for GC(s+a), and ``lin`` maps an integer ``m`` to the exponent of
    ((s-m)/2pi).  The prefactor is 2^(a2+b2*s) * pi^(api+bpi*s) with
    exact rational coefficients.  Instances are value objects: two
    expressions are equal exactly when all five components agree.
    """

    gr: dict = field(default_factory=dict)
    gc: dict = field(default_factory=dict)
    lin: dict = field(default_factory=dict)
    a2: Fraction = Fraction(0)
    b2: Fraction = Fraction(0)
    api: Fraction = Fraction(0)
    bpi: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "gr", _clean(self.gr))
        object.__setattr__(self, "gc", _clean(self.gc))
        object.__setattr__(self, "lin", _clean(self.lin))
        for name in ("a2", "b2", "api", "bpi"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def is_identity(self) -> bool:
        return not (self.gr or self.gc or self.lin
                    or self.a2 or self.b2 or self.api or self.bpi)

    def __str__(self) -> str:
        return render(self)


def identity() -> GammaExpression:
    """The empty product."""
    return GammaExpression()


def gamma_r(shift: int = 0, exponent: int = 1) -> GammaExpression:
    """GR(s + shift)^exponent."""
    return GammaExpression(gr={shift: exponent})


def gamma_c(shift: int = 0, exponent: int = 1) -> GammaExpression:
    """GC(s + shift)^exponent."""
    return GammaExpression(gc={shift: exponent})


def linear(m: int, exponent: int = 1) -> GammaExpression:
    """((s - m) / 2pi)^exponent."""
    return GammaExpression(lin={m: exponent})


def prefactor(a2=0, b2=0, api=0, bpi=0) -> GammaExpression:
    """The bare constant 2^(a2+b2*s) * pi^(api+bpi*s)."""
    return GammaExpression(a2=Fraction(a2), b2=Fraction(b2),
                           api=Fraction(api), bpi=Fraction(bpi))


def product(factors) -> GammaExpression:
    """Formal product of any number of expressions, built in one pass:
    exponents add, prefactor coefficients add.  The empty product is
    the identity."""
    gr, gc, lin = {}, {}, {}
    a2 = b2 = api = bpi = Fraction(0)
    for x in factors:
        for out, table in ((gr, x.gr), (gc, x.gc), (lin, x.lin)):
            for k, v in table.items():
                out[k] = out.get(k, 0) + v
        a2, b2, api, bpi = a2 + x.a2, b2 + x.b2, api + x.api, bpi + x.bpi
    return GammaExpression(gr=gr, gc=gc, lin=lin,
                           a2=a2, b2=b2, api=api, bpi=bpi)


def power(x: GammaExpression, k: int) -> GammaExpression:
    """x^k for any integer k (k = 0 gives the identity, k < 0 inverts)."""
    k = int(k)
    return GammaExpression(
        gr={a: e * k for a, e in x.gr.items()},
        gc={a: e * k for a, e in x.gc.items()},
        lin={m: e * k for m, e in x.lin.items()},
        a2=x.a2 * k, b2=x.b2 * k, api=x.api * k, bpi=x.bpi * k,
    )


def order_at(x: GammaExpression, m: int) -> int:
    """Order of vanishing of x at s = m (negative for a pole).

    GR(s+a) has simple poles where m+a is a nonpositive even integer,
    GC(s+a) wherever m+a is a nonpositive integer, and a linear factor
    contributes its exponent at its root.  The prefactor never vanishes.
    """
    ord_ = x.lin.get(m, 0)
    for a, e in x.gr.items():
        z = m + a
        if z <= 0 and z % 2 == 0:
            ord_ -= e
    for a, e in x.gc.items():
        if m + a <= 0:
            ord_ -= e
    return ord_


def nearest_divisor_point(x: GammaExpression):
    """The zero or pole of x nearest to 0, ties to the negative side;
    None when x has neither.

    With R the largest |root| or |shift|, the order is 0 for m > R and
    2-periodic for m < -R, so if x has a zero or pole at all, it has
    one with |m| <= R + 2.
    """
    reach = max(map(abs, (*x.lin, *x.gr, *x.gc)), default=0) + 2
    for k in range(reach + 1):
        for m in sorted({-k, k}):
            if order_at(x, m):
                return m
    return None


def normalize(x: GammaExpression) -> GammaExpression:
    """The canonical form GR(s)^u * GR(s+1)^v * linear factors * prefactor.

    Duplication, GC(z) = 2^(-1) GR(z) GR(z+1), removes every GC; the
    step-2 shift, GR(z+2) = (z/2pi) GR(z), moves GR(s+a) to
    GR(s + a mod 2), booking one linear factor per step.  Two expressions
    have the same value exactly when their normal forms are equal: far
    to the left the pole orders fix u and v, the rational part fixes the
    linear factors, and as log 2 and log pi are independent over Q the
    value fixes the prefactor.
    """
    shifts = dict(x.gr)
    a2 = x.a2
    for a, e in x.gc.items():
        shifts[a] = shifts.get(a, 0) + e
        shifts[a + 1] = shifts.get(a + 1, 0) + e
        a2 -= e
    gr: dict = {}
    lin = dict(x.lin)
    for a, e in shifts.items():
        r = a % 2
        gr[r] = gr.get(r, 0) + e
        # GR(s+a) = GR(s+r) * prod ((s+b)/2pi)^sign, with b running by 2
        # from min(a, r) up to, not including, max(a, r)
        sign = 1 if a > r else -1
        for b in range(min(a, r), max(a, r), 2):
            lin[-b] = lin.get(-b, 0) + sign * e
    return GammaExpression(gr=gr, lin=lin,
                           a2=a2, b2=x.b2, api=x.api, bpi=x.bpi)


def loggamma_signed(z: float):
    """(log|Gamma(z)|, sign of Gamma(z)) for real non-pole z.

    For z < 0 the sign alternates between consecutive poles; Gamma is
    positive on (-2,-1), negative on (-1,0), and so on, which is the
    parity of floor(z).
    """
    if z <= 0 and z == math.floor(z):
        raise SingularEvaluationError(f"Gamma pole at z={z}")
    sign = 1 if z > 0 or int(math.floor(z)) % 2 == 0 else -1
    return math.lgamma(z), sign


def evaluate_log(x: GammaExpression, s: float, guard: float = SINGULARITY_GUARD):
    """(log|x(s)|, sign of x(s)) for real s away from zeros and poles.

    Raises :class:`SingularEvaluationError` when s is within ``guard``
    of a point where some individual factor vanishes or blows up.  This
    covers every point of the divisor and also removable singularities,
    where termwise log evaluation is impossible.
    """
    for a in x.gr:
        half = (s + a) / 2.0
        k = round(half)
        if k <= 0 and abs(half - k) < guard:
            raise SingularEvaluationError(f"GR(s{a:+d}) singular near s={s}")
    for a in x.gc:
        z = s + a
        k = round(z)
        if k <= 0 and abs(z - k) < guard:
            raise SingularEvaluationError(f"GC(s{a:+d}) singular near s={s}")
    for m in x.lin:
        if abs(s - m) < guard:
            raise SingularEvaluationError(f"linear factor root m={m} near s={s}")

    total = (float(x.a2) + float(x.b2) * s) * LN2
    total += (float(x.api) + float(x.bpi) * s) * LNPI
    sign = 1
    for a, e in x.gr.items():
        half = (s + a) / 2.0
        lg, sg = loggamma_signed(half)
        total += e * (lg - half * LNPI)
        if e % 2 and sg < 0:
            sign = -sign
    for a, e in x.gc.items():
        z = s + a
        lg, sg = loggamma_signed(z)
        total += e * (lg - z * LN2PI)
        if e % 2 and sg < 0:
            sign = -sign
    for m, e in x.lin.items():
        v = (s - m) / (2.0 * math.pi)
        total += e * math.log(abs(v))
        if e % 2 and v < 0:
            sign = -sign
    return total, sign


def _fmt_shift(a: int) -> str:
    return f"s{a:+d}"


def _fmt_coeff_pair(base: str, c0: Fraction, c1: Fraction) -> str:
    if c1 == 0:
        return f"{base}^({c0})"
    sign = "+" if c1 >= 0 else "-"
    return f"{base}^({c0}{sign}{abs(c1)} s)"


def render(x: GammaExpression) -> str:
    """Plain-text form, e.g. ``2^(1/2) * GR(s-1)^-1 * ((s+2)/2pi)^1``."""
    parts = []
    if x.a2 or x.b2:
        parts.append(_fmt_coeff_pair("2", x.a2, x.b2))
    if x.api or x.bpi:
        parts.append(_fmt_coeff_pair("pi", x.api, x.bpi))
    for a, e in sorted(x.gr.items()):
        parts.append(f"GR({_fmt_shift(a)})^{e}")
    for a, e in sorted(x.gc.items()):
        parts.append(f"GC({_fmt_shift(a)})^{e}")
    for m, e in sorted(x.lin.items()):
        parts.append(f"(({_fmt_shift(-m)})/2pi)^{e}")
    return " * ".join(parts) if parts else "1"


def expression_to_json(x: GammaExpression) -> dict:
    """JSON-stable dict form; exponent tables keyed by stringified ints."""
    return {
        "gr": {str(a): e for a, e in sorted(x.gr.items())},
        "gc": {str(a): e for a, e in sorted(x.gc.items())},
        "lin": {str(m): e for m, e in sorted(x.lin.items())},
        "pre": {"a2": str(x.a2), "b2": str(x.b2),
                "api": str(x.api), "bpi": str(x.bpi)},
    }
