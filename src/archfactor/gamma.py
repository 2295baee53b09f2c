"""Exact formal products of shifted Gamma factors.

The one value type is :class:`GammaExpression`, a finite formal product

    2^(halves/2) * prod_a GR(s + a)^gr[a] * prod_a GC(s + a)^gc[a]

with integer shifts ``a``, integer exponents, and the power of 2 kept as
an integer number ``halves`` of square roots of 2.  A linear factor
needs no table of its own: GR(z+2) = (z/2pi) GR(z) writes (s - m)/2pi
as GR(s - m + 2) / GR(s - m).  The two Gamma building blocks are fixed
once and for all as

    GR(z) = pi^(-z/2)   * Gamma(z/2)      poles: z = 0, -2, -4, ...
    GC(z) = (2*pi)^(-z) * Gamma(z)        poles: z = 0, -1, -2, ...

Note the deliberate absence of an extra factor 2 in GC.  Under this
convention the zeta-regularized product of the arithmetic progression
(s - m0 + k), k >= 0, rescaled by 2*pi, is exactly GC(s - m0)^(-1) with
constant 1, and the duplication formula picks up a 2:

    GR(z) * GR(z+1) = 2 * GC(z).

A step-2 progression gives 2^(mu/2) * GR(s - m0)^(-mu), so a whole
number of halves is the only prefactor a determinant or a normal form
ever carries.  With duplication, every expression is 2^(h/2) times GRs
alone, at most two for each of its factors: the normal form.

Products are built in place, one dict update per term
(:meth:`GammaExpression.add`), and cleaned once at the end
(:meth:`GammaExpression.clean`).  All structural operations
(:func:`product`, the canonical form :func:`normalize`, and the zero and
pole orders :func:`order_at` and :func:`nearest_divisor_point`) are
exact integer arithmetic.  Only :func:`evaluate_log` leaves the exact
world; it works in the log domain with an explicit sign, so large
exponents never overflow.
"""

import math
import types

from .hodge import InputError

LN2 = math.log(2.0)
LNPI = math.log(math.pi)
LN2PI = math.log(2.0 * math.pi)

#: Default radius around a zero or pole inside which evaluation refuses
#: to run rather than return a huge, meaningless float.
SINGULARITY_GUARD = 1e-9


class SingularEvaluationError(InputError):
    """Numeric evaluation was requested on or too close to a zero/pole."""


class EvaluationRangeError(InputError):
    """A log value at a finite point does not fit in a float."""


def _nonzero(table) -> dict:
    return {k: e for k, e in table.items() if e}


class GammaExpression:
    """A formal product of GR and GC factors and a power of 2.

    ``gr`` maps a shift ``a`` to the exponent of GR(s+a), ``gc`` likewise
    for GC(s+a); the prefactor is 2^(halves/2).  The tables are mutable
    and may hold zero exponents until :meth:`clean`; two expressions are
    equal exactly when their nonzero exponents and ``halves`` agree.
    """

    __slots__ = ("gr", "gc", "halves")
    # empty and read-only, for benchmark/spans.py _terms (ROADMAP item 2)
    lin = types.MappingProxyType({})

    def __init__(self, gr=None, gc=None, halves=0):
        self.gr = {} if gr is None else gr
        self.gc = {} if gc is None else gc
        self.halves = halves

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.halves == other.halves
                and _nonzero(self.gr) == _nonzero(other.gr)
                and _nonzero(self.gc) == _nonzero(other.gc))

    def __repr__(self) -> str:
        return f"<GammaExpression {render(self)}>"

    def add(self, x: "GammaExpression", k: int = 1) -> "GammaExpression":
        """Multiply x^k in, in place."""
        for out, table in ((self.gr, x.gr), (self.gc, x.gc)):
            for key, e in table.items():
                out[key] = out.get(key, 0) + k * e
        self.halves += k * x.halves
        return self

    def clean(self) -> "GammaExpression":
        """Drop zero exponents and sort each table by key, in place: the
        order in which :func:`evaluate_log` sums and guards."""
        self.gr = {a: e for a, e in sorted(self.gr.items()) if e}
        self.gc = {a: e for a, e in sorted(self.gc.items()) if e}
        return self


def product(factors) -> GammaExpression:
    """Formal product of any number of expressions, built in one pass:
    exponents add, halves add.  The empty product is 1."""
    out = GammaExpression()
    for x in factors:
        out.add(x)
    return out.clean()


def order_at(x: GammaExpression, m: int) -> int:
    """Order of vanishing of x at s = m (negative for a pole).

    GR(s+a) has simple poles where m+a is a nonpositive even integer,
    GC(s+a) wherever m+a is a nonpositive integer.  The prefactor never
    vanishes.
    """
    ord_ = 0
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

    In the normal form the order at m is minus the sum of the e_a over
    the shifts a <= -m with a = m mod 2.  So along a residue class it is
    constant on each run m = -a, -a - 2, ..., 2 - b, with b the next
    shift of the class after a, or without end after the last; each run
    of nonzero order offers its point nearest 0.  The cost follows the
    number of shifts, not how far the point lies from 0.
    """
    gr, points = normal_exponents(x), []
    for r in (0, 1):
        shifts = sorted(a for a in gr if a % 2 == r)
        order = 0
        for a, b in zip(shifts, [*shifts[1:], None]):
            order -= gr[a]
            if order:
                points.append(min(-r if b is None else max(2 - b, -r), -a))
    return min(points, key=lambda m: (abs(m), m), default=None)


def normal_exponents(x: GammaExpression) -> dict:
    """The GR exponents of :func:`normalize` (x), zeros not yet dropped."""
    gr = dict(x.gr)
    for a, e in x.gc.items():
        gr[a] = gr.get(a, 0) + e
        gr[a + 1] = gr.get(a + 1, 0) + e
    return gr


def normalize(x: GammaExpression) -> GammaExpression:
    """The canonical form 2^(h/2) * prod_a GR(s+a)^(e_a) of x, as a new,
    clean expression: no GC, no zero exponent.

    Duplication writes GC(z) as 2^(-1) GR(z) GR(z+1), so the form has at
    most two factors per factor of x, whatever the shifts.  Two
    expressions have the same value exactly when their normal forms are
    equal: along each residue class mod 2 the pole orders are the partial
    sums of the e_a, so the divisor fixes every e_a, and what is left,
    2^(h/2), fixes h.
    """
    return GammaExpression(normal_exponents(x),
                           halves=x.halves - 2 * sum(x.gc.values())).clean()


def loggamma_signed(z: float):
    """(log|Gamma(z)|, sign of Gamma(z)) for real non-pole z.

    For z < 0 the sign alternates between consecutive poles; Gamma is
    positive on (-2,-1), negative on (-1,0), and so on, which is the
    parity of floor(z).
    """
    if z <= 0 and z == math.floor(z):
        raise SingularEvaluationError(f"Gamma pole at z={z}")
    sign = 1 if z > 0 or int(math.floor(z)) % 2 == 0 else -1
    try:
        return math.lgamma(z), sign
    except OverflowError:  # |Gamma(z)| beyond every float
        return math.inf, sign


def evaluate_log(x: GammaExpression, s: float, guard: float = SINGULARITY_GUARD):
    """(log|x(s)|, sign of x(s)) for real s away from zeros and poles.

    One pass guards and evaluates each factor, GR before GC, each table in
    its own order (sorted, once cleaned).  :class:`SingularEvaluationError`
    names the first one at most ``guard`` from a pole; on a pole it is
    raised whatever the guard, which covers the divisor and removable
    singularities, where termwise log evaluation is impossible.
    :class:`EvaluationRangeError` if log|x(s)| is not a finite float.
    """
    total = x.halves / 2 * LN2
    sign = 1
    for table, scale, log_c, name in ((x.gr, 2.0, LNPI, "GR"),
                                      (x.gc, 1.0, LN2PI, "GC")):
        for a, e in table.items():
            z = (s + a) / scale
            if 0.5 < z < 1e300:  # no pole near, Gamma > 0, lgamma finite
                total += e * (math.lgamma(z) - z * log_c)
                continue
            k = round(z)
            if k <= 0 and abs(z - k) <= guard:
                raise SingularEvaluationError(
                    f"{name}(s{a:+d}) singular near s={s}")
            lg, sg = loggamma_signed(z)
            total += e * (lg - z * log_c)
            if e % 2 and sg < 0:
                sign = -sign
    if not math.isfinite(total):
        raise EvaluationRangeError(f"log|value| overflows a float at s={s}")
    return total, sign


def _a2(halves: int) -> str:
    """The exponent halves/2 of 2 in lowest terms: ``3``, ``-1/2``."""
    return str(halves // 2) if halves % 2 == 0 else f"{halves}/2"


def render(x: GammaExpression) -> str:
    """Plain-text form, e.g. ``2^(1/2) * GR(s-1)^-1 * GC(s+2)^1``."""
    parts = []
    if x.halves:
        parts.append(f"2^({_a2(x.halves)})")
    for a, e in sorted(x.gr.items()):
        parts.append(f"GR(s{a:+d})^{e}")
    for a, e in sorted(x.gc.items()):
        parts.append(f"GC(s{a:+d})^{e}")
    return " * ".join(parts) if parts else "1"


def expression_to_json(x: GammaExpression) -> dict:
    """JSON-stable dict form; exponent tables keyed by stringified ints,
    the prefactor as the exponent a2 = halves/2 of 2."""
    return {
        "gr": {str(a): e for a, e in sorted(x.gr.items())},
        "gc": {str(a): e for a, e in sorted(x.gc.items())},
        # lin (linear factors), b2, api and bpi (2^s, pi, pi^s) are always
        # empty or 0 here, but benchmark/reference.py expression_log reads
        # each of these keys
        "lin": {},
        "pre": {"a2": _a2(x.halves), "b2": "0", "api": "0", "bpi": "0"},
    }
