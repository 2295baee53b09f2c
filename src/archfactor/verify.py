"""End-to-end check that the completed Gamma-factor product and the
regularized-determinant ratio agree.

The left side multiplies the classical local factors with alternating
exponents; the right side regularizes the spectrum of the scaling
generator block by block.  The verdict is exact and per weight: the
normal form of LHS_w / RHS_w must be a constant the theorem allows, 1
over C and a power of sqrt(2) over R.  The divisors of the whole
products on an integer window, tails included, and log(LHS/RHS) at
sample points are reported alongside: the first explains a mismatch,
the second checks the constant in floating point.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .cyclic import weight_spectrum
from .factors import serre_factor
from .gamma import (SINGULARITY_GUARD, Divisor, GammaExpression, divisor_of,
                    evaluate_log, identity, multiply, normalize, order_at,
                    power, render)
from .hodge import HodgeData, Place, validate
from .regdet import regdet_measure


def compare_divisors(a: Divisor, b: Divisor):
    """(equal, witness): pointwise equality on the common window plus
    equality of tail constants.  The witness is the smallest-|m|
    disagreement point, or None when equal.
    """
    if (a.lo, a.hi) != (b.lo, b.hi):
        raise ValueError("divisors computed on different windows")
    cover = min(a.tail_from, b.tail_from)
    if cover < a.lo - 1:
        raise ValueError(
            f"window [{a.lo},{a.hi}] too narrow to certify tails "
            f"(stable only from {cover})")
    worst = None
    for m in range(a.lo, a.hi + 1):
        if a.orders.get(m, 0) != b.orders.get(m, 0):
            if worst is None or (abs(m), m) < (abs(worst), worst):
                worst = m
    if worst is not None:
        return False, worst
    if (a.tail_even, a.tail_odd) != (b.tail_even, b.tail_odd):
        even_bad = a.tail_even != b.tail_even
        odd_bad = a.tail_odd != b.tail_odd
        cands = [m for m in (a.lo - 1, a.lo - 2)
                 if (even_bad if m % 2 == 0 else odd_bad)]
        return False, min(cands, key=lambda m: (abs(m), m))
    return True, None


@dataclass(frozen=True)
class SamplePoint:
    s: float
    lhs_log: float
    rhs_log: float
    signs_agree: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    ``per_weight`` says for each weight whether normalize(LHS_w / RHS_w)
    is an allowed constant; ``residue`` is their product, LHS / RHS.
    ``constant_log`` and ``constant_stddev`` are the mean and spread of
    log(LHS) - log(RHS) over the samples, reported, not asserted.
    """

    name: str
    divisor_match: bool
    mismatch_witness: int | None
    window: tuple
    per_weight: tuple
    residue: GammaExpression
    constant_log: float
    constant_stddev: float
    samples: tuple

    def ok(self) -> bool:
        return (self.divisor_match
                and all(match for _, match in self.per_weight)
                and all(p.signs_agree for p in self.samples))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok(),
            "divisor_match": self.divisor_match,
            "mismatch_witness": self.mismatch_witness,
            "window": list(self.window),
            "per_weight": [[w, match] for w, match in self.per_weight],
            "residue": render(self.residue),
            "constant_log": self.constant_log,
            "constant_stddev": self.constant_stddev,
            "samples": [{"s": p.s, "lhs_log": p.lhs_log,
                         "rhs_log": p.rhs_log,
                         "signs_agree": p.signs_agree}
                        for p in self.samples],
        }


def _check_samples(samples, exprs, min_dist=1e-6):
    for s in samples:
        for m in (math.floor(s), math.ceil(s)):
            if abs(s - m) < min_dist and any(order_at(x, m) for x in exprs):
                raise ValueError(
                    f"sample s={s} within {min_dist} of divisor point m={m}")


def _is_allowed_constant(residue: GammaExpression, place: Place) -> bool:
    """Whether a normal form is 2^(k/2) for an integer k, with k = 0 at
    a complex place: the constants the theorem allows."""
    return (not (residue.gr or residue.gc or residue.lin)
            and residue.b2 == residue.api == residue.bpi == 0
            and (2 * residue.a2).denominator == 1
            and (place is Place.REAL or residue.a2 == 0))


def verify_theorem(data: HodgeData, samples=None, window=None,
                   guard: float = SINGULARITY_GUARD) -> VerificationReport:
    """Compare the completed factor product against the determinant
    ratio of the scaling spectrum, weight by weight and exactly.

    Each weight's spectrum is built once.  Default sample points sit to
    the right of every zero and pole; the default window reaches low
    enough that both tails are certified.
    """
    bad = validate(data)
    if bad:
        raise ValueError("invalid data: " + "; ".join(bad))

    d = data.dim
    if samples is None:
        samples = tuple(d + off for off in (0.7, 1.6, 2.5, 3.4))
    else:
        samples = tuple(float(s) for s in samples)
        if not samples:
            raise ValueError("need at least one sample point")
    if window is None:
        lo, hi = -30, max(5, d + 2)
    else:
        lo, hi = int(window[0]), int(window[1])
    lo = min(lo, math.floor(min(samples)) - 5, -20)
    hi = max(hi, d + 2)

    lhs = rhs = residue = identity()
    per_weight = []
    for w in range(0, 2 * d + 1):
        piece = data.piece(w)
        sign = 1 if w % 2 else -1
        lhs_w = (power(serre_factor(piece, data.place), sign)
                 if piece is not None else identity())
        rhs_w = regdet_measure(weight_spectrum(data, w)).ratio
        residue_w = normalize(multiply(lhs_w, power(rhs_w, -1)))
        per_weight.append((w, _is_allowed_constant(residue_w, data.place)))
        lhs = multiply(lhs, lhs_w)
        rhs = multiply(rhs, rhs_w)
        residue = multiply(residue, residue_w)
    _check_samples(samples, (lhs, rhs))

    divisor_match, witness = compare_divisors(
        divisor_of(lhs, (lo, hi)), divisor_of(rhs, (lo, hi)))

    points = []
    diffs = []
    for s in samples:
        l_log, l_sign = evaluate_log(lhs, s, guard)
        r_log, r_sign = evaluate_log(rhs, s, guard)
        points.append(SamplePoint(s, l_log, r_log, l_sign == r_sign))
        diffs.append(l_log - r_log)

    return VerificationReport(
        name=data.name,
        divisor_match=divisor_match,
        mismatch_witness=witness,
        window=(lo, hi),
        per_weight=tuple(per_weight),
        residue=residue,
        constant_log=statistics.fmean(diffs),
        constant_stddev=statistics.pstdev(diffs),
        samples=tuple(points),
    )
