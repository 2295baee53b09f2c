"""End-to-end check that the completed Gamma-factor product and the
regularized-determinant ratio agree.

The left side multiplies the classical local factors with alternating
exponents; the right side regularizes the spectrum of the scaling
generator block by block.  The verdict is exact and per weight: the
normal form of LHS_w / RHS_w must be a constant the theorem allows, 1
over C and a power of sqrt(2) over R.  Two readings are reported
alongside, neither gating the verdict: the divisor of the whole residue
LHS / RHS, read off its normal form, names the point nearest 0 where a
mismatch shows, and log(LHS/RHS) at sample points checks the constant in
floating point, where a sign disagreement under an exact match is a bug.
"""

import statistics

from .cyclic import weight_spectrum
from .factors import serre_tables
from .gamma import (LN2, SINGULARITY_GUARD, GammaExpression, Tables,
                    evaluate_log, nearest_divisor_point, normal_tables, render)
from .hodge import HodgeData, Place, validate
from .regdet import ratio_tables


class SamplePoint:
    __slots__ = ("s", "lhs_log", "rhs_log", "signs_agree")

    def __init__(self, s: float, lhs_log: float, rhs_log: float,
                 signs_agree: bool):
        self.s = s
        self.lhs_log = lhs_log
        self.rhs_log = rhs_log
        self.signs_agree = signs_agree


class VerificationReport:
    """Outcome of one verification run.

    ``per_weight`` says for each weight present in the input whether
    normalize(LHS_w / RHS_w) is an allowed constant; :meth:`ok` is
    exactly the conjunction of these.  ``residue`` is their product,
    LHS / RHS.  ``divisor_match`` says whether the residue has neither
    zeros nor poles, which :meth:`ok` implies; if it has,
    ``mismatch_witness`` is the one nearest 0.
    ``constant_log`` is log of the residue if that is a constant, else
    the mean of log(LHS) - log(RHS) over the samples, and
    ``constant_stddev`` their spread; neither is asserted.
    """

    __slots__ = ("name", "divisor_match", "mismatch_witness", "per_weight",
                 "residue", "constant_log", "constant_stddev", "samples")

    def __init__(self, name: str, divisor_match: bool,
                 mismatch_witness: int | None, per_weight: tuple,
                 residue: GammaExpression, constant_log: float,
                 constant_stddev: float, samples: tuple):
        self.name = name
        self.divisor_match = divisor_match
        self.mismatch_witness = mismatch_witness
        self.per_weight = per_weight
        self.residue = residue
        self.constant_log = constant_log
        self.constant_stddev = constant_stddev
        self.samples = samples

    def ok(self) -> bool:
        return all(match for _, match in self.per_weight)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok(),
            "divisor_match": self.divisor_match,
            "mismatch_witness": self.mismatch_witness,
            "per_weight": [[w, match] for w, match in self.per_weight],
            "residue": render(self.residue),
            "constant_log": self.constant_log,
            "constant_stddev": self.constant_stddev,
            "samples": [{"s": p.s, "lhs_log": p.lhs_log,
                         "rhs_log": p.rhs_log,
                         "signs_agree": p.signs_agree}
                        for p in self.samples],
        }


def _is_constant(x) -> bool:
    """Whether the normal form x, tables or expression, is free of s."""
    return not any((*x.gr.values(), *x.lin.values()))


def _is_allowed_constant(residue, place: Place) -> bool:
    """Whether a normal form is 2^(k/2) for an integer k, with k = 0 at
    a complex place: the constants the theorem allows."""
    return (_is_constant(residue) and (2 * residue.a2).denominator == 1
            and (place is Place.REAL or residue.a2 == 0))


def verify_theorem(data: HodgeData, samples=None,
                   guard: float = SINGULARITY_GUARD) -> VerificationReport:
    """Compare the completed factor product against the determinant
    ratio of the scaling spectrum, weight by weight and exactly.

    Only the weights present in the data are visited, each building its
    local factor and its spectrum once: an absent weight is 1 on both
    sides, so the cost follows the nonzero Hodge data, and ``dim`` only
    places the default sample points, to the right of every zero and
    pole.  Each weight adds into integer exponent tables; only LHS, RHS
    and residue are built as expressions.
    """
    bad = validate(data)
    if bad:
        raise ValueError("invalid data: " + "; ".join(bad))

    if samples is None:
        samples = tuple(data.dim + off for off in (0.7, 1.6, 2.5, 3.4))
    else:
        samples = tuple(float(s) for s in samples)
        if not samples:
            raise ValueError("need at least one sample point")

    lhs, rhs, residue = Tables(), Tables(), Tables()
    per_weight = []
    for piece in data.weights:
        w = piece.w
        lhs.add(lhs_w := serre_tables(piece, data.place, 1 if w % 2 else -1))
        rhs.add(rhs_w := ratio_tables(weight_spectrum(data, w)))
        residue_w = normal_tables(lhs_w.add(rhs_w, -1))
        per_weight.append((w, _is_allowed_constant(residue_w, data.place)))
        residue.add(residue_w)
    lhs, rhs, residue = (t.expression() for t in (lhs, rhs, residue))
    witness = nearest_divisor_point(residue)

    points = []
    diffs = []
    for s in samples:
        l_log, l_sign = evaluate_log(lhs, s, guard)
        r_log, r_sign = evaluate_log(rhs, s, guard)
        if l_sign != r_sign and all(match for _, match in per_weight):
            raise RuntimeError(f"LHS and RHS differ in sign at s={s} although "
                               "LHS/RHS is an allowed constant")
        points.append(SamplePoint(s, l_log, r_log, l_sign == r_sign))
        diffs.append(l_log - r_log)

    return VerificationReport(
        name=data.name,
        divisor_match=witness is None,
        mismatch_witness=witness,
        per_weight=tuple(per_weight),
        residue=residue,
        constant_log=(float(residue.a2) * LN2 if _is_constant(residue)
                      else statistics.fmean(diffs)),
        constant_stddev=statistics.pstdev(diffs),
        samples=tuple(points),
    )
