"""End-to-end check that the completed Gamma-factor product and the
regularized-determinant ratio agree.

The left side multiplies the classical local factors with alternating
exponents; the right side regularizes the spectrum of the scaling
generator block by block.  The verdict is exact and per weight: the
normal form of LHS_w / RHS_w must be a constant the theorem allows, 1
over C and a power of sqrt(2) over R.  Two readings are reported
alongside, neither gating the verdict: the divisor of the whole residue
LHS / RHS, read off its normal form, names the point nearest 0 where a
mismatch shows, and log(LHS/RHS) at sample points gives the constant in
floating point, where a sign disagreement under an exact match is a bug.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .cyclic import weight_spectrum
from .factors import serre_factor
from .gamma import (SINGULARITY_GUARD, GammaExpression, evaluate_log,
                    nearest_divisor_point, normalize, power, product,
                    render)
from .hodge import HodgeData, Place, validate
from .regdet import regdet_measure


@dataclass(frozen=True)
class SamplePoint:
    s: float
    lhs_log: float
    rhs_log: float
    signs_agree: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    ``per_weight`` says for each weight present in the input whether
    normalize(LHS_w / RHS_w) is an allowed constant; :meth:`ok` is
    exactly the conjunction of these.  ``residue`` is their product,
    LHS / RHS.  ``divisor_match`` says whether the residue has neither
    zeros nor poles, which :meth:`ok` implies; if it has,
    ``mismatch_witness`` is the one nearest 0.
    ``constant_log`` and ``constant_stddev`` are the mean and spread of
    log(LHS) - log(RHS) over the samples, reported, not asserted.
    """

    name: str
    divisor_match: bool
    mismatch_witness: int | None
    per_weight: tuple
    residue: GammaExpression
    constant_log: float
    constant_stddev: float
    samples: tuple

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


def _is_allowed_constant(residue: GammaExpression, place: Place) -> bool:
    """Whether a normal form is 2^(k/2) for an integer k, with k = 0 at
    a complex place: the constants the theorem allows."""
    return (not (residue.gr or residue.gc or residue.lin)
            and residue.b2 == residue.api == residue.bpi == 0
            and (2 * residue.a2).denominator == 1
            and (place is Place.REAL or residue.a2 == 0))


def verify_theorem(data: HodgeData, samples=None,
                   guard: float = SINGULARITY_GUARD) -> VerificationReport:
    """Compare the completed factor product against the determinant
    ratio of the scaling spectrum, weight by weight and exactly.

    Only the weights present in the data are visited, each building its
    spectrum once: an absent weight is 1 on both sides, so the cost
    follows the nonzero Hodge data, and ``dim`` only places the default
    sample points, to the right of every zero and pole.
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

    parts = []
    per_weight = []
    for piece in data.weights:
        w = piece.w
        lhs_w = power(serre_factor(piece, data.place), 1 if w % 2 else -1)
        rhs_w = regdet_measure(weight_spectrum(data, w)).ratio
        residue_w = normalize(product((lhs_w, power(rhs_w, -1))))
        per_weight.append((w, _is_allowed_constant(residue_w, data.place)))
        parts.append((lhs_w, rhs_w, residue_w))
    lhs, rhs, residue = (product(part[k] for part in parts) for k in range(3))
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
        constant_log=statistics.fmean(diffs),
        constant_stddev=statistics.pstdev(diffs),
        samples=tuple(points),
    )
