"""End-to-end check that the completed Gamma-factor product and the
regularized-determinant ratio agree.

Weight w gives LHS_w / RHS_w = (L_w * D_w)^k, k = (-1)^(w+1), for its local
factor L_w and the block determinants D_w of its tails.  Each weight's
verdict is exact, against the constant the closed forms force: a step-1
tail of multiplicity mu gives GC(s - m0)^(-mu), a step-2 tail
2^(mu/2) * GR(s - m0)^(-mu), and GR(z) * GR(z+1) = 2 * GC(z).  Over C all
factors are GCs, which cancel to 1.  Over R, L_w has h = h^{w/2,w/2} GRs
and P = sum_{p<q} h^{p,q} GCs; in GRs the sides cancel only if the tails'
multiplicities sum to 2P + h, leaving 2^(k((2P + h)/2 - P)) = 2^(-h/2), as
h = 0 for odd w.  The residue LHS / RHS names its zero or pole nearest 0,
and samples of log(LHS/RHS) check the constant and signs in floats.
"""

import statistics
from collections import namedtuple

from .cyclic import weight_tails
from .factors import serre_tables
from .gamma import (LN2, SINGULARITY_GUARD, GammaExpression, Tables,
                    evaluate_log, gr_shifts, nearest_divisor_point,
                    normal_tables, render)
from .hodge import HodgeData, Place, validate
from .regdet import add_tail_determinants


SamplePoint = namedtuple("SamplePoint", "s lhs_log rhs_log signs_agree")


class VerificationReport:
    """Outcome of one verification run.

    ``per_weight`` says for each weight present in the input whether
    LHS_w / RHS_w is exactly the predicted constant; :meth:`ok` is
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


def _cancels(x: Tables, h: int) -> bool:
    """Whether x is 2^(-h/2) with every GR shift (GCs written as GRs) and
    linear exponent 0: normalize(x) == 2^(-h/2) when x has no linear factor."""
    return (not any(gr_shifts(x).values()) and not any(x.lin.values())
            and 2 * (x.a2 - sum(x.gc.values())) == -h)


def verify_theorem(data: HodgeData, samples=None,
                   guard: float = SINGULARITY_GUARD) -> VerificationReport:
    """Compare the completed factor product against the determinant
    ratio of the scaling spectrum, weight by weight and exactly.

    Only the weights present in the data are visited, each building one
    exponent table x_w = LHS_w / RHS_w: an absent weight is 1 on both
    sides, so the cost follows the nonzero Hodge data, and ``dim`` only
    places the default sample points, right of every zero and pole.  The
    residue is the normal form of prod_w x_w, RHS = LHS / prod_w x_w.
    """
    if bad := validate(data):
        raise ValueError("invalid data: " + "; ".join(bad))

    if samples is None:
        samples = tuple(data.dim + off for off in (0.7, 1.6, 2.5, 3.4))
    else:
        samples = tuple(float(s) for s in samples)
        if not samples:
            raise ValueError("need at least one sample point")

    lhs, quotient = Tables(), Tables()
    per_weight = []
    for piece in data.weights:
        k = 1 if piece.w % 2 else -1
        lhs.add(x := serre_tables(piece, data.place, k))
        add_tail_determinants(x, *weight_tails(data, piece.w), k)
        per_weight.append((piece.w, _cancels(
            x, piece.middle() if data.place is Place.REAL else 0)))
        quotient.add(x)
    rhs = Tables().add(lhs).add(quotient, -1)
    residue = normal_tables(quotient)
    lhs, rhs, residue = (t.expression() for t in (lhs, rhs, residue))
    witness = nearest_divisor_point(residue)

    points, diffs = [], []
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
        constant_log=(statistics.fmean(diffs) if residue.gr or residue.lin
                      else float(residue.a2) * LN2),
        constant_stddev=statistics.pstdev(diffs),
        samples=tuple(points),
    )
