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
h = 0 for odd w.  So a weight matches exactly when the normal form of
LHS_w / RHS_w, GRs alone and a power of 2, computed inline, is 2^(-h/2).
The residue LHS / RHS is the normal form of the product of the weights'
quotients; the normal form is linear in the exponents, so a matching
weight adds only -h/2 to the exponent of 2.  It names its zero or pole
nearest 0; samples of log(LHS/RHS) check the constant and signs in
floats, with an exact spread (:func:`spread`).
"""

import math
from collections import namedtuple

from .cyclic import weight_tails
from .factors import serre_tables
from .gamma import (LN2, SINGULARITY_GUARD, EvaluationRangeError,
                    GammaExpression, evaluate_log, nearest_divisor_point,
                    normalize, render)
from .hodge import HodgeData, InputError, Place, validate
from .regdet import add_tail_determinants


SamplePoint = namedtuple("SamplePoint", "s lhs_log rhs_log signs_agree")


class VerificationReport(namedtuple("VerificationReport", (
        "name divisor_match mismatch_witness per_weight residue "
        "constant_log constant_stddev samples"))):
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

    __slots__ = ()

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


def spread(values) -> float:
    """Population standard deviation of finite floats, correctly rounded:
    the exact variance in integers, its root rounded to odd at 2*53 + 3
    bits and then to a float, the method of Python 3.11's ``statistics``."""
    if not all(map(math.isfinite, values)):
        raise EvaluationRangeError(
            f"log(LHS/RHS) is not finite at every sample: {values}")
    ratios = [v.as_integer_ratio() for v in values]
    n, den = len(ratios), max(d for _, d in ratios)  # each d a power of 2
    xs = [a * (den // d) for a, d in ratios]
    num, den = n * sum(x * x for x in xs) - sum(xs) ** 2, (n * den) ** 2
    q = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = num << max(-2 * q, 0), den << max(2 * q, 0)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return (root << max(q, 0)) / (1 << max(-q, 0))


def verify_theorem(data: HodgeData, samples=None,
                   guard: float = SINGULARITY_GUARD) -> VerificationReport:
    """Compare the completed factor product against the determinant
    ratio of the scaling spectrum, weight by weight and exactly.

    Only the weights present in the data are visited: an absent weight
    is 1 on both sides, so the cost follows the nonzero Hodge data, and
    ``dim`` only places the default sample points, right of every zero
    and pole.  Each weight's local factor and tail determinants are
    read once, into the LHS or the RHS and into the weight's balance.
    """
    if bad := validate(data):
        raise InputError("invalid data: " + "; ".join(bad))

    if samples is None:
        samples = tuple(data.dim + off for off in (0.7, 1.6, 2.5, 3.4))
    else:
        samples = tuple(float(s) for s in samples)
        if not samples:
            raise InputError("need at least one sample point")

    lhs, rhs, quotient = (GammaExpression() for _ in range(3))
    per_weight = []
    for piece in data.weights:
        k = 1 if piece.w % 2 else -1
        x = serre_tables(piece, data.place, k)
        y = add_tail_determinants(GammaExpression(),
                                  *weight_tails(data, piece.w), -k)
        # x / y in normal form, computed inline: GR shifts (each GC as
        # two, each linear factor as a quotient of two) and halves
        shifts, halves = {}, 0
        for total, t, sign in ((lhs, x, 1), (rhs, y, -1)):
            for a, e in t.gr.items():
                total.gr[a] = total.gr.get(a, 0) + e
                shifts[a] = shifts.get(a, 0) + sign * e
            for a, e in t.gc.items():
                total.gc[a] = total.gc.get(a, 0) + e
                shifts[a] = shifts.get(a, 0) + sign * e
                shifts[a + 1] = shifts.get(a + 1, 0) + sign * e
            for m, e in t.lin.items():
                total.lin[m] = total.lin.get(m, 0) + e
                shifts[2 - m] = shifts.get(2 - m, 0) + sign * e
                shifts[-m] = shifts.get(-m, 0) - sign * e
            total.halves += t.halves
            halves += sign * (t.halves - 2 * sum(t.gc.values()))
        h = piece.middle() if data.place is Place.REAL else 0
        match = halves == -h and not any(shifts.values())
        per_weight.append((piece.w, match))
        if match:
            quotient.halves -= h
        else:
            quotient.add(x).add(y, -1)
    lhs, rhs, residue = lhs.clean(), rhs.clean(), normalize(quotient)
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
        constant_stddev=spread(diffs),  # first: it rejects a non-finite diff
        constant_log=(math.fsum(diffs) / len(diffs) if residue.gr
                      else residue.halves / 2 * LN2),
        samples=tuple(points),
    )
