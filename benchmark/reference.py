"""Independent references the benchmark checks archfactor's outputs against.

Nothing here imports archfactor.  Every value is computed from the input
document (the JSON schema of the command line) with ``math.lgamma`` and
the classical definitions

    GR(z) = pi^(-z/2) Gamma(z/2),    GC(z) = (2 pi)^(-z) Gamma(z)

(Serre, Sem. DPP 1969/70), so a fault in the package's Gamma algebra,
spectrum or regularized determinants cannot hide behind the same fault
in the reference.

* :func:`lhs_log` is log|LHS(s)| of the completed alternating product.
* :func:`lerch_log_det` is Lerch's closed form of -d/dz[c^z zeta_H(z, x)]
  at z = 0, the log-determinant of one unit infinite progression
  (Deninger, Invent. Math. 1992).
* :func:`constant_ok` tests the two properties the theorem gives the
  constant log(LHS/RHS): 0 over C, an integer multiple of (1/2) log 2
  over R.
* :func:`pole_order` is the order of the pole of one weight's factor at
  an integer, read off the Gamma factors, which is the multiplicity of
  that eigenvalue in the scaling spectrum.
"""

from __future__ import annotations

import math

LN2 = math.log(2.0)
LNPI = math.log(math.pi)
LN2PI = math.log(2.0 * math.pi)
HALF_LN2 = 0.5 * LN2


def _pairs(entry: dict):
    for key, h in entry["hpq"].items():
        p, q = (int(t) for t in key.split(","))
        yield p, q, int(h)


def weight_factors(doc: dict, entry: dict) -> list:
    """Serre's factor of one weight as [(kind, a, exponent)], meaning
    kind(s - a)^exponent with kind "GR" or "GC"."""
    out = []
    real = doc["place"] == "real"
    w = int(entry["w"])
    for p, q, h in _pairs(entry):
        if not h:
            continue
        if not real:
            out.append(("GC", min(p, q), h))
        elif p < q:
            out.append(("GC", p, h))
    if real and w % 2 == 0:
        h_plus, h_minus = entry.get("middle_split") or (0, 0)
        if h_plus:
            out.append(("GR", w // 2, int(h_plus)))
        if h_minus:
            out.append(("GR", w // 2 - 1, int(h_minus)))
    return out


def _log_factor(kind: str, z: float) -> float:
    if z <= 0:
        raise ValueError(f"reference needs positive Gamma arguments, got {z}")
    if kind == "GR":
        return math.lgamma(z / 2.0) - (z / 2.0) * LNPI
    return math.lgamma(z) - z * LN2PI


def weight_log(doc: dict, entry: dict, s: float):
    """(log L_w(s), roundoff scale) for s right of every pole."""
    terms = [e * _log_factor(kind, s - a)
             for kind, a, e in weight_factors(doc, entry)]
    return math.fsum(terms), sum(abs(t) for t in terms)


def lhs_log(doc: dict, s: float):
    """(log|LHS(s)|, roundoff scale): prod_w L_w(s)^((-1)^(w+1)).

    Only valid right of every zero and pole, where every Gamma argument
    is positive and the product is positive.
    """
    total, scale = [], 0.0
    for entry in doc["weights"]:
        value, sc = weight_log(doc, entry, s)
        total.append(value if int(entry["w"]) % 2 else -value)
        scale += sc
    return math.fsum(total), scale


def lerch_log_det(x: float, c: float) -> float:
    """-(log c * (1/2 - x) + lgamma(x) - (1/2) log 2 pi), for x > 0."""
    return -(math.log(c) * (0.5 - x) + math.lgamma(x) - 0.5 * LN2PI)


def check_progression(prog, closed: float, sign: int, oracle: float) -> list:
    """Problems with the determinant of the infinite progression
    prog = (first, step, mult, s) evaluated at s: the closed form's log
    and sign, and the series oracle's log, against Lerch's formula."""
    first, step, mult, s = prog
    want = mult * lerch_log_det((s - first) / step, 2.0 * math.pi / step)
    bad = []
    if sign != 1 or abs(closed - want) > 1e-11 * (1.0 + abs(want)):
        bad.append(f"closed form {closed!r} (sign {sign}) != Lerch {want!r}")
    if abs(oracle - want) > 1e-8 * max(1.0, abs(want)):
        bad.append(f"series oracle {oracle!r} != Lerch {want!r}")
    return bad


def expected_constant(place: str, constant_log: float, tol: float):
    """The nearest constant the theorem allows, or None if none is within
    tol: 0 over C, k * (1/2) log 2 for an integer k over R."""
    if place == "complex":
        target = 0.0
    else:
        target = round(constant_log / HALF_LN2) * HALF_LN2
    return target if abs(constant_log - target) <= tol else None


def constant_ok(place: str, constant_log: float, tol: float) -> bool:
    return expected_constant(place, constant_log, tol) is not None


def check_report(doc: dict, report: dict) -> list:
    """Problems with one verification report, checked against the
    reference alone; empty when every sample agrees.

    ``report`` is the JSON form of a VerificationReport.  Each sample's
    lhs_log must equal the lgamma reference, the constant must be one the
    theorem allows, and every sample's log(LHS/RHS) must equal that
    constant, which pins rhs_log as well.  The verdict itself is not
    looked at here.
    """
    bad = []
    scale = 1.0
    for sample in report["samples"]:
        s = sample["s"]
        ref, sc = lhs_log(doc, s)
        scale = max(scale, 1.0 + sc)
        if abs(sample["lhs_log"] - ref) > 1e-12 * (1.0 + sc):
            bad.append(f"lhs_log at s={s}: {sample['lhs_log']!r} != {ref!r}")
    tol = 1e-12 * scale
    target = expected_constant(doc["place"], report["constant_log"], tol)
    if target is None:
        bad.append(f"constant_log {report['constant_log']!r} is not allowed "
                   f"at a {doc['place']} place")
        return bad
    for sample in report["samples"]:
        diff = sample["lhs_log"] - sample["rhs_log"]
        if abs(diff - target) > tol:
            bad.append(f"log(LHS/RHS) at s={sample['s']}: {diff!r} != {target!r}")
    return bad


def pole_order(kind: str, a: int, m: int) -> int:
    """Order of the pole of kind(s - a) at the integer s = m."""
    if m > a:
        return 0
    if kind == "GC":
        return 1
    return 1 if (a - m) % 2 == 0 else 0


def spectrum_multiplicity(doc: dict, parity: int, m: int) -> int:
    """Multiplicity of the eigenvalue m in the given parity block: the
    pole order at m of the weights of that parity, summed."""
    total = 0
    for entry in doc["weights"]:
        if int(entry["w"]) % 2 != parity:
            continue
        for kind, a, e in weight_factors(doc, entry):
            total += e * pole_order(kind, a, m)
    return total


def spectrum_head(doc: dict, parity: int, depth: int) -> dict:
    """{m: multiplicity} for the ``depth`` eigenvalues counted down from
    the largest one of the block (0 for an empty block)."""
    top = max((m for m in range(int(doc["dim"]), -1, -1)
               if spectrum_multiplicity(doc, parity, m)), default=0)
    return {m: spectrum_multiplicity(doc, parity, m)
            for m in range(top, top - depth, -1)}


def expression_log(expr: dict, s: float):
    """(log|x(s)|, roundoff scale) of the JSON form of a GammaExpression,
    for s where every Gamma argument and linear factor is positive."""
    pre = {k: float(_fraction(v)) for k, v in expr["pre"].items()}
    terms = [(pre["a2"] + pre["b2"] * s) * LN2,
             (pre["api"] + pre["bpi"] * s) * LNPI]
    for a, e in expr["gr"].items():
        terms.append(e * _log_factor("GR", s + int(a)))
    for a, e in expr["gc"].items():
        terms.append(e * _log_factor("GC", s + int(a)))
    for m, e in expr["lin"].items():
        v = (s - int(m)) / (2.0 * math.pi)
        if v <= 0:
            raise ValueError(f"linear factor not positive at s={s}")
        terms.append(e * math.log(v))
    return math.fsum(terms), sum(abs(t) for t in terms)


def _fraction(text: str) -> float:
    num, _, den = str(text).partition("/")
    return int(num) / int(den or 1)
