import math
import random
import statistics
import struct
import sys
from fractions import Fraction

import pytest

import archfactor.cyclic as cyclic_module
import archfactor.factors as factors_module
import archfactor.gamma as gamma_module
import archfactor.verify as verify_module
from archfactor import (PRESET_NAMES, GammaExpression, HodgeData, Place,
                        Progression, SingularEvaluationError, WeightPiece,
                        nearest_divisor_point, normalize, preset, product,
                        regdet_progression, serre_factor, theta_spectrum,
                        verify_theorem)
from archfactor.gamma import EvaluationRangeError
from archfactor.verify import spread
from helpers import full_diamond, random_hodge_data


def test_all_presets_verify():
    from archfactor import PRESET_NAMES
    for name in PRESET_NAMES:
        report = verify_theorem(preset(name))
        assert report.ok(), (name, report)
        assert report.divisor_match
        assert all(match for _, match in report.per_weight)
        assert report.constant_stddev < 1e-12


def test_point_real_constant_is_half_log_two():
    report = verify_theorem(preset("point_R"))
    assert abs(report.constant_log + 0.5 * math.log(2)) < 1e-12


def test_point_complex_constant_vanishes():
    report = verify_theorem(preset("point_C"))
    assert abs(report.constant_log) < 1e-10


def test_real_constants_are_half_integer_log_two():
    # regularization only ever leaves powers of sqrt(2) behind
    rng = random.Random(800)
    for _ in range(25):
        data = random_hodge_data(rng, place=Place.REAL)
        report = verify_theorem(data)
        ratio = report.constant_log / (0.5 * math.log(2))
        assert abs(ratio - round(ratio)) < 1e-6, report.constant_log


def test_complex_constants_vanish():
    rng = random.Random(801)
    for _ in range(25):
        data = random_hodge_data(rng, place=Place.COMPLEX)
        report = verify_theorem(data)
        assert abs(report.constant_log) < 1e-9


def test_randomized_roundtrip():
    rng = random.Random(802)
    for _ in range(60):
        data = random_hodge_data(rng)
        report = verify_theorem(data)
        assert report.ok(), (data, report.mismatch_witness)


def test_huge_hodge_numbers_verify():
    # the float spread here is about 1e-9, above any absolute tolerance
    # that small data would suggest; the exact verdict does not see it
    for place in Place:
        report = verify_theorem(full_diamond(place, 10 ** 6))
        assert report.ok(), (place, report.constant_stddev)
        assert all(match for _, match in report.per_weight)


def test_wrong_multiplicity_fails_its_weight(monkeypatch):
    exact = verify_module.weight_tails
    skew = {"first": 0, "mult": 1}

    def skewed(data, w):
        step, tails = exact(data, w)
        if w != 1:
            return step, tails
        (first, mult), *rest = tails
        return step, [(first + skew["first"], mult + skew["mult"]), *rest]

    monkeypatch.setattr(verify_module, "weight_tails", skewed)
    report = verify_theorem(preset("elliptic_R"))
    assert report.ok() is False
    assert dict(report.per_weight) == {0: True, 1: False, 2: True}
    # weight 1's first tail moved from m = 0 to m = -1: the residue is
    # printed in GRs alone, never as a linear factor
    skew.update(first=-1, mult=0)
    for name, residue in (("elliptic_C", "GR(s+0)^2 * GR(s+2)^-2"),
                          ("elliptic_R", "2^(-1) * GR(s+0)^1 * GR(s+1)^-1")):
        report = verify_theorem(preset(name))
        assert report.to_json_dict()["residue"] == residue, name
        assert report.mismatch_witness == 0, name
        assert report.per_weight == ((0, True), (1, False), (2, True)), name


@pytest.mark.parametrize("name, a2, allowed", [
    ("point_C", "1/2", False),  # over C the constant is exactly 1
    ("point_R", "1/2", False),  # over R exactly 2^(-h^{0,0}/2), no other
    ("point_R", "1/4", False),
    ("point_R", "0", True),
])
def test_constant_is_asserted(monkeypatch, name, a2, allowed):
    exact = verify_module.add_tail_determinants

    def scaled(out, step, tails, k=1):
        # every block determinant of the weight times 2^a2
        return exact(out, step, tails, k).add(
            GammaExpression(halves=2 * Fraction(a2)), k)

    monkeypatch.setattr(verify_module, "add_tail_determinants", scaled)
    report = verify_theorem(preset(name))
    assert report.divisor_match
    assert report.ok() is allowed
    assert dict(report.per_weight) == {0: allowed}


def test_dropped_step_two_constant_is_a_mismatch(monkeypatch):
    # a step-2 block without its 2^(mu/2) still has the right divisor
    # and leaves a power of sqrt(2), but not the one the theorem predicts
    exact = verify_module.add_tail_determinants

    def dropped(out, step, tails, k=1):
        halves = out.halves
        exact(out, step, tails, k)
        out.halves = halves
        return out

    monkeypatch.setattr(verify_module, "add_tail_determinants", dropped)
    for name in PRESET_NAMES:
        report = verify_theorem(preset(name))
        real = preset(name).place is Place.REAL
        assert report.divisor_match, name
        assert report.ok() is not real, name
        assert all(match is not real for _, match in report.per_weight), name


@pytest.mark.parametrize("place", list(Place))
def test_elementary_residues_are_pinned(place):
    # by linearity and the Tate twist every residue is a sum of these:
    # h^{0,0} (each split at R) and the pairs {(0, n), (n, 0)}
    real = place is Place.REAL
    for split in ((1, 0), (0, 1)) if real else (None,):
        data = HodgeData("h00", 0, place,
                         (WeightPiece(0, {(0, 0): 1}, split),))
        report = verify_theorem(data)
        assert report.per_weight == ((0, True),)
        assert report.residue == GammaExpression(halves=-1 if real else 0)
    for n in (1, 2, 3, 10, 999, 10 ** 4, 10 ** 6, 2 ** 53):
        data = HodgeData("pair", (n + 1) // 2, place,
                         (WeightPiece(n, {(0, n): 1, (n, 0): 1}),))
        report = verify_theorem(data)
        assert report.per_weight == ((n, True),), n
        assert report.residue == GammaExpression(), n


def _twist(data):
    """(p, q) -> (p + 1, q + 1), w -> w + 2 and dim -> dim + 1."""
    return HodgeData(data.name, data.dim + 1, data.place, tuple(
        WeightPiece(piece.w + 2, {(p + 1, q + 1): h
                                  for (p, q), h in piece.hpq.items()},
                    piece.middle_split) for piece in data.weights))


def test_tate_twist_moves_the_residue_to_s_minus_one(monkeypatch):
    # the twist replaces LHS(s) and RHS(s) by their values at s - 1, so
    # it keeps every verdict, also on spectra with one tail bumped
    bumps = {}
    exact = verify_module.weight_tails

    def bumped(data, w):
        step, tails = exact(data, w)
        if w in bumps and tails:
            i, dfirst, dmult = bumps[w]
            tails = list(tails)
            first, mult = tails[i % len(tails)]
            tails[i % len(tails)] = (first + dfirst, mult + dmult)
        return step, tails

    monkeypatch.setattr(verify_module, "weight_tails", bumped)
    rng = random.Random(806)
    mismatched = 0
    for i in range(300):
        data = random_hodge_data(rng, max_dim=5,
                                 max_entry=rng.choice((4, 10 ** 6)))
        bump = None
        if i % 2 and data.weights:
            bump = (rng.choice(data.weights).w, rng.randrange(8),
                    *rng.choice(((0, 1), (1, 0), (-1, 0))))
        bumps.clear()
        if bump:
            bumps[bump[0]] = bump[1:]
        report = verify_theorem(data)
        bumps.clear()
        if bump:
            bumps[bump[0] + 2] = bump[1:]
        twisted = verify_theorem(_twist(data))
        assert twisted.per_weight == tuple((w + 2, match)
                                           for w, match in report.per_weight)
        x = report.residue
        assert twisted.residue == normalize(GammaExpression(
            {a - 1: e for a, e in x.gr.items()},
            {a - 1: e for a, e in x.gc.items()},
            {m + 1: e for m, e in x.lin.items()}, x.halves)), data
        mismatched += not report.ok()
    assert mismatched > 100


def test_samples_agree_with_exact_constant():
    rng = random.Random(803)
    datasets = [preset(name) for name in PRESET_NAMES]
    datasets += [random_hodge_data(rng) for _ in range(25)]
    datasets += [full_diamond(place, 10 ** 6) for place in Place]
    for data in datasets:
        report = verify_theorem(data)
        assert report.ok(), data
        exact = report.residue.halves / 2 * math.log(2)
        for p in report.samples:
            assert (abs(p.lhs_log - p.rhs_log - exact)
                    <= 1e-10 * max(1.0, abs(p.lhs_log))), (data, p)


def test_per_weight_breakdown_present():
    report = verify_theorem(preset("elliptic_R"))
    assert [w for w, _ in report.per_weight] == [0, 1, 2]
    # only the weights present are listed: an absent one is 1 on both sides
    report = verify_theorem(preset("P1_C"))
    assert [w for w, _ in report.per_weight] == [0, 2]


def test_spectrum_work_follows_the_data_not_dim(monkeypatch):
    exact = cyclic_module.har_dim
    calls = []

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(cyclic_module, "har_dim", counted)

    def count(place, dim, w):
        calls.clear()
        split = (1, 0) if place is Place.REAL else None
        data = HodgeData("hpp", dim, place,
                         (WeightPiece(w, {(w // 2, w // 2): 1}, split),))
        assert verify_theorem(data).ok()
        return len(calls)

    for place in Place:
        # neither the declared dim nor the weight sets the work
        for counts in ([count(place, dim, 0) for dim in (10, 1000)],
                       [count(place, 1000, w) for w in (2, 2000)]):
            assert counts[0] == counts[1] > 0


def test_divisor_work_follows_the_data_not_dim(monkeypatch):
    calls = []
    exact = gamma_module.order_at

    def counted(x, m):
        calls.append(m)
        return exact(x, m)

    monkeypatch.setattr(gamma_module, "order_at", counted)
    for pieces in ((), (WeightPiece(0, {(0, 0): 1}),)):
        counts = []
        for dim in (10, 10 ** 6):
            calls.clear()
            data = HodgeData("sparse", dim, Place.COMPLEX, pieces)
            assert verify_theorem(data).ok()
            counts.append(len(calls))
        assert counts[0] == counts[1], (pieces, counts)


@pytest.mark.parametrize("offset", [
    # right of every eigenvalue: a window [lo, dim + 2] would not see it
    pytest.param(4, id="right_of_dim"),
    # far left, where the tails of LHS and RHS are already periodic
    pytest.param(-42, id="left_of_tails"),
])
def test_stray_root_is_witnessed(monkeypatch, offset):
    exact = verify_module.add_tail_determinants
    data = preset("P2_C")
    root = data.dim + offset
    stray = GammaExpression(lin={root: 1})

    def shifted(out, step, tails, k=1):
        # a linear factor ((s - root)/2pi) in each weight's RHS
        return exact(out, step, tails, k).add(stray, -1)

    monkeypatch.setattr(verify_module, "add_tail_determinants", shifted)
    report = verify_theorem(data)
    assert report.divisor_match is False
    assert report.mismatch_witness == root
    assert report.ok() is False


def test_integer_tables_match_the_expression_route(monkeypatch):
    # each weight's verdict, the residue and the RHS against the route
    # through one GammaExpression per block: normalize(LHS_w / RHS_w),
    # on correct spectra and on spectra with one tail bumped
    evaluated = []
    exact_log = verify_module.evaluate_log

    def recorded(x, s, guard):
        evaluated.append(x)
        return exact_log(x, s, guard)

    bumps = {}
    exact_tails = cyclic_module.weight_tails

    def bumped(data, w):
        step, tails = exact_tails(data, w)
        if w in bumps and tails:
            i, dfirst, dmult = bumps[w]
            first, mult = tails[i % len(tails)]
            tails = list(tails)
            tails[i % len(tails)] = (first + dfirst, mult + dmult)
        return step, tails

    monkeypatch.setattr(verify_module, "evaluate_log", recorded)
    monkeypatch.setattr(verify_module, "weight_tails", bumped)
    monkeypatch.setattr(cyclic_module, "weight_tails", bumped)
    rng = random.Random(804)
    datasets = [random_hodge_data(rng, max_dim=4, max_entry=10 ** 6,
                                  place=(Place.REAL, Place.COMPLEX)[i % 2])
                for i in range(300)]
    datasets += [full_diamond(place, 1 + d, d)
                 for d in range(9) for place in Place]
    mismatched = bumped_docs = 0
    for i, data in enumerate(datasets):
        bumps.clear()
        if i % 3 == 0 and data.weights:
            w = rng.choice(data.weights).w
            bumps[w] = rng.randrange(8), *rng.choice(((0, 1), (1, 0), (-1, 0)))
            bumped_docs += 1
        evaluated.clear()
        report = verify_theorem(data, samples=(data.dim + 0.7,))
        ratios, residues, per_weight = [], [], []
        for piece in data.weights:
            w = piece.w
            k = 1 if w % 2 else -1
            lhs_w = GammaExpression().add(serre_factor(piece, data.place), k)
            measure = theta_spectrum(data, w)  # even dets over odd ones
            dets = product(regdet_progression(Progression(f, step, None, mult))
                           for f, step, mult in measure.even + measure.odd)
            ratios.append(GammaExpression().add(dets, -k).clean())
            residues.append(normalize(lhs_w.add(ratios[-1], -1)))
            h = piece.middle() if data.place is Place.REAL else 0
            per_weight.append((w, residues[-1] == GammaExpression(halves=-h)))
        assert report.per_weight == tuple(per_weight), data
        assert report.residue == product(residues), data
        assert evaluated[1] == product(ratios), data
        mismatched += not report.ok()
    assert mismatched == bumped_docs > 80


def test_verify_builds_no_progression_and_one_normal_form(monkeypatch):
    progressions, normal_forms = [], []
    exact_init = Progression.__init__
    exact_normal = verify_module.normalize

    def counted_init(self, *args):
        progressions.append(args)
        exact_init(self, *args)

    def counted_normal(x):
        normal_forms.append(x)
        return exact_normal(x)

    monkeypatch.setattr(Progression, "__init__", counted_init)
    monkeypatch.setattr(verify_module, "normalize", counted_normal)
    rng = random.Random(805)
    datasets = [preset(name) for name in PRESET_NAMES]
    datasets += [random_hodge_data(rng, max_dim=4) for _ in range(20)]
    datasets += [full_diamond(place, 7, 12) for place in Place]
    for data in datasets:
        normal_forms.clear()
        verify_theorem(data)
        assert len(normal_forms) == 1, data
    assert progressions == []
    Progression(0, 1, None, 1)  # the counter itself counts
    assert progressions


def test_expressions_built_do_not_follow_the_progressions(monkeypatch):
    # the LHS, the RHS and the residue are each cleaned once, however
    # many weights and tails the spectrum has
    exact = GammaExpression.clean
    cleaned = []

    def counted(self):
        cleaned.append(self)
        return exact(self)

    monkeypatch.setattr(GammaExpression, "clean", counted)
    for place in Place:
        for d in (4, 12):
            data = full_diamond(place, 1, d)
            cleaned.clear()
            assert verify_theorem(data).ok()
            assert len(cleaned) == 3, (place, d)


def test_serre_tables_built_once_per_weight(monkeypatch):
    # the LHS and the per-weight residues share one local factor per weight
    exact = factors_module.serre_tables
    calls = []

    def counted(piece, place, k=1):
        calls.append(piece.w)
        return exact(piece, place, k)

    monkeypatch.setattr(verify_module, "serre_tables", counted)
    monkeypatch.setattr(factors_module, "serre_tables", counted)
    for place in Place:
        for d in (4, 12):
            data = full_diamond(place, 1, d)
            calls.clear()
            assert verify_theorem(data).ok()
            assert calls == [piece.w for piece in data.weights], (place, d)


def test_invalid_data_rejected():
    data = HodgeData("bad", 1, Place.REAL, (WeightPiece(2, {(1, 1): 1}),))
    with pytest.raises(ValueError):
        verify_theorem(data)


def test_samples_near_divisor_rejected():
    # the evaluation guard refuses a sample on a pole or within guard of it
    for s in (0.0, 0.0 + 1e-10):
        with pytest.raises(SingularEvaluationError):
            verify_theorem(preset("point_C"), samples=(s, 4.5), guard=1e-9)
    with pytest.raises(ValueError):
        verify_theorem(preset("point_C"), samples=())


def test_custom_samples_left_of_poles_still_constant():
    # between the poles the ratio is still the same constant; signs track
    report = verify_theorem(preset("point_C"), samples=(0.5, 1.5, 2.5, 3.5))
    assert report.divisor_match
    assert report.constant_stddev < 1e-9
    assert all(p.signs_agree for p in report.samples)


def test_report_json_shape():
    doc = verify_theorem(preset("P1_R")).to_json_dict()
    assert doc["ok"] is True
    assert doc["divisor_match"] is True
    assert doc["mismatch_witness"] is None
    assert len(doc["samples"]) == 4
    assert {"s", "lhs_log", "rhs_log", "signs_agree"} <= set(doc["samples"][0])


@pytest.mark.parametrize("lhs, rhs, witness", [
    # GR(s) vs GC(s): first disagreement at the missing odd pole m = -1
    pytest.param(GammaExpression(gr={0: 1}), GammaExpression(gc={0: 1}), -1,
                 id="odd_pole"),
    # one pole at -6 each, then the odd poles of GC(s+6) from -7 on
    pytest.param(GammaExpression(gr={6: 1}), GammaExpression(gc={6: 1}), -7,
                 id="odd_tail"),
])
def test_residue_witness(lhs, rhs, witness):
    residue = normalize(GammaExpression().add(lhs).add(rhs, -1))
    assert nearest_divisor_point(residue) == witness


def _nearest_sqrt(v: Fraction) -> float:
    """The float nearest sqrt(v), ties to even, found by stepping between
    neighbouring floats and comparing v with their squared midpoints."""
    def odd(r):
        return struct.unpack("<q", struct.pack("<d", r))[0] & 1

    r = math.sqrt(float(v))
    while True:
        down, up = math.nextafter(r, 0.0), math.nextafter(r, math.inf)
        low = ((Fraction(r) + Fraction(down)) / 2) ** 2
        high = ((Fraction(r) + Fraction(up)) / 2) ** 2
        if r > 0 and (v < low or v == low and odd(r)):
            r = down
        elif v > high or v == high and odd(r):
            r = up
        else:
            return r


def _spread_vectors():
    rng = random.Random(1501)
    for n in range(1, 9):
        for _ in range(150):
            kind = rng.choice(["equal", "ulps", "mixed", "near"])
            x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-90, 90)
            if kind == "equal":
                yield [x] * n
            elif kind == "ulps":  # each value 1 ulp from the one before
                values = [x]
                for _ in range(n - 1):
                    values.append(math.nextafter(
                        values[-1], rng.choice((-math.inf, math.inf))))
                yield values
            elif kind == "mixed":  # signs and magnitudes 10^-90 .. 10^90
                yield [rng.choice((-1, 1)) * rng.random()
                       * 10.0 ** rng.randint(-90, 90) for _ in range(n)]
            else:  # like log(LHS/RHS): one constant plus rounding noise
                yield [x + rng.uniform(-1e-12, 1e-12) * abs(x)
                       for _ in range(n)]


def test_spread_is_the_correctly_rounded_exact_deviation():
    checked = 0
    for values in _spread_vectors():
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum((v - mean) ** 2 for v in exact) / len(exact)
        got = spread(values)
        assert type(got) is float
        assert got == _nearest_sqrt(variance), values
        if sys.version_info >= (3, 11):  # pstdev is correctly rounded
            assert got == statistics.pstdev(values), values
        checked += 1
    assert checked == 8 * 150
    assert spread([0.1] * 4) == 0.0
    assert spread([2.5]) == 0.0


@pytest.mark.parametrize("values", [
    [0.5, math.inf], [-math.inf, 1.0, 2.0], [math.nan], [1e308, math.nan],
])
def test_spread_rejects_non_finite_values(values):
    with pytest.raises(EvaluationRangeError, match="not finite"):
        spread(values)
    assert issubclass(EvaluationRangeError, ValueError)
