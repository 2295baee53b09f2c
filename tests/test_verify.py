import dataclasses
import math
import random

import pytest

import archfactor.cyclic as cyclic_module
import archfactor.gamma as gamma_module
import archfactor.verify as verify_module
from archfactor import (PRESET_NAMES, HodgeData, Place,
                        SingularEvaluationError, SpectralMeasure,
                        WeightPiece, gamma_c, gamma_r, linear,
                        nearest_divisor_point, normalize, power, prefactor,
                        preset, product, verify_theorem)
from helpers import random_hodge_data


def full_diamond(place: Place, value: int, d: int = 3) -> HodgeData:
    """Every h^{p,q} with 0 <= p, q <= d equal to value; the middle
    pieces split all to h_plus at a real place."""
    pieces = []
    for w in range(2 * d + 1):
        hpq = {(p, w - p): value for p in range(max(0, w - d), min(w, d) + 1)}
        mid = hpq.get((w // 2, w // 2), 0) if w % 2 == 0 else 0
        split = (mid, 0) if place is Place.REAL and mid else None
        pieces.append(WeightPiece(w, hpq, split))
    return HodgeData(f"diamond_{place.value}", d, place, tuple(pieces))


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
    exact = verify_module.weight_spectrum

    def skewed(data, w):
        measure = exact(data, w)
        if w != 1:
            return measure
        first, *rest = measure.odd
        bumped = dataclasses.replace(first,
                                     multiplicity=first.multiplicity + 1)
        return SpectralMeasure(measure.even, (bumped, *rest))

    monkeypatch.setattr(verify_module, "weight_spectrum", skewed)
    report = verify_theorem(preset("elliptic_R"))
    assert report.ok() is False
    assert dict(report.per_weight) == {0: True, 1: False, 2: True}


@pytest.mark.parametrize("name, a2, allowed", [
    ("point_C", "1/2", False),  # over C the constant is exactly 1
    ("point_R", "1/2", True),   # over R any power of sqrt(2) is allowed
    ("point_R", "1/4", False),
])
def test_constant_is_asserted(monkeypatch, name, a2, allowed):
    exact = verify_module.regdet_measure

    def scaled(measure):
        dets = exact(measure)
        return dets._replace(ratio=product((dets.ratio, prefactor(a2=a2))))

    monkeypatch.setattr(verify_module, "regdet_measure", scaled)
    report = verify_theorem(preset(name))
    assert report.divisor_match
    assert report.ok() is allowed
    assert dict(report.per_weight) == {0: allowed}


def test_samples_agree_with_exact_constant():
    rng = random.Random(803)
    datasets = [preset(name) for name in PRESET_NAMES]
    datasets += [random_hodge_data(rng) for _ in range(25)]
    datasets += [full_diamond(place, 10 ** 6) for place in Place]
    for data in datasets:
        report = verify_theorem(data)
        assert report.ok(), data
        exact = float(report.residue.a2) * math.log(2)
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
    counts = []
    for dim in (10, 1000):
        calls.clear()
        data = HodgeData("h00", dim, Place.COMPLEX,
                         (WeightPiece(0, {(0, 0): 1}),))
        assert verify_theorem(data).ok()
        counts.append(len(calls))
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
    exact = verify_module.regdet_measure
    data = preset("P2_C")
    root = data.dim + offset

    def shifted(measure):
        dets = exact(measure)
        return dets._replace(ratio=product((dets.ratio, linear(root))))

    monkeypatch.setattr(verify_module, "regdet_measure", shifted)
    report = verify_theorem(data)
    assert report.divisor_match is False
    assert report.mismatch_witness == root
    assert report.ok() is False


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
    pytest.param(gamma_r(0, 1), gamma_c(0, 1), -1, id="odd_pole"),
    # one pole at -6 each, then the odd poles of GC(s+6) from -7 on
    pytest.param(gamma_r(6, 1), gamma_c(6, 1), -7, id="odd_tail"),
])
def test_residue_witness(lhs, rhs, witness):
    residue = normalize(product((lhs, power(rhs, -1))))
    assert nearest_divisor_point(residue) == witness
