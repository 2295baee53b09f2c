import json
import random

import pytest

from archfactor import (HodgeData, InputError, PRESET_NAMES, Place,
                        WeightPiece, betti, betti_eigen, direct_sum,
                        from_json_dict, preset, to_json_dict, validate)
from helpers import random_hodge_data


def test_preset_catalogue():
    assert PRESET_NAMES == ("P1_C", "P1_R", "P2_C", "elliptic_C",
                            "elliptic_R", "point_C", "point_R")
    for name in PRESET_NAMES:
        data = preset(name)
        assert data.name == name
        assert validate(data) == []
        # every preset is a whole variety, so Poincare duality holds
        assert all(betti(data, w) == betti(data, 2 * data.dim - w)
                   for w in range(data.dim + 1))
    with pytest.raises(InputError, match="choices"):
        preset("nope")


def test_preset_shapes():
    e = preset("elliptic_C")
    assert e.dim == 1 and e.place is Place.COMPLEX
    assert e.piece(1).hpq == {(0, 1): 1, (1, 0): 1}
    assert betti(e, 0) == betti(e, 2) == 1 and betti(e, 1) == 2
    p2 = preset("P2_C")
    assert [p.w for p in p2.weights] == [0, 2, 4]
    assert all(p.hpq == {(p.w // 2, p.w // 2): 1} for p in p2.weights)
    pr = preset("P1_R")
    assert pr.piece(0).middle_split == (1, 0)
    assert pr.piece(2).middle_split == (1, 0)


def test_betti_absent_weight():
    assert betti(preset("P1_C"), 1) == 0
    piece = preset("P1_C").piece(1)
    assert piece.w == 1 and piece.hpq == {} and piece.total() == 0


def test_weight_piece_prefix_sums_randomized():
    rng = random.Random(1009)
    for _ in range(200):
        w = rng.randint(0, 12)
        hpq = {(p, w - p): rng.randint(0, 9)
               for p in rng.sample(range(w + 1), rng.randint(0, w + 1))}
        piece = WeightPiece(w, hpq)
        assert piece.total() == sum(hpq.values())
        ps = [p for p, _ in hpq] or [0]
        for r in range(min(ps) - 1, max(ps) + 2):
            assert piece.below(r) == sum(h for (p, _), h in hpq.items()
                                         if p < r)


def test_betti_eigen_point():
    pt = preset("point_R")
    assert betti_eigen(pt, 0, 1) == 1
    assert betti_eigen(pt, 0, -1) == 0


def test_betti_eigen_odd_weight_splits_evenly():
    e = preset("elliptic_R")
    assert betti_eigen(e, 1, 1) == 1
    assert betti_eigen(e, 1, -1) == 1


def test_betti_eigen_middle_sign_convention():
    # elliptic curve weight 2: h_plus sits at eigenvalue (-1)^1 = -1
    e = preset("elliptic_R")
    assert betti_eigen(e, 2, -1) == 1
    assert betti_eigen(e, 2, 1) == 0


def test_betti_eigen_complex_place_rejected():
    with pytest.raises(ValueError):
        betti_eigen(preset("point_C"), 0, 1)


def test_betti_eigen_rejects_a_sign_other_than_one():
    with pytest.raises(ValueError, match="sign must be"):
        betti_eigen(preset("P1_R"), 0, 0)


def test_eigen_needs_the_middle_split():
    with pytest.raises(ValueError, match="without middle_split"):
        WeightPiece(2, {(1, 1): 1}).eigen(1)


def test_betti_eigen_sums_to_betti():
    rng = random.Random(31)
    for _ in range(50):
        data = random_hodge_data(rng, place=Place.REAL, max_dim=3)
        for w in range(0, 2 * data.dim + 1):
            assert (betti_eigen(data, w, 1) + betti_eigen(data, w, -1)
                    == betti(data, w))


def test_validate_symmetry_violation():
    data = HodgeData("bad", 1, Place.COMPLEX,
                     (WeightPiece(1, {(1, 0): 2, (0, 1): 1}),))
    assert any("symmetry" in v for v in validate(data))


def test_validate_weight_range():
    data = HodgeData("bad", 0, Place.COMPLEX,
                     (WeightPiece(3, {(2, 1): 1, (1, 2): 1}),))
    assert any("outside" in v for v in validate(data))


def test_validate_missing_split():
    data = HodgeData("bad", 1, Place.REAL, (WeightPiece(2, {(1, 1): 2}),))
    assert any("middle_split" in v for v in validate(data))


def test_validate_split_sum_mismatch():
    data = HodgeData("bad", 1, Place.REAL,
                     (WeightPiece(2, {(1, 1): 2}, (1, 0)),))
    assert any("sum" in v for v in validate(data))


def test_validate_split_at_complex_place():
    data = HodgeData("bad", 1, Place.COMPLEX,
                     (WeightPiece(2, {(1, 1): 1}, (1, 0)),))
    assert any("complex place" in v for v in validate(data))


def test_validate_split_on_odd_weight():
    data = HodgeData("bad", 1, Place.REAL,
                     (WeightPiece(1, {(1, 0): 1, (0, 1): 1}, (1, 1)),))
    assert any("odd weight" in v for v in validate(data))


def test_validate_accepts_a_sub_motive():
    # weight 0 only, no duality partner in weight 2: sub-motives of a
    # variety need not satisfy Poincare duality, and validate does not ask
    data = HodgeData("sub", 1, Place.COMPLEX, (WeightPiece(0, {(0, 0): 1}),))
    assert validate(data) == []


def test_direct_sum_adds_tables_and_splits():
    a = preset("P1_R")
    b = preset("elliptic_R")
    s = direct_sum(a, b)
    assert validate(s) == []
    assert s.dim == 1
    assert betti(s, 0) == 2 and betti(s, 1) == 1 * 2 and betti(s, 2) == 2
    assert s.piece(0).middle_split == (2, 0)
    assert s.piece(2).middle_split == (2, 0)


def test_direct_sum_with_empty():
    empty = HodgeData("empty", 0, Place.COMPLEX, ())
    x = preset("P1_C")
    s = direct_sum(x, empty)
    assert [p.w for p in s.weights] == [0, 2]
    for w in (0, 1, 2):
        assert betti(s, w) == betti(x, w)


def test_direct_sum_place_mismatch():
    with pytest.raises(ValueError):
        direct_sum(preset("point_R"), preset("point_C"))


def test_direct_sum_betti_additive_randomized():
    rng = random.Random(13)
    for _ in range(30):
        place = rng.choice([Place.REAL, Place.COMPLEX])
        a = random_hodge_data(rng, place=place)
        b = random_hodge_data(rng, place=place)
        s = direct_sum(a, b)
        assert validate(s) == []
        for w in range(0, 2 * s.dim + 1):
            assert betti(s, w) == betti(a, w) + betti(b, w)
            if place is Place.REAL:
                for sign in (1, -1):
                    assert (betti_eigen(s, w, sign)
                            == betti_eigen(a, w, sign)
                            + betti_eigen(b, w, sign))


def test_json_round_trip_presets():
    for name in PRESET_NAMES:
        data = preset(name)
        doc = json.loads(json.dumps(to_json_dict(data)))
        assert from_json_dict(doc) == data


def test_json_round_trip_randomized():
    rng = random.Random(99)
    for _ in range(25):
        data = random_hodge_data(rng, max_dim=3)
        assert from_json_dict(to_json_dict(data)) == data


def test_json_malformed_rejected():
    with pytest.raises(ValueError):
        from_json_dict({"name": "x", "dim": 1})
    with pytest.raises(ValueError):
        from_json_dict({"name": "x", "dim": 1, "place": "real",
                        "weights": [{"w": 0}]})


def test_json_duplicate_hpq_key_rejected():
    # int() reads " 0", "+0" and "0_0" as 0: the second spelling of a key
    # would silently replace the first
    for spelling in (" 0,0", "0, 0", "+0,0", "0_0,0"):
        doc = {"dim": 0, "place": "complex",
               "weights": [{"w": 0, "hpq": {"0,0": 1, spelling: 5}}]}
        with pytest.raises(ValueError) as info:
            from_json_dict(doc)
        assert str(info.value) == (
            f'weights[0].hpq[{json.dumps(spelling)}]: names the same '
            '(p, q) = (0, 0) as an earlier key')


def test_weight_piece_canonical_form():
    a = WeightPiece(2, {(1, 1): 1, (2, 0): 0, (0, 2): 0})
    b = WeightPiece(2, {(1, 1): 1})
    assert a == b
    assert a.middle() == 1 and a.total() == 1


def _seeded_piece(rng, w):
    """A piece that is regular or broken in one of a few ways: an
    asymmetric, negative, zero or badly indexed entry."""
    hpq = {}
    for p in range(w // 2 + 1):
        hpq[(p, w - p)] = hpq[(w - p, p)] = rng.randint(1, 5)
    p = rng.randint(0, w)
    fault = rng.choice(["none", "asymmetric", "negative", "zero", "index",
                        "negative_pair", "zero_pair"])
    if fault == "asymmetric" and p != w - p:
        hpq[(p, w - p)] += rng.randint(1, 3)
    elif fault == "negative":
        hpq[(p, w - p)] = -rng.randint(1, 3)
    elif fault == "negative_pair":
        hpq[(p, w - p)] = hpq[(w - p, p)] = -rng.randint(1, 3)
    elif fault == "zero":
        hpq[(p, w - p)] = 0
    elif fault == "zero_pair":
        hpq[(p, w - p)] = hpq[(w - p, p)] = 0
    elif fault == "index":
        q = rng.choice([w - p + 1, w - p - 1, -1])
        hpq[(rng.choice([p, -1]), q)] = rng.randint(1, 3)
    mid = hpq.get((w // 2, w // 2), 0) if w % 2 == 0 else 0
    return WeightPiece(w, hpq, (mid, 0) if mid > 0 else None)


def _entry_loop(piece: WeightPiece) -> list:
    """The per-entry loop validate ran before the constructor recorded
    ``faults``: the reference those faults must reproduce."""
    tag, bad = f"weights[w={piece.w}]", []
    for (p, q), h in piece.hpq.items():
        if p < 0 or q < 0 or p + q != piece.w:
            bad.append(f"{tag}.hpq[{p},{q}]: indices do not match weight")
        if h < 0:
            bad.append(f"{tag}.hpq[{p},{q}]: negative count {h}")
        if piece.hpq.get((q, p), 0) != h:
            bad.append(f"{tag}.hpq[{p},{q}]={h}: breaks Hodge symmetry "
                       f"with h[{q},{p}]={piece.hpq.get((q, p), 0)}")
    return bad


def test_entry_faults_match_the_entry_loop():
    # validate reports the entry faults each constructor recorded; they
    # must be exactly, and in the same order, what the entry loop lists
    rng = random.Random(1010)
    regular = broken = 0
    for _ in range(600):
        pieces = [_seeded_piece(rng, w) for w in rng.sample(range(7), 3)]
        for place in Place:
            data = HodgeData("seeded", 3, place, tuple(pieces))
            reported = [m for m in validate(data) if ".hpq[" in m]
            expected = [m for piece in data.weights for m in _entry_loop(piece)]
            assert reported == expected, data.weights
            for piece in pieces:
                regular += not piece.faults
                broken += bool(piece.faults)
    assert regular > 1000 and broken > 1000
