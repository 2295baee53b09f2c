import random

import pytest

from archfactor import (GammaExpression, OutOfRegimeError, Place, betti,
                        deligne_dim, direct_sum, order_at, pole_order, preset,
                        serre_factor)
from helpers import random_hodge_data


def test_point_complex_all_twists():
    pt = preset("point_C")
    for r in range(1, 8):
        assert deligne_dim(pt, 0, r) == 1


def test_point_real_parity():
    pt = preset("point_R")
    for r in range(1, 9):
        expect = 1 if r % 2 else 0
        assert deligne_dim(pt, 0, r) == expect


def test_elliptic_real_weight_one():
    assert deligne_dim(preset("elliptic_R"), 1, 2) == 1


def test_elliptic_complex_weight_one():
    # r = 2 is the smallest valid twist for w = 1 and counts both
    # columns: 2 * (h^{0,1} + h^{1,0}) - b_1 = 4 - 2
    assert deligne_dim(preset("elliptic_C"), 1, 2) == 2


def test_out_of_regime_rejected():
    pt = preset("point_C")
    with pytest.raises(OutOfRegimeError):
        deligne_dim(pt, 0, 0)
    e = preset("elliptic_C")
    with pytest.raises(OutOfRegimeError):
        deligne_dim(e, 1, 1)  # w + 1 = 2r exactly
    with pytest.raises(OutOfRegimeError):
        deligne_dim(e, 2, 1)


def test_weight_out_of_range_rejected():
    with pytest.raises(ValueError):
        deligne_dim(preset("point_C"), 1, 2)
    with pytest.raises(ValueError):
        pole_order(preset("point_C"), -1, 0)


def test_pole_order_vanishes_right_of_half_weight():
    e = preset("elliptic_C")
    for w in (0, 1, 2):
        for m in range(w // 2 + 1, w // 2 + 5):
            assert pole_order(e, w, m) == 0


def test_pole_order_examples():
    e = preset("elliptic_C")
    assert pole_order(e, 1, 0) == 2
    assert pole_order(e, 1, -3) == 2
    assert pole_order(e, 2, 1) == 1
    er = preset("elliptic_R")
    assert pole_order(er, 1, 0) == 1
    assert pole_order(er, 2, 1) == 1
    assert pole_order(er, 2, 0) == 0  # h_plus sits on the odd-r side


def test_monotone_stabilization():
    rng = random.Random(500)
    for _ in range(40):
        data = random_hodge_data(rng, max_dim=3, max_entry=5)
        for w in range(0, 2 * data.dim + 1):
            vals = {m: pole_order(data, w, m) for m in range(-9, 0)}
            if data.place is Place.COMPLEX:
                assert all(v == betti(data, w) for v in vals.values())
            else:
                assert all(vals[m] == vals[m - 2] for m in range(-7, 0))


def test_additive_under_direct_sum():
    rng = random.Random(501)
    for _ in range(30):
        place = rng.choice([Place.REAL, Place.COMPLEX])
        a = random_hodge_data(rng, place=place)
        b = random_hodge_data(rng, place=place)
        s = direct_sum(a, b)
        for w in range(0, 2 * s.dim + 1):
            for m in range(-6, w // 2 + 1):
                pa = pole_order(a, w, m) if w <= 2 * a.dim else 0
                pb = pole_order(b, w, m) if w <= 2 * b.dim else 0
                assert pole_order(s, w, m) == pa + pb


def test_cross_check_against_factor_divisor():
    # the central consistency statement: dimension formula == Gamma poles
    rng = random.Random(502)
    for _ in range(100):
        data = random_hodge_data(rng, max_dim=3, max_entry=5)
        for w in range(0, 2 * data.dim + 1):
            piece = data.piece(w)
            x = (serre_factor(piece, data.place)
                 if piece is not None else GammaExpression())
            for m in range(-25, w // 2 + 1):
                assert -order_at(x, m) == pole_order(data, w, m), \
                    (data.place, w, m, piece)
