import random

import pytest

from archfactor import (GammaExpression, Place, WeightPiece, betti,
                        completed_alternating_product, direct_sum, order_at,
                        pole_order, preset, product, serre_factor)
from helpers import random_hodge_data


def test_point_real_factor():
    data = preset("point_R")
    assert serre_factor(data.piece(0), data.place) == GammaExpression(gr={0: 1})
    assert completed_alternating_product(data) == GammaExpression(gr={0: -1})


def test_point_complex_factor():
    data = preset("point_C")
    assert serre_factor(data.piece(0), data.place) == GammaExpression(gc={0: 1})
    assert completed_alternating_product(data) == GammaExpression(gc={0: -1})


def test_projective_line_complex():
    data = preset("P1_C")
    assert serre_factor(data.piece(2), data.place) == GammaExpression(
        gc={-1: 1})
    product = completed_alternating_product(data)
    assert product.gc == {0: -1, -1: -1}


def test_projective_line_real_weight_two():
    # middle split (1, 0) at w = 2 lands on GR(s-1), not GR(s-2+1)^swap
    data = preset("P1_R")
    assert serre_factor(data.piece(2), data.place) == GammaExpression(
        gr={-1: 1})
    product = completed_alternating_product(data)
    assert product.gr == {0: -1, -1: -1}


def test_elliptic_weight_one_both_places():
    e_r = preset("elliptic_R")
    e_c = preset("elliptic_C")
    assert serre_factor(e_r.piece(1), e_r.place) == GammaExpression(gc={0: 1})
    assert serre_factor(e_c.piece(1), e_c.place) == GammaExpression(gc={0: 2})


def test_elliptic_real_completed_product():
    product = completed_alternating_product(preset("elliptic_R"))
    assert product.gr == {0: -1, -1: -1}
    assert product.gc == {0: 1}


def test_middle_split_exponents():
    piece = WeightPiece(2, {(1, 1): 3, (2, 0): 1, (0, 2): 1}, (2, 1))
    x = serre_factor(piece, Place.REAL)
    assert x.gr == {-1: 2, 0: 1}  # GR(s-1)^h+ GR(s-1+1)^h-
    assert x.gc == {0: 1}         # the (0,2) side only


def test_missing_split_raises():
    piece = WeightPiece(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        serre_factor(piece, Place.REAL)
    # fine at a complex place
    assert serre_factor(piece, Place.COMPLEX) == GammaExpression(gc={-1: 1})


def test_complex_place_ordered_pairs_double():
    # h^{0,1} = h^{1,0} = g contributes GC(s)^{2g} at a complex place
    piece = WeightPiece(1, {(0, 1): 3, (1, 0): 3})
    assert serre_factor(piece, Place.COMPLEX) == GammaExpression(gc={0: 6})
    assert serre_factor(piece, Place.REAL) == GammaExpression(gc={0: 3})


def test_empty_data_gives_identity():
    from archfactor import HodgeData
    data = HodgeData("empty", 1, Place.COMPLEX, ())
    assert completed_alternating_product(data) == GammaExpression()


def test_pole_support_bounded_by_half_weight():
    rng = random.Random(404)
    for _ in range(60):
        data = random_hodge_data(rng, max_dim=3, max_entry=5)
        for piece in data.weights:
            x = serre_factor(piece, data.place)
            top = piece.w // 2
            for m in range(top + 1, top + 8):
                assert order_at(x, m) == 0


def test_alternating_product_is_multiplicative():
    rng = random.Random(405)
    for _ in range(30):
        place = rng.choice([Place.REAL, Place.COMPLEX])
        a = random_hodge_data(rng, place=place)
        b = random_hodge_data(rng, place=place)
        lhs = completed_alternating_product(direct_sum(a, b))
        rhs = product((completed_alternating_product(a),
                       completed_alternating_product(b)))
        assert lhs == rhs


def test_factor_divisor_matches_pole_order():
    rng = random.Random(406)
    for _ in range(40):
        data = random_hodge_data(rng, max_dim=3, max_entry=5)
        for w in range(0, 2 * data.dim + 1):
            piece = data.piece(w)
            x = (serre_factor(piece, data.place)
                 if piece is not None else GammaExpression())
            for m in range(-12, w // 2 + 1):
                assert order_at(x, m) == -pole_order(data, w, m)
