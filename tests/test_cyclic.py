import random

import pytest

from archfactor import (Place, Progression, SpectralMeasure, a_to_e, betti,
                        betti_eigen, direct_sum, e_to_a, har_dim, hc_dim,
                        hc_dim_complex, hn_dim, hp_dim, is_cyclic_pair,
                        is_pole_pair, pole_order, preset, regdet_progression,
                        theta_spectrum)
from archfactor.cyclic import weight_tails
from helpers import full_diamond, random_hodge_data

FAR = -10 ** 6  # left of every tail's first eigenvalue, an even m


def spectrum(measure, lo=-30, hi=10):
    """Both parities' multiplicities on [lo, hi) and far to the left, at
    an even and an odd m, where every tail has long begun."""
    return [[measure.multiplicity(parity, m)
             for m in (*range(lo, hi), FAR, FAR - 1)] for parity in (0, 1)]


def test_index_bijection_examples():
    assert e_to_a(1, 2, 2) == (3, 1)
    assert a_to_e(2, 1, 2) == (0, 1)
    with pytest.raises(ValueError):
        e_to_a(1, 5, 2)  # 2j - n = 9 > 2d
    with pytest.raises(ValueError):
        a_to_e(3, 2, 2)  # m > q/2


def test_index_bijection_exhaustive():
    for d in range(0, 11):
        seen = set()
        for n in range(0, 61):
            for j in range((n + 1) // 2, (n + 2 * d) // 2 + 1):
                if not is_cyclic_pair(n, j, d):
                    continue
                q, m = e_to_a(n, j, d)
                assert is_pole_pair(q, m, d)
                assert a_to_e(q, m, d) == (n, j)
                assert (q, m) not in seen
                seen.add((q, m))


def test_cyclic_dims_point():
    pt = preset("point_C")
    for k in range(0, 12):
        assert hc_dim_complex(pt, 2 * k, k) == 1
        assert hc_dim(pt, 2 * k, k) == 2
        assert hc_dim_complex(pt, 2 * k + 1, k) == 0
    assert hc_dim_complex(pt, 5, 1) == 0  # 2j - n < 0


def test_cyclic_dims_projective_line():
    p1 = preset("P1_C")
    assert hc_dim_complex(p1, 0, 1) == 1  # h^{1,1} only, p <= 1
    assert hc_dim_complex(p1, 0, 0) == 1  # weight 0
    assert hc_dim_complex(p1, 2, 2) == 1  # back to weight 2
    assert hn_dim(p1, 2, 2) == 0
    assert hp_dim(p1, 2, 2) == betti(p1, 2)


def test_hp_dim_vanishes_at_negative_weight():
    # (n, j) = (3, 1) has weight 2j - n = -1
    assert hp_dim(preset("P1_R"), 3, 1) == 0


def test_cyclic_dims_real_place_are_not_doubled():
    # p <= 1 picks up both h^{0,1} and h^{1,0} in weight 1
    e = preset("elliptic_R")
    assert hc_dim_complex(e, 1, 1) == 2
    assert hc_dim(e, 1, 1) == 2
    ec = preset("elliptic_C")
    assert hc_dim(ec, 1, 1) == 4


def test_negative_cyclic_example():
    assert hn_dim(preset("elliptic_C"), 3, 2) == 0
    assert hn_dim(preset("elliptic_C"), 1, 1) == 1  # p >= 1, w = 1


def test_exact_sequence_dimension_identity():
    # hn(n+2, j+1) + hc(n, j) = hp(n+2, j+1), complex dimensions
    rng = random.Random(600)
    datasets = [preset(name) for name in
                ("point_C", "P1_C", "P2_C", "elliptic_C",
                 "point_R", "P1_R", "elliptic_R")]
    for _ in range(20):
        datasets.append(random_hodge_data(rng, max_dim=3))
    for data in datasets:
        for n in range(0, 41):
            for j in range(0, (n + 2 * data.dim) // 2 + 2):
                assert (hn_dim(data, n + 2, j + 1) + hc_dim_complex(data, n, j)
                        == hp_dim(data, n + 2, j + 1))


def test_lattice_cokernel_identity_complex_places():
    # hp(n+2, j+1) + har(n, j) = 2 * hc(n, j) at complex places, with hp
    # counting the real rank of the rational lattice
    rng = random.Random(601)
    datasets = [preset(name) for name in ("point_C", "P1_C", "P2_C",
                                          "elliptic_C")]
    for _ in range(20):
        datasets.append(random_hodge_data(rng, place=Place.COMPLEX))
    for data in datasets:
        for n in range(0, 41):
            for j in range(0, (n + 2 * data.dim) // 2 + 2):
                if not is_cyclic_pair(n, j, data.dim):
                    continue
                assert (hp_dim(data, n + 2, j + 1) + har_dim(data, n, j)
                        == 2 * hc_dim_complex(data, n, j))


def test_har_vanishes_outside_index_set():
    for name in ("point_C", "point_R", "elliptic_R", "P2_C"):
        data = preset(name)
        for n in range(0, 41):
            for j in range(0, 41):
                if not is_cyclic_pair(n, j, data.dim):
                    assert har_dim(data, n, j) == 0


def test_har_point_real_period_four():
    pt = preset("point_R")
    for k in range(0, 10):
        assert har_dim(pt, 4 * k, 2 * k) == 1
        assert har_dim(pt, 4 * k + 2, 2 * k + 1) == 0


def test_har_point_complex_period_two():
    pt = preset("point_C")
    for k in range(0, 10):
        assert har_dim(pt, 2 * k, k) == 1


def test_har_two_routes_agree():
    rng = random.Random(602)
    datasets = [preset(name) for name in
                ("point_C", "P1_C", "P2_C", "elliptic_C",
                 "point_R", "P1_R", "elliptic_R")]
    for _ in range(40):
        datasets.append(random_hodge_data(rng, max_dim=3, max_entry=5))
    for data in datasets:
        for n in range(0, 25):
            for j in range(0, 25):
                # the cokernel of the rational lattice map into cyclic
                # homology: 2 hc - b_w over C, hc minus the (-1)^(j+1)
                # eigenspace on b_w over R; 0 off E_d
                w = 2 * j - n
                if not is_cyclic_pair(n, j, data.dim):
                    sequence = 0
                elif data.place is Place.COMPLEX:
                    sequence = 2 * hc_dim_complex(data, n, j) - betti(data, w)
                else:
                    sequence = (hc_dim(data, n, j)
                                - betti_eigen(data, w, 1 if j % 2 else -1))
                assert har_dim(data, n, j) == sequence, (data, n, j)


def test_hc_stability_in_degree():
    rng = random.Random(603)
    for _ in range(30):
        data = random_hodge_data(rng, max_dim=3)
        for w in range(0, 2 * data.dim + 1):
            ref = betti(data, w)
            for n in range(2 * data.dim + (w % 2), 30, 2):
                if n < w:
                    continue
                assert hc_dim_complex(data, n, (n + w) // 2) == ref


def test_progression_membership():
    tail = SpectralMeasure(((-3, 2, 1),), ())
    assert tail.multiplicity(0, -3) == tail.multiplicity(0, -7) == 1
    assert tail.multiplicity(0, -4) == tail.multiplicity(0, -1) == 0
    assert tail.multiplicity(1, -3) == 0
    finite = regdet_progression(Progression(5, 1, 3, 2))
    assert finite.lin == {3: 2, 4: 2, 5: 2}


@pytest.mark.parametrize("args, message", [
    ((0, 0, None, 1), "step must be >= 1, got 0"),
    ((0, 1, -1, 1), "count must be >= 0 or None, got -1"),
    ((0, 1, None, -1), "negative multiplicity -1"),
])
def test_progression_rejects_bad_fields(args, message):
    with pytest.raises(ValueError) as info:
        Progression(*args)
    assert str(info.value) == message


def test_point_complex_spectrum():
    measure = theta_spectrum(preset("point_C"))
    # one eigenvalue per nonpositive integer
    canonical = SpectralMeasure(((0, 1, 1),), ())
    assert spectrum(measure) == spectrum(canonical)
    assert measure.odd == ()


def test_point_real_spectrum():
    measure = theta_spectrum(preset("point_R"))
    canonical = SpectralMeasure(((0, 2, 1),), ())
    assert spectrum(measure) == spectrum(canonical)


def test_elliptic_complex_spectrum():
    measure = theta_spectrum(preset("elliptic_C"))
    odd = SpectralMeasure((), ((0, 1, 2),))
    assert spectrum(SpectralMeasure((), measure.odd)) == spectrum(odd)
    even = SpectralMeasure(((1, 1, 1), (0, 1, 1)), ())
    assert spectrum(SpectralMeasure(measure.even, ())) == spectrum(even)


def test_weight_spectrum_single_weight():
    m2 = theta_spectrum(preset("P1_C"), 2)
    assert spectrum(m2) == spectrum(SpectralMeasure(((1, 1, 1),), ()))
    m0 = theta_spectrum(preset("P1_C"), 0)
    assert spectrum(m0) == spectrum(SpectralMeasure(((0, 1, 1),), ()))
    with pytest.raises(ValueError):
        theta_spectrum(preset("P1_C"), 3)


def test_weight_spectrum_absent_weight_empty():
    m1 = theta_spectrum(preset("P1_C"), 1)
    assert m1.even == () and m1.odd == ()


def test_spectrum_multiplicities_match_pole_orders():
    rng = random.Random(604)
    for _ in range(30):
        data = random_hodge_data(rng, max_dim=3)
        for w in range(0, 2 * data.dim + 1):
            measure = theta_spectrum(data, w)
            parity = w % 2
            for m in range(-12, w // 2 + 2):
                assert (measure.multiplicity(parity, m)
                        == pole_order(data, w, m))


def test_spectrum_additive_under_direct_sum():
    rng = random.Random(605)
    for _ in range(20):
        place = rng.choice([Place.REAL, Place.COMPLEX])
        a = random_hodge_data(rng, place=place)
        b = random_hodge_data(rng, place=place)
        total = theta_spectrum(direct_sum(a, b))
        ma, mb = theta_spectrum(a), theta_spectrum(b)
        d = max(a.dim, b.dim)
        for parity in (0, 1):
            for m in (FAR, FAR - 1, *range(-24, d + 2)):
                assert (total.multiplicity(parity, m)
                        == ma.multiplicity(parity, m)
                        + mb.multiplicity(parity, m))


def test_tails_match_the_head_encoding():
    # the tails give every multiplicity the pole orders give: one at a
    # time down to m = -8, and far to the left the pole order at -3 (and
    # -4 at a real place, per residue class of m mod 2)
    rng = random.Random(808)
    datasets = [random_hodge_data(rng, max_dim=9,
                                  max_entry=rng.choice((4, 10 ** 6)),
                                  place=(Place.REAL, Place.COMPLEX)[i % 2])
                for i in range(300)]
    datasets += [full_diamond(place, 1 + d, d)
                 for d in range(13) for place in Place]
    for data in datasets:
        for piece in data.weights:
            w = piece.w
            measure = theta_spectrum(data, w)
            real = data.place is Place.REAL
            for m in range(w // 2 + 2, -9, -1):
                assert (measure.multiplicity(w % 2, m)
                        == pole_order(data, w, m)), (data, w, m)
            for m in (FAR, FAR - 1):
                periodic = -3 if not real or (m + 3) % 2 == 0 else -4
                assert (measure.multiplicity(w % 2, m)
                        == pole_order(data, w, periodic)), (data, w, m)
            step, tails = weight_tails(data, w)
            assert step == (2 if real else 1)
            assert len(tails) <= 2 * len(piece.hpq) + 2
