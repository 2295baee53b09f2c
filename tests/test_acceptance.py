"""Acceptance suite: the binding end-to-end checks, one test per
criterion, each printing a single pass/fail line with its runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from contextlib import contextmanager

from archfactor import (PRESET_NAMES, GammaExpression, Place, Progression,
                        SpectralMeasure, a_to_e,
                        completed_alternating_product, direct_sum, e_to_a,
                        evaluate_log, har_dim, hc_dim_complex, hn_dim, hp_dim,
                        hurwitz_zeta_deriv0, is_cyclic_pair, is_pole_pair,
                        normalize, order_at, pole_order, preset, product,
                        regdet_progression, serre_factor, theta_spectrum,
                        verify_theorem)
from helpers import random_hodge_data


def multiplicities(measure):
    """Both parities' multiplicities near the head and far to the left."""
    return [[measure.multiplicity(parity, m)
             for m in (*range(-30, 10), -10 ** 6, -10 ** 6 - 1)]
            for parity in (0, 1)]


def determinants(tails):
    """The product of the block determinants of infinite tails."""
    return product(regdet_progression(Progression(first, step, None, mult))
                   for first, step, mult in tails)


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"criterion {number}: FAIL ({dt:.3f}s) {description}")
        raise
    dt = time.perf_counter() - t0
    assert budget is None or dt < budget, \
        f"criterion {number} exceeded budget {budget}s: {dt:.3f}s"
    print(f"criterion {number}: PASS ({dt:.3f}s) {description}")


def test_criterion_1_point_real_golden():
    with criterion(1, "point over R: spectrum, factor, verification",
                   budget=0.1):
        data = preset("point_R")
        measure = theta_spectrum(data)
        assert (multiplicities(measure)
                == multiplicities(SpectralMeasure(((0, 2, 1),), ())))
        assert measure.odd == ()
        assert completed_alternating_product(data) == GammaExpression(
            gr={0: -1})
        report = verify_theorem(data)
        assert report.ok()


def test_criterion_2_point_complex_exact():
    with criterion(2, "point over C: determinant ratio is exactly GC(s)^-1"):
        data = preset("point_C")
        measure = theta_spectrum(data)
        assert (multiplicities(measure)
                == multiplicities(SpectralMeasure(((0, 1, 1),), ())))
        rhs = GammaExpression().add(determinants(measure.even)).add(
            determinants(measure.odd), -1)
        assert normalize(rhs) == normalize(GammaExpression(gc={0: -1}))
        report = verify_theorem(data)
        assert report.ok()
        assert abs(report.constant_log) < 1e-10


def test_criterion_3_pole_orders_cross_check():
    with criterion(3, "dimension formula == Gamma-factor divisor, "
                      "7 presets + 100 randomized", budget=5.0):
        datasets = [preset(name) for name in PRESET_NAMES]
        rng = random.Random(20240311)
        while len(datasets) < 107:
            datasets.append(random_hodge_data(rng, max_dim=3, max_entry=5))
        for data in datasets:
            for w in range(0, 2 * data.dim + 1):
                piece = data.piece(w)
                factor = (serre_factor(piece, data.place)
                          if piece is not None else GammaExpression())
                for m in range(-25, w // 2 + 1):
                    assert order_at(factor, m) == -pole_order(data, w, m)


def test_criterion_4_divisor_verification():
    with criterion(4, "full verification, 7 presets + 100 randomized",
                   budget=10.0):
        datasets = [preset(name) for name in PRESET_NAMES]
        rng = random.Random(20240312)
        while len(datasets) < 107:
            datasets.append(random_hodge_data(rng, max_dim=2, max_entry=4))
        for data in datasets:
            report = verify_theorem(data)
            assert report.divisor_match, (data.name, report.mismatch_witness)
            assert all(match for _, match in report.per_weight), data.name
            assert len(report.samples) >= 4
            assert report.constant_stddev < 1e-9, data.name


def test_criterion_5_index_bijection_exhaustive():
    with criterion(5, "index bijection, d <= 10, n <= 60"):
        for d in range(0, 11):
            images = set()
            for n in range(0, 61):
                for j in range(0, (n + 2 * d) // 2 + 1):
                    if not is_cyclic_pair(n, j, d):
                        continue
                    q, m = e_to_a(n, j, d)
                    assert is_pole_pair(q, m, d)
                    assert a_to_e(q, m, d) == (n, j)
                    assert (q, m) not in images
                    images.add((q, m))
            # inverse direction on the matching range of the pole side
            for q in range(0, 2 * d + 1):
                for m in range(q // 2, (q - 61) // 2 - 1, -1):
                    n, j = a_to_e(q, m, d)
                    assert is_cyclic_pair(n, j, d)
                    assert e_to_a(n, j, d) == (q, m)


def test_criterion_6_exact_sequence_dimensions():
    with criterion(6, "exact-sequence dimension identities to n = 40"):
        presets = [preset(name) for name in PRESET_NAMES]
        for data in presets:
            top_j = 22 + data.dim
            for n in range(0, 41):
                for j in range(0, top_j):
                    assert (hn_dim(data, n + 2, j + 1)
                            + hc_dim_complex(data, n, j)
                            == hp_dim(data, n + 2, j + 1))
                    if (data.place is Place.COMPLEX
                            and is_cyclic_pair(n, j, data.dim)):
                        assert (hp_dim(data, n + 2, j + 1)
                                + har_dim(data, n, j)
                                == 2 * hc_dim_complex(data, n, j))
        for data in presets:
            for n in range(0, 41):
                for j in range(0, 41):
                    if not is_cyclic_pair(n, j, data.dim):
                        assert har_dim(data, n, j) == 0


def test_criterion_7_regdet_oracle():
    with criterion(7, "regularized determinants vs series oracle, "
                      "splitting invariance"):
        for m0 in range(-3, 4):
            for step in (1, 2):
                for mult in (1, 2, 3):
                    expr = regdet_progression(
                        Progression(m0, step, None, mult))
                    for off in (0.7, 1.3, 2.6):
                        s = m0 + step * off
                        closed, sign = evaluate_log(expr, s)
                        oracle = mult * hurwitz_zeta_deriv0(
                            (s - m0) / step, 2 * math.pi / step)
                        assert sign == 1
                        assert (abs(closed - oracle)
                                < 1e-8 * max(1.0, abs(oracle)))
        for m0 in (-3, 0, 2):
            whole = regdet_progression(Progression(m0, 1, None, 1))
            halves = product((
                regdet_progression(Progression(m0, 2, None, 1)),
                regdet_progression(Progression(m0 - 1, 2, None, 1))))
            assert normalize(halves) == normalize(whole)
            for off in (0.55, 1.45, 3.05):
                lw, sw = evaluate_log(whole, m0 + off)
                lh, sh = evaluate_log(halves, m0 + off)
                assert sw == sh and abs(lw - lh) < 1e-10


def test_criterion_8_direct_sum_additivity():
    with criterion(8, "direct-sum additivity on 20 random pairs"):
        rng = random.Random(20240313)
        for _ in range(20):
            place = rng.choice([Place.REAL, Place.COMPLEX])
            a = random_hodge_data(rng, place=place)
            b = random_hodge_data(rng, place=place)
            s = direct_sum(a, b)
            assert (completed_alternating_product(s)
                    == product((completed_alternating_product(a),
                                completed_alternating_product(b))))
            total, ma, mb = (theta_spectrum(s), theta_spectrum(a),
                             theta_spectrum(b))
            for parity in (0, 1):
                for m in range(-24, s.dim + 2):
                    assert (total.multiplicity(parity, m)
                            == ma.multiplicity(parity, m)
                            + mb.multiplicity(parity, m))
            assert verify_theorem(s).ok()


def test_criterion_9_elliptic_real_weight_one_regression():
    with criterion(9, "elliptic over R, weight 1: determinant constant "
                      "is exactly 1"):
        data = preset("elliptic_R")
        report = verify_theorem(data)
        assert dict(report.per_weight)[1] is True
        lhs = serre_factor(data.piece(1), data.place)
        assert lhs == GammaExpression(gc={0: 1})
        measure = theta_spectrum(data, 1)
        assert measure.even == ()
        rhs = GammaExpression().add(determinants(measure.odd), -1).clean()
        for m in range(-24, 4):
            assert order_at(lhs, m) == order_at(rhs, m), m
        for s in (1.3, 2.45, 3.8, 5.2):
            l_log, l_sign = evaluate_log(lhs, s)
            r_log, r_sign = evaluate_log(rhs, s)
            assert l_sign == r_sign
            assert abs(l_log - r_log) < 1e-10
