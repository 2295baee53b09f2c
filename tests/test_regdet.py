import math
import random

import pytest

from archfactor import (GammaExpression, Progression, SpectralMeasure,
                        evaluate_log, gamma_c, gamma_r, identity,
                        hurwitz_zeta_deriv0, normalize, order_at, power,
                        product, regdet_progression)
from archfactor.regdet import ratio_tables
from fractions import Fraction


def test_step_one_closed_form():
    p = Progression(0, 1, None, 1)
    assert regdet_progression(p) == gamma_c(0, -1)
    p = Progression(-2, 1, None, 3)
    assert regdet_progression(p) == gamma_c(2, -3)


def test_step_two_closed_form_carries_sqrt2():
    p = Progression(1, 2, None, 1)
    x = regdet_progression(p)
    assert x.gr == {-1: -1}
    assert x.a2 == Fraction(1, 2)
    p = Progression(0, 2, None, 2)
    x = regdet_progression(p)
    assert x.gr == {0: -2} and x.a2 == 1


def test_finite_progression_is_plain_product():
    p = Progression(3, 2, 3, 2)
    x = regdet_progression(p)
    assert x.lin == {3: 2, 1: 2, -1: 2}
    assert x.gr == {} and x.gc == {}


def test_empty_progression_gives_identity():
    assert regdet_progression(Progression(5, 1, 0, 3)) == identity()
    assert regdet_progression(Progression(5, 1, None, 0)) == identity()


def test_unsupported_step_rejected():
    with pytest.raises(ValueError):
        regdet_progression(Progression(0, 3, None, 1))


def test_oracle_matches_step_one():
    # det over {s+k} = GC(s)^-1 exactly, constant 1
    for s in (0.7, 1.5, 3.2):
        closed, sign = evaluate_log(gamma_c(0, -1), s)
        oracle = hurwitz_zeta_deriv0(s, 2 * math.pi)
        assert sign == 1
        assert abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle))


def test_oracle_matches_step_two():
    for s in (0.9, 2.3, 4.1):
        x = regdet_progression(Progression(0, 2, None, 1))
        closed, sign = evaluate_log(x, s)
        oracle = hurwitz_zeta_deriv0(s / 2.0, math.pi)
        assert sign == 1
        assert abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle))


def test_oracle_grid():
    # full grid: start in [-3, 3], both steps, multiplicities 1..3
    for m0 in range(-3, 4):
        for step in (1, 2):
            for mult in (1, 2, 3):
                x = regdet_progression(Progression(m0, step, None, mult))
                for off in (0.7, 1.3, 2.6):
                    s = m0 + step * off
                    closed, sign = evaluate_log(x, s)
                    oracle = mult * hurwitz_zeta_deriv0(
                        (s - m0) / step, 2 * math.pi / step)
                    assert sign == 1
                    assert abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle))


def test_hurwitz_reference_value():
    # c^z zeta_H(z, 1) is (2 pi)^z zeta(z); minus its z-derivative at 0
    # is log(2 pi) (both routes below are independent of each other)
    oracle = hurwitz_zeta_deriv0(1.0, 2 * math.pi)
    assert abs(oracle - math.log(2 * math.pi)) < 1e-10
    closed, sign = evaluate_log(gamma_c(0, -1), 1.0)
    assert sign == 1
    assert abs(oracle - closed) < 1e-10


def test_hurwitz_input_validation():
    with pytest.raises(ValueError):
        hurwitz_zeta_deriv0(0.0, 2 * math.pi)
    with pytest.raises(ValueError):
        hurwitz_zeta_deriv0(1.0, 0.0)


def test_splitting_invariance_exact_form():
    # one step-1 progression == its two step-2 halves, exactly
    for m0 in (-2, 0, 3):
        for mult in (1, 2):
            whole = regdet_progression(Progression(m0, 1, None, mult))
            halves = product((
                regdet_progression(Progression(m0, 2, None, mult)),
                regdet_progression(Progression(m0 - 1, 2, None, mult))))
            assert normalize(halves) == normalize(whole)


def test_splitting_invariance_numeric():
    for m0 in (-2, 0, 3):
        whole = regdet_progression(Progression(m0, 1, None, 1))
        halves = product((
            regdet_progression(Progression(m0, 2, None, 1)),
            regdet_progression(Progression(m0 - 1, 2, None, 1))))
        for off in (0.6, 1.9, 3.3):
            s = m0 + off
            lw, sw = evaluate_log(whole, s)
            lh, sh = evaluate_log(halves, s)
            assert sw == sh
            assert abs(lw - lh) < 1e-10


def test_measure_determinants_and_ratio():
    measure = SpectralMeasure(
        even=(Progression(0, 1, None, 1),),
        odd=(Progression(-1, 1, None, 2), Progression(1, 1, 1, 1)),
    )
    even = ratio_tables(SpectralMeasure(measure.even, ())).expression()
    odd = ratio_tables(SpectralMeasure((), measure.odd)).expression()
    assert even == gamma_c(0, -1)
    assert power(odd, -1) == GammaExpression(gc={1: -2}, lin={1: 1})
    assert (ratio_tables(measure).expression()
            == GammaExpression(gc={0: -1, 1: 2}, lin={1: -1}))


def test_measure_determinant_multiplicative():
    rng = random.Random(700)
    for _ in range(20):
        progs = tuple(
            Progression(rng.randint(-3, 3), rng.choice([1, 2]),
                        rng.choice([None, rng.randint(1, 4)]),
                        rng.randint(1, 3))
            for _ in range(4))
        whole = ratio_tables(SpectralMeasure(progs, ())).expression()
        split = identity()
        for p in progs:
            split = product((split, regdet_progression(p)))
        assert whole == split


def test_divisor_of_determinant_is_multiplicity():
    rng = random.Random(701)
    for _ in range(20):
        progs = []
        for _ in range(3):
            first = rng.randint(-3, 3)
            step = rng.choice([1, 2])
            count = rng.choice([None, rng.randint(1, 5)])
            progs.append(Progression(first, step, count, rng.randint(1, 3)))
        measure = SpectralMeasure(tuple(progs), ())
        det = ratio_tables(measure).expression()
        for m in range(-20, 6):
            assert order_at(det, m) == measure.multiplicity(0, m)
