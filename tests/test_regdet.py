import math
import random

import pytest

from archfactor import (GammaExpression, Progression,
                        SingularEvaluationError, evaluate_log,
                        finite_regdet_log, hurwitz_zeta_deriv0, normalize,
                        order_at, product, regdet_progression)


def test_step_one_closed_form():
    p = Progression(0, 1, None, 1)
    assert regdet_progression(p) == GammaExpression(gc={0: -1})
    p = Progression(-2, 1, None, 3)
    assert regdet_progression(p) == GammaExpression(gc={2: -3})


def test_step_two_closed_form_carries_sqrt2():
    p = Progression(1, 2, None, 1)
    x = regdet_progression(p)
    assert x.gr == {-1: -1}
    assert x.halves == 1
    p = Progression(0, 2, None, 2)
    x = regdet_progression(p)
    assert x.gr == {0: -2} and x.halves == 2


def linear_log(terms, mult, s):
    """log|prod_m ((s - m)/2pi)^mult| over the terms m, summed directly."""
    return math.fsum(mult * math.log(abs((s - m) / (2 * math.pi)))
                     for m in terms)


def test_finite_progression_is_plain_product():
    # (s-3)(s-1)(s+1)/(2pi)^3 squared: the GR ratios telescope
    p = Progression(3, 2, 3, 2)
    x = regdet_progression(p)
    assert x.gr == {-3: -2, 3: 2}
    assert list(x.gr) == [-3, 3]  # clean: sorted
    assert x.gc == {} and x.halves == 0
    for s in (-4.2, 0.5, 2.5, 7.3):
        val, sign = evaluate_log(x, s)
        assert sign == 1
        assert abs(val - linear_log((3, 1, -1), 2, s)) < 1e-12


@pytest.mark.parametrize("first, step, count, mult", [
    (5, 1, 4, 1), (-2, 1, 7, 3), (4, 2, 5, 1), (0, 3, 4, 2), (1, 5, 3, 1)])
def test_finite_progression_value_and_sign(first, step, count, mult):
    p = Progression(first, step, count, mult)
    x = regdet_progression(p)
    terms = [first - k * step for k in range(count)]
    for s in (first - step * count - 0.6, first - 1.3, first + 0.4,
              first + 11.9):
        signs = sum(mult for m in terms if s < m) % 2
        for val, sign in (evaluate_log(x, s), finite_regdet_log(p, s)):
            assert sign == (-1 if signs else 1), s
            assert abs(val - linear_log(terms, mult, s)) < 1e-10, s
    # every integer off the terms is a regular point of the block, though
    # left of the terms its GR ratios have removable poles there
    for s in range(first - step * count - 3, first + 3):
        if s not in terms:
            val, sign = finite_regdet_log(p, float(s))
            signs = sum(mult for m in terms if s < m) % 2
            assert sign == (-1 if signs else 1), s
            assert abs(val - linear_log(terms, mult, s)) < 1e-12, s


def test_finite_block_where_its_ratios_meet_removable_poles():
    # (s-2)(s-1)s/(2pi)^3 at s = -4 is -120/(2pi)^3, while GR(s-2) and
    # GR(s+0) of its ratios both have poles there
    p = Progression(2, 1, 3, 1)
    with pytest.raises(SingularEvaluationError):
        evaluate_log(regdet_progression(p), -4.0)
    val, sign = finite_regdet_log(p, -4.0)
    assert sign == -1
    assert abs(val - math.log(120 / (2 * math.pi) ** 3)) < 1e-14
    # far left the sum of small logs keeps its accuracy
    p = Progression(0, 1, 1000, 1)
    s = -1e6 - 0.5
    val, sign = finite_regdet_log(p, s)
    ref = linear_log(range(-999, 1), 1, s)
    assert sign == 1 and abs(val - ref) <= 1e-14 * abs(ref)
    # a term within the guard raises, naming the pole of its ratio; a
    # block of multiplicity 0 is 1 everywhere
    for s, guard in ((-7.0, 0.0), (-7.0 + 1e-10, 1e-9)):
        with pytest.raises(SingularEvaluationError) as info:
            finite_regdet_log(p, s, guard)
        assert str(info.value) == f"GR(s+7) singular near s={s}"
    assert finite_regdet_log(Progression(2, 1, 3, 0), 2.0, 0.0) == (0.0, 1)


def test_finite_progression_size_follows_the_step():
    # steps 1 and 2 telescope, whatever the count; a larger step keeps
    # one GR pair per term
    n = 10 ** 5
    for first in (0, 7, -3):
        for step in (1, 2):
            x = regdet_progression(Progression(first, step, n, 3))
            last = first - (n - 1) * step
            assert len(x.gr) <= 4 and not x.gc, (first, step, x)
            assert order_at(x, first) == order_at(x, last) == 3
            assert order_at(x, first + 1) == order_at(x, last - step) == 0
        x = regdet_progression(Progression(first, 3, n, 3))
        assert len(x.gr) == 2 * n and set(x.gr.values()) == {-3, 3}
    # step 2 from first: GR(s - first + 2n) / GR(s - first)
    assert regdet_progression(Progression(7, 2, n, 1)) == GammaExpression(
        gr={-7: -1, 2 * n - 7: 1})


def test_empty_progression_gives_identity():
    assert regdet_progression(Progression(5, 1, 0, 3)) == GammaExpression()
    assert regdet_progression(Progression(5, 1, None, 0)) == GammaExpression()
    # an empty progression needs no closed form, whatever its step
    assert regdet_progression(Progression(5, 3, 0, 3)) == GammaExpression()
    assert regdet_progression(Progression(5, 3, None, 0)) == GammaExpression()


def test_unsupported_step_rejected():
    with pytest.raises(ValueError):
        regdet_progression(Progression(0, 3, None, 1))


def test_oracle_matches_step_one():
    # det over {s+k} = GC(s)^-1 exactly, constant 1
    for s in (0.7, 1.5, 3.2):
        closed, sign = evaluate_log(GammaExpression(gc={0: -1}), s)
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
    closed, sign = evaluate_log(GammaExpression(gc={0: -1}), 1.0)
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
    even = product(regdet_progression(p) for p in (Progression(0, 1, None, 1),))
    odd = product(regdet_progression(p) for p in (
        Progression(-1, 1, None, 2), Progression(1, 1, 1, 1)))
    assert even == GammaExpression(gc={0: -1})
    # the one finite term (s - 1)/2pi is GR(s+1) / GR(s-1)
    assert odd == GammaExpression(gr={-1: -1, 1: 1}, gc={1: -2})
    assert (GammaExpression().add(even).add(odd, -1)
            == GammaExpression(gr={-1: 1, 1: -1}, gc={0: -1, 1: 2}))


def test_measure_determinant_multiplicative():
    rng = random.Random(700)
    for _ in range(20):
        progs = tuple(
            Progression(rng.randint(-3, 3), rng.choice([1, 2]),
                        rng.choice([None, rng.randint(1, 4)]),
                        rng.randint(1, 3))
            for _ in range(4))
        whole = product(regdet_progression(p) for p in progs)
        split = GammaExpression()
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
        det = product(regdet_progression(p) for p in progs)
        for m in range(-20, 6):
            # the progressions through m, each k steps below its first
            assert order_at(det, m) == sum(
                p.multiplicity for p in progs
                if (p.first - m) % p.step == 0 and 0 <= (p.first - m) // p.step
                and (p.count is None or (p.first - m) // p.step < p.count))
