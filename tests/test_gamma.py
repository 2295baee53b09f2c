import math
import random
import time
from fractions import Fraction

import pytest

from archfactor import (GammaExpression, SingularEvaluationError,
                        evaluate_log, loggamma_signed, nearest_divisor_point,
                        normalize, order_at, product, render)
from helpers import linear_factor, nonsingular_points, random_expression


def logs_agree(x, y, s, tol=1e-11):
    lx, sx = evaluate_log(x, s)
    ly, sy = evaluate_log(y, s)
    return sx == sy and abs(lx - ly) < tol


def test_identity_is_empty():
    one = GammaExpression()
    assert one == GammaExpression(gr={0: 0}, gc={1: 0})
    assert render(one) == "1"
    val, sign = evaluate_log(one, 0.37)
    assert val == 0.0 and sign == 1


def test_no_linear_factor_table():
    # a linear factor is a GR ratio; ``lin`` is only an empty, read-only
    # view, which benchmark/spans.py still reads
    assert GammaExpression.__slots__ == ("gr", "gc", "halves")
    with pytest.raises(TypeError):
        GammaExpression(lin={2: 1})
    x = GammaExpression(gr={0: 1})
    assert x.lin == {} and not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.lin = {2: 1}
    with pytest.raises(TypeError):
        x.lin[2] = 1


def test_multiply_merges_and_cancels():
    x = product((GammaExpression(gr={0: 2}), GammaExpression(gr={0: -2})))
    assert x == GammaExpression() and x.gr == {}
    y = product((GammaExpression(gc={-1: 1}), GammaExpression(gc={-1: 3})))
    assert y.gc == {-1: 4}


def test_power_zero_and_negative():
    x = product((GammaExpression(gr={1: 2}), linear_factor(-3)))
    zero = GammaExpression().add(x, 0).clean()
    assert zero == GammaExpression() and zero.gr == zero.gc == {}
    inv = GammaExpression().add(x, -1).clean()
    assert inv.gr == {1: -2, 3: 1, 5: -1} and inv.gc == {}
    assert (GammaExpression().add(GammaExpression().add(x, -2), -1)
            == GammaExpression().add(x, 2))


def orders(x, lo, hi):
    """The nonzero orders of x on the closed integer window [lo, hi]."""
    return {m: order_at(x, m) for m in range(lo, hi + 1) if order_at(x, m)}


def test_gamma_r_divisor():
    x = GammaExpression(gr={0: 1})
    assert orders(x, -4, 2) == {0: -1, -2: -1, -4: -1}
    # left of 0 the order is -1 at even and 0 at odd m
    assert orders(x, -40, 0) == {m: -1 for m in range(-40, 1, 2)}


def test_gamma_c_shifted_divisor():
    # GC(s-1) blows up at every integer s <= 1
    x = GammaExpression(gc={-1: 1})
    assert orders(x, -2, 3) == {1: -1, 0: -1, -1: -1, -2: -1}
    assert orders(x, -40, 3) == {m: -1 for m in range(-40, 2)}


def test_divisor_tail_lookup_and_gap():
    assert order_at(GammaExpression(gr={0: 1}), -100) == -1
    assert order_at(GammaExpression(gr={0: 1}), -99) == 0
    # every point is exact, also between a root and the tails
    x = linear_factor(-8, 2)
    assert orders(x, -12, 2) == {-8: 2}
    assert order_at(x, -6) == 0


def test_nearest_divisor_point_matches_scan():
    # random_expression keeps shifts in [-4, 6], so a scan of [-40, 40]
    # sees every point the tails can reach
    rng = random.Random(205)
    assert nearest_divisor_point(GammaExpression()) is None
    for _ in range(300):
        x = random_expression(rng, size=rng.randint(0, 5))
        points = [m for m in range(-40, 41) if order_at(x, m)]
        expect = min(points, key=lambda m: (abs(m), m), default=None)
        assert nearest_divisor_point(x) == expect, x
        assert nearest_divisor_point(normalize(x)) == expect, x


def _scan_nearest(x):
    """The search nearest_divisor_point replaced, kept as the reference:
    order_at at m = 0, -1, 1, -2, 2, ... out to the largest |shift|
    plus 2, beyond which the order is 0 or 2-periodic."""
    if not (x.gr or x.gc):
        return None
    reach = max(map(abs, (*x.gr, *x.gc)), default=0) + 2
    for k in range(reach + 1):
        for m in sorted({-k, k}):
            if order_at(x, m):
                return m
    return None


def test_nearest_divisor_point_matches_the_old_scan():
    # shifts and roots in [-30, 30], so runs of several shifts per
    # residue class, and exponents that often cancel along a run
    rng = random.Random(206)
    for _ in range(3000):
        x = GammaExpression()
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(["gr", "gc", "lin"])
            k = rng.randint(-30, 30)
            e = rng.choice([-2, -1, 1, 2])
            x.add(linear_factor(k, e) if kind == "lin"
                  else GammaExpression(**{kind: {k: e}}))
        assert nearest_divisor_point(x) == _scan_nearest(x), x
        assert nearest_divisor_point(normalize(x)) == _scan_nearest(x), x


@pytest.mark.parametrize("n", [10 ** 6, 2 ** 52])
def test_far_witness_is_found_without_a_scan(n):
    # each has one zero or pole, at n or -n; the old scan stepped out to
    # it one point at a time: about 1.3 s at 10^6, and no end near 2^52
    for x, witness in (
            (GammaExpression(gr={-n: 1, 2 - n: -1}), n),  # 2 pi / (s - n)
            (GammaExpression(gr={n: 1, n + 2: -1}), -n),
            (GammaExpression(gc={-n: 1, 1 - n: -1}), n),
            (linear_factor(-n), -n)):  # (s + n) / 2 pi
        start = time.perf_counter()
        assert nearest_divisor_point(x) == witness, x
        assert time.perf_counter() - start < 0.1, x


def test_nearest_divisor_point_none_when_the_factors_cancel():
    # GR(s)/GR(s+2) = 2 pi / s, so times s it has no zero or pole left,
    # even before the zero exponents are dropped
    x = GammaExpression(gr={0: 1, 2: -1}).add(linear_factor(0))
    assert x.gr == {0: 0, 2: 0}
    assert nearest_divisor_point(x) is None


def test_order_at_matches_linear_factors():
    x = GammaExpression(gc={0: -1}).add(linear_factor(2, 3))
    assert order_at(x, 2) == 3
    assert order_at(x, 0) == 1  # zero of GC^-1
    assert order_at(x, 1) == 0


def test_evaluate_gamma_r_at_one():
    # GR(1) = pi^(-1/2) Gamma(1/2) = 1
    val, sign = evaluate_log(GammaExpression(gr={0: 1}), 1.0)
    assert sign == 1
    assert abs(val) < 1e-12


def test_evaluate_gamma_c_at_one():
    # GC(1) = (2 pi)^(-1)
    val, sign = evaluate_log(GammaExpression(gc={0: 1}), 1.0)
    assert sign == 1
    assert abs(val + math.log(2 * math.pi)) < 1e-12


def test_evaluate_negative_arguments_signed():
    # Gamma(-0.5) < 0, Gamma(-1.5) > 0; check through math.gamma
    for z in (-0.5, -1.5, -2.3, -3.7):
        lg, sign = loggamma_signed(z)
        ref = math.gamma(z)
        assert sign == (1 if ref > 0 else -1)
        assert abs(lg - math.log(abs(ref))) < 1e-12


def test_evaluate_log_homomorphism():
    rng = random.Random(101)
    for _ in range(25):
        x = random_expression(rng)
        y = random_expression(rng)
        xy = product((x, y))
        for s in nonsingular_points(rng, xy, 2):
            try:
                lx, sx = evaluate_log(x, s, guard=1e-6)
                ly, sy = evaluate_log(y, s, guard=1e-6)
            except SingularEvaluationError:
                continue
            lxy, sxy = evaluate_log(xy, s, guard=1e-6)
            assert sxy == sx * sy
            assert abs(lxy - (lx + ly)) < 1e-10


def test_order_additivity():
    rng = random.Random(55)
    for _ in range(50):
        x = random_expression(rng)
        y = random_expression(rng)
        for m in range(-8, 6):
            assert (order_at(product((x, y)), m)
                    == order_at(x, m) + order_at(y, m))
    # the one-pass product agrees with the left fold of two-factor products
    for _ in range(50):
        factors = [product((random_expression(rng), GammaExpression(
            halves=2 * Fraction(rng.randint(-3, 3), rng.randint(1, 4)))))
            for _ in range(rng.randint(0, 6))]
        folded = GammaExpression()
        for x in factors:
            folded = product((folded, x))
        assert product(factors) == folded
    assert product(()) == GammaExpression()


def test_singularity_guard():
    with pytest.raises(SingularEvaluationError):
        evaluate_log(GammaExpression(gr={0: 1}), 0.0)
    with pytest.raises(SingularEvaluationError):
        evaluate_log(GammaExpression(gr={0: 1}), -2.0 + 1e-12)
    with pytest.raises(SingularEvaluationError):
        evaluate_log(GammaExpression(gc={0: 1}), -3.0)
    with pytest.raises(SingularEvaluationError):
        evaluate_log(linear_factor(2), 2.0)
    # regular integer points are fine
    evaluate_log(GammaExpression(gr={0: 1}), 2.0)
    evaluate_log(GammaExpression(gc={-1: 1}), 3.0)


GR0, GR1, GR2, GR5 = (GammaExpression(gr={a: 1}) for a in (0, 1, 2, 5))
GC0, GC1, GC3, GCm1 = (GammaExpression(gc={a: 1}) for a in (0, 1, 3, -1))


@pytest.mark.parametrize("x, s, guard, message", [
    (GR2, -2.0, 1e-9, "GR(s+2) singular near s=-2.0"),
    (GCm1, 1.0 + 1e-12, 1e-9, "GC(s-1) singular near s=1.000000000001"),
    # a linear factor's root is the pole of its lower GR
    (linear_factor(3), 3.0, 1e-9, "GR(s-3) singular near s=3.0"),
    # a regular factor first changes nothing
    (product((GR5, GC0)), 0.0, 1e-9, "GC(s+0) singular near s=0.0"),
    # two or three singular factors: GR before GC, and the lowest shift
    # first; a linear factor rooted elsewhere is regular
    (product((GCm1, GC0, GR0)), 0.0, 1e-9, "GR(s+0) singular near s=0.0"),
    (product((linear_factor(1), GC0)), 0.0, 1e-9,
     "GC(s+0) singular near s=0.0"),
    (product((GR2, GR0)), -2.0, 1e-9, "GR(s+0) singular near s=-2.0"),
    (product((GC3, GC1)), -3.0, 1e-9, "GC(s+1) singular near s=-3.0"),
    # guard 0: only an exact pole is singular, and still named
    (GR0, -4.0, 0.0, "GR(s+0) singular near s=-4.0"),
    (GC1, -1.0, 0.0, "GC(s+1) singular near s=-1.0"),
    (product((GC0, GR0)), -2.0, 0.0, "GR(s+0) singular near s=-2.0"),
    (product((GR1, GC0)), -2.0, 0.0, "GC(s+0) singular near s=-2.0"),
    (product(linear_factor(m) for m in (0, 1, 2)), 2.0, 0.0,
     "GR(s-2) singular near s=2.0"),
    # a negative guard names nothing, but an exact pole is still refused
    (linear_factor(-3, 2), -3.0, -1.0, "Gamma pole at z=0.0"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_singular_errors_are_pinned(x, s, guard, message):
    with pytest.raises(SingularEvaluationError) as info:
        evaluate_log(x, s, guard)
    assert type(info.value) is SingularEvaluationError
    assert str(info.value) == message


def test_duplication_pairs_into_gc():
    # GR(s) GR(s+1) = 2 GC(s); normalize must book the 2
    x = product((GR0, GR1))
    n = normalize(x)
    assert n == normalize(GammaExpression(gc={0: 1}, halves=2))
    for s in (0.3, 1.7, 2.5):
        assert logs_agree(x, n, s, tol=1e-12)
        val, sign = evaluate_log(x, s)
        ref, _ = evaluate_log(GC0, s)
        assert abs(val - (math.log(2) + ref)) < 1e-12


def test_duplication_chain_lowest_first():
    x = GammaExpression(gr={0: 1, 1: 2, 2: 1})
    n = normalize(x)
    assert n == normalize(GammaExpression(gc={0: 1, 1: 1}, halves=4))
    for s in (0.3, 1.7, 2.5):
        assert logs_agree(x, n, s, tol=1e-12)


def test_linear_absorption_raises_shift():
    # ((s-1)/2pi) * GC(s-1) = GC(s)
    x = GammaExpression(gc={-1: 1}).add(linear_factor(1))
    n = normalize(x)
    assert n == normalize(GC0)
    for s in (0.3, 1.7, 2.5):
        assert logs_agree(x, n, s, tol=1e-12)


def test_linear_absorption_lowers_shift():
    # GC(s+3)^-1 * ((s)/2pi)((s+1)/2pi)((s+2)/2pi) = GC(s)^-1
    x = product((GammaExpression(gc={3: -1}),
                 *(linear_factor(m) for m in (0, -1, -2))))
    n = normalize(x)
    assert n == normalize(GammaExpression(gc={0: -1}))
    for s in (0.3, 1.7, 2.5):
        assert logs_agree(x, n, s, tol=1e-12)


def test_normalize_preserves_value_randomized():
    rng = random.Random(2024)
    for _ in range(30):
        x = random_expression(rng, size=4)
        n = normalize(x)
        pts = nonsingular_points(rng, product((x, n)), 10)
        for s in pts:
            assert logs_agree(x, n, s, tol=1e-11)


def test_normalize_is_idempotent():
    rng = random.Random(77)
    for _ in range(40):
        n = normalize(random_expression(rng, size=4))
        assert normalize(n) == n
        assert not n.gc


def test_normalize_size_follows_the_factors_not_the_shifts():
    # each factor keeps its own shift: moving GR(s - 10^6) to GR(s)
    # would take 500,000 factors (s - m)/2pi
    x = GammaExpression(gr={-10 ** 6: 1, 0: -1})
    n = normalize(x)
    assert n.gr == {-10 ** 6: 1, 0: -1} and not n.gc
    # GC(s - 10^6) (s - 10^6)/2pi = GC(s - 10^6 + 1)
    y = GammaExpression(gc={-10 ** 6: 1}).add(linear_factor(10 ** 6))
    assert normalize(y) == GammaExpression(
        gr={1 - 10 ** 6: 1, 2 - 10 ** 6: 1}, halves=-2)
    for z in (x, y):
        for s in (0.5, 10 ** 6 + 0.5, 10 ** 6 + 3.7):
            tol = 1e-13 * (1 + abs(evaluate_log(z, s)[0]))
            assert logs_agree(z, normalize(z), s, tol), (z, s)


def _value_preserving_rewrite(rng, x):
    # multiply by (one/other)^t for an identity one = other of the
    # duplication, GC step-1 or GR step-2 kind; t < 0 rewrites backwards.
    # The linear factor (s+a)/2pi of each shift is written in the other
    # Gamma: in GR for the GC step, in GC for the GR step
    a = rng.randint(-5, 5)
    kind = rng.randrange(3)
    if kind == 0:    # GR(s+a) GR(s+a+1) = 2 GC(s+a)
        one = GammaExpression(gr={a: 1, a + 1: 1})
        other = GammaExpression(gc={a: 1}, halves=2)
    elif kind == 1:  # GC(s+a+1) = ((s+a)/2pi) GC(s+a)
        one = GammaExpression(gc={a + 1: 1})
        other = GammaExpression(gc={a: 1}).add(linear_factor(-a))
    else:            # GR(s+a+2) = ((s+a)/2pi) GR(s+a)
        one = GammaExpression(gr={a + 2: 1})
        other = GammaExpression(gr={a: 1}, gc={a + 1: 1, a: -1})
    t = rng.choice([-2, -1, 1, 2])
    return product((x, GammaExpression().add(one, t).add(other, -t)))


def test_normalize_is_canonical_under_rewrites():
    rng = random.Random(3)
    for _ in range(200):
        x = random_expression(rng, size=5)
        y = x
        for _ in range(rng.randint(1, 6)):
            y = _value_preserving_rewrite(rng, y)
        assert normalize(y) == normalize(x), (x, y)
        for s in nonsingular_points(rng, product((x, y)), 2):
            assert logs_agree(x, y, s, tol=1e-10)


def test_normalize_reduces_identity_to_one():
    # GR(s+1)/GR(s-1) = (s-1)/2pi and GC(s-1)/GC(s) = 2pi/(s-1)
    x = GammaExpression(gr={-1: -1, 1: 1}, gc={-1: 1, 0: -1})
    n = normalize(x)
    assert n == GammaExpression() and n.gr == n.gc == {}


def test_prefactor_evaluation():
    x = GammaExpression(halves=1)
    for s in (-2.5, 0.0, 3.0, 40.0):
        val, sign = evaluate_log(x, s)
        assert sign == 1
        assert abs(val - 0.5 * math.log(2)) < 1e-12


def test_render_forms():
    assert render(GR0) == "GR(s+0)^1"
    assert render(GammaExpression(gc={-1: -2})) == "GC(s-1)^-2"
    assert render(linear_factor(2)) == "GR(s-2)^-1 * GR(s+0)^1"
    assert render(linear_factor(-1, 3)) == "GR(s+1)^-3 * GR(s+3)^3"
    assert "2^(1/2)" in render(GammaExpression(halves=1))
    assert [render(GammaExpression(halves=h)) for h in (-3, -2, 6)] == [
        "2^(-3/2)", "2^(-1)", "2^(3)"]


def test_canonical_zero_exponents_dropped():
    x = GammaExpression(gr={0: 0, 2: 1}, gc={1: 0})
    assert x == GammaExpression(gr={2: 1})
    assert x.clean() is x
    assert x.gr == {2: 1} and x.gc == {}
    x = GammaExpression(gr={3: 1, -1: 2, 0: 0}, gc={5: -1, -5: 1}).clean()
    assert list(x.gr.items()) == [(-1, 2), (3, 1)]
    assert list(x.gc.items()) == [(-5, 1), (5, -1)]
