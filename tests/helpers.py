"""Shared test utilities: seeded random data generators."""

from __future__ import annotations

import random

from archfactor import GammaExpression, HodgeData, Place, WeightPiece


def random_hodge_data(rng: random.Random, max_dim: int = 2,
                      max_entry: int = 4, place: Place | None = None,
                      name: str = "random") -> HodgeData:
    """Valid random data: symmetric tables, legal middle splits."""
    if place is None:
        place = rng.choice([Place.REAL, Place.COMPLEX])
    d = rng.randint(0, max_dim)
    pieces = []
    for w in range(0, 2 * d + 1):
        if rng.random() < 0.3:
            continue
        hpq = {}
        for p in range(0, (w + 1) // 2):
            h = rng.randint(0, max_entry)
            if h:
                hpq[(p, w - p)] = h
                hpq[(w - p, p)] = h
        split = None
        if w % 2 == 0:
            mid = rng.randint(0, max_entry)
            if mid:
                hpq[(w // 2, w // 2)] = mid
                if place is Place.REAL:
                    h_plus = rng.randint(0, mid)
                    split = (h_plus, mid - h_plus)
        if hpq:
            pieces.append(WeightPiece(w, hpq, split))
    return HodgeData(name, d, place, tuple(pieces))


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


def random_expression(rng: random.Random, size: int = 3) -> GammaExpression:
    """Small random formal product with shifts and roots in [-4, 4]."""
    gr = {}
    gc = {}
    lin = {}
    for _ in range(size):
        table = rng.choice([gr, gc, lin])
        k = rng.randint(-4, 4)
        table[k] = table.get(k, 0) + rng.choice([-2, -1, 1, 2])
    return GammaExpression(gr=gr, gc=gc, lin=lin)


def nonsingular_points(rng: random.Random, expr, count: int,
                       lo: float = -10.0, hi: float = 10.0) -> list:
    """Sample points at which every factor of expr is finite and nonzero."""
    from archfactor import evaluate_log, SingularEvaluationError
    out = []
    while len(out) < count:
        s = rng.uniform(lo, hi)
        try:
            evaluate_log(expr, s, guard=1e-6)
        except SingularEvaluationError:
            continue
        out.append(s)
    return out
