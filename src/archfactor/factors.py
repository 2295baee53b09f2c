"""Archimedean local factors attached to Hodge-numeric data.

For a single weight w the factor is the classical product of shifted
Gamma functions:

  complex place
      L_w(s) = prod over ordered pairs (p, q), p+q=w, of
               GC(s - min(p,q))^h[p,q]

  real place
      L_w(s) = prod over unordered pairs p < q of GC(s - p)^h[p,q]
               * (for even w = 2p)
                 GR(s - p)^h_plus * GR(s - p + 1)^h_minus

with h_plus/h_minus the middle conjugation split carried by the input
data.  The completed product over all weights takes each factor with
exponent (-1)^(w+1), so even weights contribute inverted factors.
"""

from .gamma import GammaExpression, product
from .hodge import HodgeData, Place, WeightPiece


def serre_tables(piece: WeightPiece, place: Place,
                 k: int = 1) -> GammaExpression:
    """The local factor of one weight piece at the given place (a
    :class:`Place`), raised to k, uncleaned."""
    out = GammaExpression()
    gr, gc = out.gr, out.gc
    if place is Place.COMPLEX:
        for (p, q), h in piece.hpq.items():
            a = -min(p, q)
            gc[a] = gc.get(a, 0) + k * h
    else:
        for (p, q), h in piece.hpq.items():
            if p < q:
                gc[-p] = gc.get(-p, 0) + k * h
        h_plus, h_minus = piece.split()
        if h_plus or h_minus:
            p = piece.w // 2
            gr[-p] = gr.get(-p, 0) + k * h_plus
            gr[-p + 1] = gr.get(-p + 1, 0) + k * h_minus
    return out


def serre_factor(piece: WeightPiece, place: Place) -> GammaExpression:
    """Local factor of one weight piece at the given place."""
    return serre_tables(piece, Place(place)).clean()


def alternating_sign(w: int) -> int:
    """(-1)^(w+1), the exponent weight w carries in the completed product."""
    return 1 if w % 2 else -1


def completed_alternating_product(data: HodgeData,
                                  factors=None) -> GammaExpression:
    """prod_w L_w^((-1)^(w+1)) over the weights of the data, copying their
    local factors {w: L_w} when given; an absent weight contributes 1."""
    if factors is None:
        return product(serre_tables(p, data.place, alternating_sign(p.w))
                       for p in data.weights)
    return product(GammaExpression().add(x, alternating_sign(w))
                   for w, x in factors.items())
