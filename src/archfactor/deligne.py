"""Pole orders of the local factors, computed without Gamma functions.

The order of the pole of the weight-w factor at an integer s = m
(equivalently, the order of vanishing of its inverse there) is the
real dimension of a cohomology group that depends only on
the Hodge numbers and on the twist r = w + 1 - m.  In the regime
w + 1 < 2r (equivalently m <= floor(w/2)) the dimension is

    complex place:  2 * sum_{p<r, p+q=w} h^{p,q}  -  b_w
    real place:     sum_{p<r, p+q=w} h^{p,q}
                    -  dim of the (-1)^r eigenspace on weight-w
                       Betti cohomology

and outside that regime the formula is not valid, so asking for it is
an error rather than a zero.  This gives a route to the divisor of the
completed product that never touches GR/GC factor bookkeeping, which is
exactly what makes it useful as a cross-check.
"""

from .hodge import HodgeData, InputError, Place


class OutOfRegimeError(InputError):
    """The dimension formula was asked for outside w + 1 < 2r."""


def deligne_dim(data: HodgeData, w: int, r: int) -> int:
    """Real dimension of the weight-w twist-r cohomology group above."""
    if not 0 <= w <= 2 * data.dim:
        raise InputError(f"weight {w} outside [0, {2*data.dim}]")
    if w + 1 >= 2 * r:
        raise OutOfRegimeError(
            f"dimension formula needs w+1 < 2r, got w={w}, r={r}")
    piece = data.piece(w)
    if data.place is Place.COMPLEX:
        return 2 * piece.below(r) - piece.total()
    return piece.below(r) - piece.eigen(1 if r % 2 == 0 else -1)


def pole_order(data: HodgeData, w: int, m: int) -> int:
    """Order of the pole of serre_factor(w) at s = m.

    Zero for m > floor(w/2); otherwise the twist r = w + 1 - m lies in
    the valid regime and the dimension formula applies verbatim.
    """
    if not 0 <= w <= 2 * data.dim:
        raise InputError(f"weight {w} outside [0, {2*data.dim}]")
    if m > w // 2:
        return 0
    return deligne_dim(data, w, w + 1 - m)
