"""Pole orders of the local factors, computed without Gamma functions.

The order of the pole of the weight-w factor at an integer s = m
(equivalently, the order of vanishing of its inverse there) is the
real dimension of a cohomology group that depends only on
the Hodge numbers and on the twist r = w + 1 - m.  In the regime
w + 1 < 2r (equivalently m <= floor(w/2)) that group is archimedean
cyclic homology, and its dimension is :func:`archfactor.cyclic.har_dim`
at the shifted index (n, j) = (2r - 2 - w, r - 1):

    complex place:  2 * sum_{p<r, p+q=w} h^{p,q}  -  b_w
    real place:     sum_{p<r, p+q=w} h^{p,q}
                    -  dim of the (-1)^r eigenspace on weight-w
                       Betti cohomology

Outside that regime the formula is not valid, so asking for it is an
error rather than a zero.  This is a route to the divisor of the
completed product that never touches GR/GC factor bookkeeping, so
acceptance criterion 3, which checks it against the Gamma divisor,
compares the LHS with HC^ar.
"""

from .cyclic import har_dim
from .hodge import HodgeData, InputError


class OutOfRegimeError(InputError):
    """The dimension formula was asked for outside w + 1 < 2r."""


def deligne_dim(data: HodgeData, w: int, r: int) -> int:
    """Real dimension of the weight-w twist-r cohomology group above."""
    data.check_weight(w)
    if w + 1 >= 2 * r:
        raise OutOfRegimeError(
            f"dimension formula needs w+1 < 2r, got w={w}, r={r}")
    return har_dim(data, 2 * r - 2 - w, r - 1)


def pole_order(data: HodgeData, w: int, m: int) -> int:
    """Order of the pole of serre_factor(w) at s = m, the twist
    r = w + 1 - m: :func:`har_dim` at the shifted index (w - 2m, w - m),
    which leaves E_d, giving 0, for m > floor(w/2)."""
    data.check_weight(w)
    return har_dim(data, w - 2 * m, w - m)
