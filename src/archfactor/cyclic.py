"""Cyclic homology dimension bookkeeping and the eigenvalue spectrum of
the scaling generator.

For a smooth projective variety with Hodge numbers h^{p,q} the relevant
dimension counts in homological degree n and lambda-weight j are pure
combinatorics in w = 2j - n:

    hc (cyclic)            sum_{p <= j, p+q=w} h^{p,q}
    hn (negative cyclic)   sum_{p >= j, p+q=w} h^{p,q}
    hp (periodic)          b_w
    har (archimedean)      the pole-order dimension at weight w,
                           twist r = j + 1

hc/hn/hp are complex dimensions of the theory over C; ``hc_dim`` also
reports the real dimension of the natural coefficient field (twice the
complex count at a complex place, equal to it at a real place).  The
archimedean count is supported on the index set

    E_d = {(n, j) : n >= 0 and 0 <= 2j - n <= 2d}

which is carried bijectively onto the pole bookkeeping set

    A_d = {(q, m) : 0 <= q <= 2d, m <= q/2}

by (n, j) -> (2j - n, j - n).

The scaling generator acts on the graded archimedean theory with
integer eigenvalues.  Each weight's multiplicities are encoded as
infinite tails alone, a few per Hodge number (``weight_tails``), so no
eigenvalue is listed one at a time; ``theta_spectrum`` gathers the
tails of all weights, or of one, into a :class:`SpectralMeasure`, one
parity block per cohomological weight parity.
"""

from bisect import bisect_right
from itertools import islice

from .deligne import deligne_dim
from .hodge import HodgeData, Place, betti, betti_eigen


# ---------------------------------------------------------------------------
# index sets and the change of bookkeeping


def is_cyclic_pair(n: int, j: int, d: int) -> bool:
    """Membership of (n, j) in E_d."""
    return n >= 0 and 0 <= 2 * j - n <= 2 * d


def is_pole_pair(q: int, m: int, d: int) -> bool:
    """Membership of (q, m) in A_d; m may be any integer <= q/2."""
    return 0 <= q <= 2 * d and 2 * m <= q


def e_to_a(n: int, j: int, d: int) -> tuple:
    """(n, j) in E_d  ->  (weight, eigenvalue) = (2j - n, j - n) in A_d."""
    if not is_cyclic_pair(n, j, d):
        raise ValueError(f"(n={n}, j={j}) not in E_{d}")
    return 2 * j - n, j - n


def a_to_e(q: int, m: int, d: int) -> tuple:
    """(weight, eigenvalue) in A_d  ->  (q - 2m, q - m) in E_d."""
    if not is_pole_pair(q, m, d):
        raise ValueError(f"(q={q}, m={m}) not in A_{d}")
    return q - 2 * m, q - m


# ---------------------------------------------------------------------------
# dimension counts


def hc_dim_complex(data: HodgeData, n: int, j: int) -> int:
    """Complex dimension of degree-n, weight-j cyclic homology of the
    theory over C: sum_{p <= j, p+q = 2j-n} h^{p,q}.

    Vanishes outside E_d, so no membership precondition is needed.
    """
    if not is_cyclic_pair(n, j, data.dim):
        return 0
    return data.piece(2 * j - n).below(j + 1)


def hc_dim(data: HodgeData, n: int, j: int) -> int:
    """Real dimension of the same cyclic homology group over the
    place's own coefficient field."""
    c = hc_dim_complex(data, n, j)
    return 2 * c if data.place is Place.COMPLEX else c


def hp_dim(data: HodgeData, n: int, j: int) -> int:
    """Complex dimension of periodic cyclic homology, and the real rank
    of the rational lattice inside it: b_{2j-n}."""
    if n < 0 or j < 0:
        return 0
    return betti(data, 2 * j - n) if 2 * j - n >= 0 else 0


def hn_dim(data: HodgeData, n: int, j: int) -> int:
    """Complex dimension of negative cyclic homology:
    sum_{p >= j, p+q = 2j-n} h^{p,q}."""
    if not is_cyclic_pair(n, j, data.dim):
        return 0
    piece = data.piece(2 * j - n)
    return piece.total() - piece.below(j)


def har_dim(data: HodgeData, n: int, j: int) -> int:
    """Real dimension of the archimedean cyclic homology group.

    Supported exactly on E_d; outside it the group vanishes and 0 is
    returned.  On E_d the value is the pole-order dimension at weight
    w = 2j - n and twist r = j + 1, which is automatically inside the
    valid regime since n >= 0.
    """
    if not is_cyclic_pair(n, j, data.dim):
        return 0
    return deligne_dim(data, 2 * j - n, j + 1)


def har_dim_from_sequence(data: HodgeData, n: int, j: int) -> int:
    """The same count obtained from the defining exact sequence instead
    of the dimension formula: the cokernel of the rational lattice map
    into cyclic homology.

    complex place:  2 * hc_dim_complex - b_w
    real place:     hc_dim - dim of the (-1)^(j+1) eigenspace on b_w
    """
    if not is_cyclic_pair(n, j, data.dim):
        return 0
    w = 2 * j - n
    if data.place is Place.COMPLEX:
        return 2 * hc_dim_complex(data, n, j) - betti(data, w)
    sign = 1 if (j + 1) % 2 == 0 else -1
    return hc_dim(data, n, j) - betti_eigen(data, w, sign)


# ---------------------------------------------------------------------------
# spectra


class Progression:
    """Arithmetic progression of eigenvalues first, first-step, ...,
    descending, each carrying the same multiplicity.

    ``count`` is the number of terms, or None for an infinite tail.
    """

    __slots__ = ("first", "step", "count", "multiplicity")

    def __init__(self, first: int, step: int, count: int | None,
                 multiplicity: int):
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if count is not None and count < 0:
            raise ValueError(f"count must be >= 0 or None, got {count}")
        if multiplicity < 0:
            raise ValueError(f"negative multiplicity {multiplicity}")
        self.first = first
        self.step = step
        self.count = count
        self.multiplicity = multiplicity


class SpectralMeasure:
    """Integer eigenvalue multiplicities, split by degree parity, as
    infinite descending tails (first, step, multiplicity)."""

    __slots__ = ("even", "odd")

    def __init__(self, even, odd):
        self.even = tuple(even)
        self.odd = tuple(odd)

    def multiplicity(self, parity: int, m: int) -> int:
        """Sum of the multiplicities of the tails through m."""
        return sum(mult for first, step, mult in (
            self.odd if parity % 2 else self.even)
            if first >= m and (first - m) % step == 0)


def weight_tails(data: HodgeData, w: int) -> tuple:
    """The eigenvalue multiplicities of a single weight as infinite tails
    of one step: (step, [(first, multiplicity), ...]).

    The multiplicity at eigenvalue m <= floor(w/2) is the archimedean
    dimension at the index pair (w - 2m, w - m), i.e.
    deligne_dim(w, w + 1 - m); eigenvalues above floor(w/2) never occur.
    Going down, it only grows, by h^{p,q} (twice that at a complex
    place) once m reaches w - p.  So a complex place gets one step-1
    tail from floor(w/2) plus one per h^{p,q} with w - p below it, and
    a real place the same with step-2 tails per residue class of m mod
    2, from c = floor(w/2) and c = floor(w/2) - 1, each h^{p,q} starting
    at the first m <= w - p of the class.  That is at most
    2 * #h^{p,q} + 2 nonzero tails, whatever w and dim are.
    """
    top, piece = w // 2, data.piece(w)
    step, starts = ((1, (top,)) if data.place is Place.COMPLEX
                    else (2, (top, top - 1)))
    tails = []
    for c in starts:
        if mult := deligne_dim(data, w, w + 1 - c):
            tails.append((c, mult))
        tails.extend((w - p - (w - p - c) % step, 2 // step * h)
                     for (p, _), h in islice(piece.hpq.items(), bisect_right(
                         piece._ps, w - c), None))
    return step, tails


def theta_spectrum(data: HodgeData, w: int | None = None) -> SpectralMeasure:
    """Spectrum of the scaling generator, from the :func:`weight_tails`
    of every weight present in the data (or of weight w alone), each in
    the parity block of its weight.  An absent weight contributes
    nothing, so the cost follows the nonzero Hodge data, not ``dim``."""
    parts = ([], [])
    for v in (piece.w for piece in data.weights) if w is None else (w,):
        step, tails = weight_tails(data, v)
        parts[v % 2].extend((first, step, mult) for first, mult in tails)
    return SpectralMeasure(*parts)
