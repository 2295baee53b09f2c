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
integer eigenvalues; ``theta_spectrum`` reassembles its full spectral
multiset, one parity per cohomological weight parity, as an explicit
head plus eventually periodic infinite tails.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Vanishes whenever 2j - n falls outside [0, 2d] or an index is
    negative, so no membership precondition is needed.
    """
    if n < 0 or j < 0:
        return 0
    w = 2 * j - n
    if not 0 <= w <= 2 * data.dim:
        return 0
    return data.piece(w).below(j + 1)


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
    if n < 0 or j < 0:
        return 0
    w = 2 * j - n
    if not 0 <= w <= 2 * data.dim:
        return 0
    piece = data.piece(w)
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
# spectral measures


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression of eigenvalues first, first-step, ...,
    descending, each carrying the same multiplicity.

    ``count`` is the number of terms, or None for an infinite tail.
    """

    first: int
    step: int
    count: int | None
    multiplicity: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.count is not None and self.count < 0:
            raise ValueError(f"count must be >= 0 or None, got {self.count}")
        if self.multiplicity < 0:
            raise ValueError(f"negative multiplicity {self.multiplicity}")

    def contains(self, m: int) -> bool:
        k, rem = divmod(self.first - m, self.step)
        if rem != 0 or k < 0:
            return False
        return self.count is None or k < self.count

    def last(self) -> int:
        """Smallest eigenvalue; only for finite progressions."""
        if self.count is None:
            raise ValueError("infinite progression has no last term")
        if self.count == 0:
            raise ValueError("empty progression has no last term")
        return self.first - self.step * (self.count - 1)


@dataclass(frozen=True)
class SpectralMeasure:
    """Integer eigenvalue multiplicities, split by degree parity."""

    even: tuple
    odd: tuple

    def __post_init__(self):
        object.__setattr__(self, "even", tuple(self.even))
        object.__setattr__(self, "odd", tuple(self.odd))

    def progressions(self, parity: int) -> tuple:
        return self.even if parity % 2 == 0 else self.odd

    def multiplicity(self, parity: int, m: int) -> int:
        return sum(p.multiplicity for p in self.progressions(parity)
                   if p.count != 0 and p.contains(m))

    def tail_constants(self, parity: int) -> dict:
        """Eventual multiplicity per residue class of m mod 2."""
        tails = {0: 0, 1: 0}
        for p in self.progressions(parity):
            if p.count is not None:
                continue
            if p.step == 1:
                tails[0] += p.multiplicity
                tails[1] += p.multiplicity
            elif p.step == 2:
                tails[p.first % 2] += p.multiplicity
            else:
                raise ValueError(f"no 2-periodic tail for step {p.step}")
        return tails

    def stable_from(self, parity: int) -> int:
        """Largest m at which the multiplicity function is already given
        by the tail constants for everything below."""
        lows = [0]
        for p in self.progressions(parity):
            if p.count is None:
                lows.append(p.first)
            elif p.count > 0:
                lows.append(p.last() - 1)
        return min(lows)

    def max_head(self, parity: int) -> int:
        firsts = [p.first for p in self.progressions(parity) if p.count != 0]
        return max(firsts) if firsts else 0


def same_spectrum(a: SpectralMeasure, b: SpectralMeasure) -> bool:
    """Equality of multiplicity functions, representation independent."""
    for parity in (0, 1):
        if a.tail_constants(parity) != b.tail_constants(parity):
            return False
        lo = min(a.stable_from(parity), b.stable_from(parity)) - 2
        hi = max(a.max_head(parity), b.max_head(parity))
        for m in range(lo, hi + 1):
            if a.multiplicity(parity, m) != b.multiplicity(parity, m):
                return False
    return True


def weight_spectrum(data: HodgeData, w: int) -> SpectralMeasure:
    """Eigenvalue multiplicities contributed by a single weight.

    The multiplicity at eigenvalue m <= floor(w/2) is the archimedean
    dimension at the index pair (w - 2m, w - m); eigenvalues above
    floor(w/2) never occur.  Heads are listed eigenvalue by eigenvalue
    down to -2; from there on the multiplicities are eventually
    periodic and are encoded as infinite tails, one step-1 progression
    at a complex place and two step-2 progressions (one per parity of
    m) at a real place.
    """
    if not 0 <= w <= 2 * data.dim:
        raise ValueError(f"weight {w} outside [0, {2*data.dim}]")
    heads = [(m, 1, 1) for m in range(w // 2, -3, -1)]
    tails = ([(-3, 1, None)] if data.place is Place.COMPLEX
             else [(-3, 2, None), (-4, 2, None)])
    progs = []
    for first, step, count in heads + tails:
        mult = har_dim(data, *a_to_e(w, first, data.dim))
        if mult:
            progs.append(Progression(first, step, count, mult))
    if w % 2:
        return SpectralMeasure((), tuple(progs))
    return SpectralMeasure(tuple(progs), ())


def theta_spectrum(data: HodgeData) -> SpectralMeasure:
    """Full spectrum of the scaling generator: the union over the
    weights present in the data of the per-weight multiplicities, split
    by weight parity.  An absent weight contributes nothing, so the cost
    follows the nonzero Hodge data, not ``dim``."""
    even: list = []
    odd: list = []
    for piece in data.weights:
        part = weight_spectrum(data, piece.w)
        even.extend(part.even)
        odd.extend(part.odd)
    return SpectralMeasure(tuple(even), tuple(odd))
