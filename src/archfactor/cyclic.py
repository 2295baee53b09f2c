"""Cyclic homology dimension bookkeeping and the eigenvalue spectrum of
the scaling generator.

For a smooth projective variety with Hodge numbers h^{p,q} the relevant
dimension counts in homological degree n and lambda-weight j are pure
combinatorics in w = 2j - n:

    hc (cyclic)            sum_{p <= j, p+q=w} h^{p,q}
    hn (negative cyclic)   sum_{p >= j, p+q=w} h^{p,q}
    hp (periodic)          b_w
    har (archimedean)      the cokernel of the rational lattice in
                           the lambda-graded exact sequence

hc/hn/hp are complex dimensions of the theory over C; ``hc_dim`` also
reports the real dimension of the natural coefficient field (twice the
complex count at a complex place, equal to it at a real place).  The
archimedean count is supported on the index set

    E_d = {(n, j) : n >= 0 and 0 <= 2j - n <= 2d}

which is carried bijectively onto the pole bookkeeping set

    A_d = {(q, m) : 0 <= q <= 2d, m <= q/2}

by (n, j) -> (2j - n, j - n).  ``e_to_a``, ``a_to_e``, ``hc_dim``,
``hn_dim``, ``hp_dim`` and :mod:`archfactor.hodge`'s ``betti_eigen`` and
``direct_sum`` have no caller in the package: they are the paper's
quantities that acceptance criteria 5, 6 and 8 bind.

The scaling generator acts on the graded archimedean theory with
integer eigenvalues.  Each weight's multiplicities are encoded as
infinite tails alone (``weight_tails``): at either place one step-1
tail per pair h^{p,q} = h^{q,p} with p != q, and at most two heads, so
no eigenvalue is listed one at a time; ``theta_spectrum`` gathers the
tails of all weights, or of one, into a :class:`SpectralMeasure`, one
parity block per cohomological weight parity.
"""

from .hodge import HodgeData, InputError, Place, betti


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
        raise InputError(f"(n={n}, j={j}) not in E_{d}")
    return 2 * j - n, j - n


def a_to_e(q: int, m: int, d: int) -> tuple:
    """(weight, eigenvalue) in A_d  ->  (q - 2m, q - m) in E_d."""
    if not is_pole_pair(q, m, d):
        raise InputError(f"(q={q}, m={m}) not in A_{d}")
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
    """Real dimension of archimedean cyclic homology, the cokernel of
    the rational lattice in the exact sequence: 0 off E_d, and on it,
    with w = 2j - n, 2 * hc_dim_complex - b_w at a complex place and
    hc_dim minus the (-1)^(j+1) eigenspace on b_w at a real one."""
    if not is_cyclic_pair(n, j, data.dim):
        return 0
    piece = data.piece(2 * j - n)
    if data.place is Place.COMPLEX:
        return 2 * piece.below(j + 1) - piece.total()
    return piece.below(j + 1) - piece.eigen(1 if j % 2 else -1)


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
            raise InputError(f"step must be >= 1, got {step}")
        if count is not None and count < 0:
            raise InputError(f"count must be >= 0 or None, got {count}")
        if multiplicity < 0:
            raise InputError(f"negative multiplicity {multiplicity}")
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


def weight_tails(data: HodgeData, w: int) -> list:
    """The eigenvalue multiplicities of a single weight as infinite tails
    [(first, step, multiplicity), ...], heads first.

    The multiplicity at eigenvalue m <= floor(w/2) is the archimedean
    dimension :func:`har_dim` at the image (w - 2m, w - m) in E_d of
    (w, m) in A_d; eigenvalues above floor(w/2) never occur.
    Going down, it grows by k * h^{p,q} once m reaches w - p, with k = 2
    at a complex place and 1 at a real one, and is otherwise constant
    over C and 2-periodic over R.  So each h^{p,q} with p > w/2 gives
    one step-1 tail from w - p of multiplicity k * h^{p,q} (over R, the
    two step-2 tails through w - p and w - p - 1 made one), and heads
    carry what is left: one step-1 head from floor(w/2) over C,
    step-2 heads from floor(w/2) and floor(w/2) - 1 over R.  That is at
    most #h^{p,q} / 2 + 2 nonzero tails, whatever w and dim are.
    """
    data.check_weight(w)
    top, piece = w // 2, data.piece(w)
    k, heads = ((2, (top,)) if data.place is Place.COMPLEX
                else (1, (top, top - 1)))
    base = piece.below(top + 1)  # the h^{p,q} with p <= w/2, in no tail
    tails = []
    for c in heads:
        # (w, c) in A_d is (w - 2c, w - c) in E_d, written out rather
        # than through a_to_e, which would check A_d again per lookup
        if mult := (har_dim(data, w - 2 * c, w - c)
                    - k * (piece.below(w - c + 1) - base)):
            tails.append((c, 2 // k, mult))
    tails += [(w - p, 1, k * h) for (p, _), h in piece.hpq.items() if p > top]
    return tails


def theta_spectrum(data: HodgeData, w: int | None = None) -> SpectralMeasure:
    """Spectrum of the scaling generator, from the :func:`weight_tails`
    of every weight present in the data (or of weight w alone), each in
    the parity block of its weight.  An absent weight contributes
    nothing, so the cost follows the nonzero Hodge data, not ``dim``."""
    parts = ([], [])
    for v in (piece.w for piece in data.weights) if w is None else (w,):
        parts[v % 2].extend(weight_tails(data, v))
    return SpectralMeasure(*parts)
