"""Hodge-numeric description of a smooth projective variety at one
archimedean place.

A :class:`HodgeData` records, for a variety of dimension d over R or C,
the Hodge numbers h^{p,q} of each cohomological weight w = p + q in
[0, 2d].  At a real place the middle Hodge piece of an even weight
w = 2p carries in addition the eigenvalue split of the involution
induced by complex conjugation (the infinite Frobenius): ``middle_split``
= (h_plus, h_minus) where h_plus counts the eigenvalue (-1)^p on
H^{p,p} and h_minus the eigenvalue -(-1)^p.

Everything is plain integer bookkeeping; the geometric content enters
only through the preset catalogue and through whatever data the caller
supplies.
"""

import enum
import json
from bisect import bisect_left
from itertools import accumulate


class InputError(ValueError):
    """Input the package refuses: a malformed document or an argument
    outside a function's domain.  The command line exits 2 on it."""


class Place(enum.Enum):
    """The archimedean completion the data lives over."""

    REAL = "real"
    COMPLEX = "complex"


class WeightPiece:
    """Hodge numbers of a single weight, with optional middle split.

    ``hpq`` maps (p, q) with p + q = w to h^{p,q} > 0; zero entries are
    dropped on construction so equal pieces compare equal.  ``middle_split``
    is only meaningful for even w at a real place.  The p indices are
    kept in ascending order with the running sums of h^{p,q}, so every
    partial Hodge sum is one lookup (:meth:`below`).  ``faults`` lists
    the entries that break p, q >= 0, p + q = w, h^{p,q} > 0 or Hodge
    symmetry h^{p,q} = h^{q,p}, in the words :func:`validate` reports.
    """

    __slots__ = ("w", "hpq", "middle_split", "faults", "_ps", "_sums")

    def __init__(self, w: int, hpq: dict, middle_split: tuple | None = None):
        clean = {}
        self.faults = faults = []
        for (p, q), v in sorted(hpq.items()):
            if v:
                clean[p, q] = v
                if p < 0 or q < 0 or p + q != w:
                    faults.append(f"weights[w={w}].hpq[{p},{q}]: "
                                  "indices do not match weight")
                if v < 0:
                    faults.append(f"weights[w={w}].hpq[{p},{q}]: "
                                  f"negative count {v}")
                if hpq.get((q, p), 0) != v:
                    faults.append(f"weights[w={w}].hpq[{p},{q}]={v}: breaks "
                                  f"Hodge symmetry with h[{q},{p}]="
                                  f"{hpq.get((q, p), 0)}")
        self.w = w
        self.hpq = clean
        self._ps = [p for p, _ in clean]
        self._sums = [0, *accumulate(clean.values())]
        self.middle_split = (None if middle_split is None else
                             (int(middle_split[0]), int(middle_split[1])))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.w, self.hpq, self.middle_split)
                == (other.w, other.hpq, other.middle_split))

    def middle(self) -> int:
        """h^{w/2,w/2}, or 0 for odd weight."""
        if self.w % 2:
            return 0
        p = self.w // 2
        return self.hpq.get((p, p), 0)

    def below(self, r: int) -> int:
        """sum of h^{p,q} over p < r."""
        return self._sums[bisect_left(self._ps, r)]

    def total(self) -> int:
        """The Betti number of this weight."""
        return self._sums[-1]

    def split(self) -> tuple:
        """(h_plus, h_minus) of the middle number at a real place, or
        (0, 0) when there is none."""
        if not self.middle():
            return 0, 0
        if self.middle_split is None:
            raise InputError(f"weight {self.w}: nonzero middle Hodge "
                             "number without middle_split")
        return self.middle_split

    def eigen(self, sign: int) -> int:
        """Dimension of the ``sign`` eigenspace of conjugation at a real
        place: the pairs p != q split evenly, the middle piece as
        :meth:`split`, h_plus at the eigenvalue (-1)^(w/2)."""
        h_plus, h_minus = self.split()
        return self.below((self.w + 1) // 2) + (
            h_plus if sign == (-1) ** (self.w // 2 % 2) else h_minus)


class HodgeData:
    """A named bundle of weight pieces over one archimedean place."""

    __slots__ = ("name", "dim", "place", "weights", "_index")

    def __init__(self, name: str, dim: int, place: Place, weights: tuple):
        self.name = name
        self.dim = dim
        self.place = Place(place)
        self.weights = tuple(sorted(weights, key=lambda p: p.w))
        self._index = {}
        for p in self.weights:
            self._index.setdefault(p.w, p)  # the first piece of a weight wins

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.name, self.dim, self.place, self.weights)
                == (other.name, other.dim, other.place, other.weights))

    def check_weight(self, w: int) -> None:
        """Refuse a weight outside [0, 2 * dim]."""
        if not 0 <= w <= 2 * self.dim:
            raise InputError(f"weight {w} outside [0, {2*self.dim}]")

    def piece(self, w: int) -> WeightPiece:
        """The piece of weight w; an absent weight reads as the empty
        piece, whose every Hodge sum is 0 and whose factor is 1."""
        return self._index.get(w) or WeightPiece(w, {})


def betti(data: HodgeData, w: int) -> int:
    """b_w = sum of h^{p,q} over p + q = w; 0 for absent weights."""
    return data.piece(w).total()


def betti_eigen(data: HodgeData, w: int, sign: int) -> int:
    """:meth:`WeightPiece.eigen` of weight w, real place only."""
    if data.place is not Place.REAL:
        raise InputError("betti_eigen is only defined at a real place")
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign}")
    return data.piece(w).eigen(sign)


def validate(data: HodgeData) -> list:
    """List of human-readable constraint violations; empty means valid.

    Checked: weight range, the entries (each piece's ``faults``, found on
    construction, so valid data costs O(#weights) here), and the
    middle-split rules (present with consistent sum at a real place
    whenever the middle Hodge number is nonzero, absent at a complex
    place and on odd weights).  Poincare duality b_w = b_{2d-w} is not
    checked, since sub-motives of a variety need not satisfy it.
    """
    bad = []
    if data.dim < 0:
        bad.append(f"dim: negative dimension {data.dim}")
    seen = set()
    for piece in data.weights:
        tag = f"weights[w={piece.w}]"
        if piece.w in seen:
            bad.append(f"{tag}: duplicate weight")
        seen.add(piece.w)
        if not 0 <= piece.w <= 2 * data.dim:
            bad.append(f"{tag}: weight outside [0, {2*data.dim}]")
        bad += piece.faults
        ms = piece.middle_split
        if ms is not None:
            if piece.w % 2:
                bad.append(f"{tag}: middle_split on odd weight")
            elif data.place is Place.COMPLEX:
                bad.append(f"{tag}: middle_split at a complex place")
            else:
                if ms[0] < 0 or ms[1] < 0:
                    bad.append(f"{tag}: negative middle_split {ms}")
                if ms[0] + ms[1] != piece.middle():
                    bad.append(f"{tag}: middle_split {ms} does not sum to "
                               f"h^[{piece.w//2},{piece.w//2}]={piece.middle()}")
        elif (data.place is Place.REAL and piece.w % 2 == 0
              and piece.middle() > 0):
            bad.append(f"{tag}: real place needs middle_split for nonzero "
                       f"middle Hodge number {piece.middle()}")
    return bad


def _curve(place: Place, name: str, genus: int) -> HodgeData:
    # conjugation fixes H^0 and negates the orientation class of H^2,
    # so both even splits land on h_plus under the (-1)^(w/2) convention
    split = (1, 0) if place is Place.REAL else None
    pieces = [WeightPiece(0, {(0, 0): 1}, split)]
    if genus:
        pieces.append(WeightPiece(1, {(1, 0): genus, (0, 1): genus}))
    pieces.append(WeightPiece(2, {(1, 1): 1}, split))
    return HodgeData(name, 1, place, tuple(pieces))


def _make_presets() -> dict:
    point_r = HodgeData("point_R", 0, Place.REAL,
                        (WeightPiece(0, {(0, 0): 1}, (1, 0)),))
    point_c = HodgeData("point_C", 0, Place.COMPLEX,
                        (WeightPiece(0, {(0, 0): 1}),))
    p1_r = _curve(Place.REAL, "P1_R", 0)
    p1_c = _curve(Place.COMPLEX, "P1_C", 0)
    p2_c = HodgeData("P2_C", 2, Place.COMPLEX,
                     (WeightPiece(0, {(0, 0): 1}),
                      WeightPiece(2, {(1, 1): 1}),
                      WeightPiece(4, {(2, 2): 1})))
    ell_r = _curve(Place.REAL, "elliptic_R", 1)
    ell_c = _curve(Place.COMPLEX, "elliptic_C", 1)
    return {d.name: d for d in
            (point_r, point_c, p1_r, p1_c, p2_c, ell_r, ell_c)}


_PRESETS = _make_presets()

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> HodgeData:
    """One of the built-in geometries; see :data:`PRESET_NAMES`."""
    if name not in _PRESETS:
        raise InputError(f"unknown preset {name!r}; choices: "
                         f"{', '.join(PRESET_NAMES)}")
    return _PRESETS[name]


def direct_sum(a: HodgeData, b: HodgeData) -> HodgeData:
    """Weight-wise sum of Hodge numbers and middle splits.

    Both summands must live over the same place.  The result has
    dim = max(dims), which keeps every weight in range.
    """
    if a.place is not b.place:
        raise InputError(f"cannot sum data over different places "
                         f"({a.place.value} vs {b.place.value})")
    pieces = []
    for w in sorted({p.w for p in a.weights} | {p.w for p in b.weights}):
        pa, pb = a.piece(w), b.piece(w)
        hpq: dict = {}
        split = None
        for src in (pa, pb):
            for key, h in src.hpq.items():
                hpq[key] = hpq.get(key, 0) + h
            if src.middle_split is not None:
                s0, s1 = split if split is not None else (0, 0)
                split = (s0 + src.middle_split[0], s1 + src.middle_split[1])
        if hpq:
            pieces.append(WeightPiece(w, hpq, split))
    return HodgeData(f"{a.name}+{b.name}", max(a.dim, b.dim), a.place,
                     tuple(pieces))


def to_json_dict(data: HodgeData) -> dict:
    doc: dict = {"name": data.name, "dim": data.dim,
                 "place": data.place.value, "weights": []}
    for piece in data.weights:
        entry: dict = {
            "w": piece.w,
            "hpq": {f"{p},{q}": h for (p, q), h in sorted(piece.hpq.items())},
        }
        if piece.middle_split is not None:
            entry["middle_split"] = list(piece.middle_split)
        doc["weights"].append(entry)
    return doc


_JSON_NAMES = {dict: "object", list: "list", str: "string", int: "integer"}


class _Repeats(list):
    """The (key, value) pairs of a JSON object that repeats a key."""


def json_object(pairs: list) -> dict:
    """``object_pairs_hook`` for :mod:`json`: marks a repeated key."""
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else _Repeats(pairs)


def _expect(value, kind: type, path: str, keys=None):
    # an exact type test: JSON true/false are bools, a subclass of int
    if type(value) is not kind:
        if type(value) is _Repeats:
            key = next(k for k, _ in value if sum(j == k for j, _ in value) > 1)
            raise InputError(f"{path}: repeats the key {json.dumps(key)}")
        got = (_JSON_NAMES[type(value)] if isinstance(value, (dict, list))
               else repr(value))
        raise InputError(f"{path}: expected {_JSON_NAMES[kind]}, got {got}")
    if keys is not None and not value.keys() <= keys:  # an object's keys
        key = next(k for k in value if k not in keys)
        raise InputError(f"{path}: unknown key {json.dumps(key)}")
    # counts are evaluated in floating point, exact only up to 2^53
    if kind is int and abs(value) > 2 ** 53:
        raise InputError(f"{path}: integer out of range (|n| > 2^53)")
    return value


def _get(obj: dict, at: str, key: str, kind: type):
    path = f"{at}.{key}" if at else key
    if key not in obj:
        raise InputError(f"{path}: missing")
    return _expect(obj[key], kind, path)


def from_json_dict(doc) -> HodgeData:
    """Inverse of :func:`to_json_dict`, strict about shape.

    Every level must be an object with no unknown key, every count an
    integer (never a boolean, float or infinity), every ``hpq`` key
    ``"p,q"``.  An InputError names the JSON path of the first fault.
    """
    _expect(doc, dict, "document", {"name", "dim", "place", "weights"})
    name = _expect(doc.get("name", "unnamed"), str, "name")
    dim = _get(doc, "", "dim", int)
    place = _get(doc, "", "place", str)
    if place not in {p.value for p in Place}:
        raise InputError(f'place: expected "real" or "complex", got {place!r}')
    pieces = []
    for i, entry in enumerate(_get(doc, "", "weights", list)):
        at = f"weights[{i}]"
        _expect(entry, dict, at, {"w", "hpq", "middle_split"})
        hpq = {}
        raw = _get(entry, at, "hpq", dict)
        # the JSON path of an entry is built only to report it
        for key, h in raw.items():
            try:
                p, q = map(int, key.split(","))
            except ValueError:
                raise InputError(f'{at}.hpq[{json.dumps(key)}]: '
                                 'expected a key "p,q"') from None
            if type(h) is not int or abs(h) > 2 ** 53:
                _expect(h, int, f"{at}.hpq[{json.dumps(key)}]")
            hpq[(p, q)] = h
        if len(hpq) < len(raw):  # int() read two keys as one (p, q)
            firsts = {}
            for key in raw:
                pq = tuple(map(int, key.split(",")))
                if firsts.setdefault(pq, key) is not key:
                    raise InputError(f"{at}.hpq[{json.dumps(key)}]: names the "
                                     f"same (p, q) = {pq} as an earlier key")
        split = entry.get("middle_split")
        if split is not None:
            path = f"{at}.middle_split"
            if len(_expect(split, list, path)) != 2:
                raise InputError(f"{path}: expected [h_plus, h_minus], "
                                 f"got a list of {len(split)}")
            split = tuple(_expect(h, int, f"{path}[{k}]")
                          for k, h in enumerate(split))
        pieces.append(WeightPiece(_get(entry, at, "w", int), hpq, split))
    return HodgeData(name, dim, Place(place), tuple(pieces))
