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

from __future__ import annotations

import enum
import json
from dataclasses import dataclass


class Place(enum.Enum):
    """The archimedean completion the data lives over."""

    REAL = "real"
    COMPLEX = "complex"


@dataclass(frozen=True)
class WeightPiece:
    """Hodge numbers of a single weight, with optional middle split.

    ``hpq`` maps (p, q) with p + q = w to h^{p,q} > 0; zero entries are
    dropped on construction so equal pieces compare equal.  ``middle_split``
    is only meaningful for even w at a real place.
    """

    w: int
    hpq: dict
    middle_split: tuple | None = None

    def __post_init__(self):
        clean = {}
        for key, v in sorted(self.hpq.items()):
            v = int(v)
            if v:
                clean[(int(key[0]), int(key[1]))] = v
        object.__setattr__(self, "hpq", clean)
        if self.middle_split is not None:
            ms = (int(self.middle_split[0]), int(self.middle_split[1]))
            object.__setattr__(self, "middle_split", ms)

    def middle(self) -> int:
        """h^{w/2,w/2}, or 0 for odd weight."""
        if self.w % 2:
            return 0
        p = self.w // 2
        return self.hpq.get((p, p), 0)

    def total(self) -> int:
        """The Betti number of this weight."""
        return sum(self.hpq.values())


@dataclass(frozen=True)
class HodgeData:
    """A named bundle of weight pieces over one archimedean place."""

    name: str
    dim: int
    place: Place
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "place", Place(self.place))
        object.__setattr__(
            self, "weights", tuple(sorted(self.weights, key=lambda p: p.w)))

    def piece(self, w: int) -> WeightPiece | None:
        for p in self.weights:
            if p.w == w:
                return p
        return None


def betti(data: HodgeData, w: int) -> int:
    """b_w = sum of h^{p,q} over p + q = w; 0 for absent weights."""
    p = data.piece(w)
    return p.total() if p is not None else 0


def betti_eigen(data: HodgeData, w: int, sign: int) -> int:
    """Dimension of the (+1 or -1) eigenspace of the conjugation
    involution on weight-w Betti cohomology, real place only.

    Off-diagonal Hodge numbers pair up under p <-> q and split evenly
    between the two eigenvalues; the middle piece splits according to
    ``middle_split`` with h_plus sitting at the eigenvalue (-1)^(w/2).
    """
    if data.place is not Place.REAL:
        raise ValueError("betti_eigen is only defined at a real place")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    piece = data.piece(w)
    if piece is None:
        return 0
    off = sum(h for (p, q), h in piece.hpq.items() if p < q)
    mid = piece.middle()
    if mid == 0:
        return off
    if piece.middle_split is None:
        raise ValueError(
            f"weight {w}: nonzero middle Hodge number without middle_split")
    h_plus, h_minus = piece.middle_split
    middle_sign = 1 if (w // 2) % 2 == 0 else -1
    return off + (h_plus if sign == middle_sign else h_minus)


def validate(data: HodgeData, check_poincare: bool = False) -> list:
    """List of human-readable constraint violations; empty means valid.

    Checked: weight range, Hodge symmetry h^{p,q} = h^{q,p}, index
    consistency p + q = w with p, q >= 0, nonnegative counts, and the
    middle-split rules (present with consistent sum at a real place
    whenever the middle Hodge number is nonzero, absent at a complex
    place and on odd weights).  Poincare duality b_w = b_{2d-w} is an
    opt-in lint, since sub-motives of a variety need not satisfy it.
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
        for (p, q), h in piece.hpq.items():
            if p < 0 or q < 0 or p + q != piece.w:
                bad.append(f"{tag}.hpq[{p},{q}]: indices do not match weight")
            if h < 0:
                bad.append(f"{tag}.hpq[{p},{q}]: negative count {h}")
            if piece.hpq.get((q, p), 0) != h:
                bad.append(f"{tag}.hpq[{p},{q}]={h}: breaks Hodge symmetry "
                           f"with h[{q},{p}]={piece.hpq.get((q, p), 0)}")
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
    if check_poincare:
        for w in range(0, data.dim + 1):
            if betti(data, w) != betti(data, 2 * data.dim - w):
                bad.append(f"poincare: b_{w} != b_{2*data.dim - w}")
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
    p1_r = HodgeData("P1_R", 1, Place.REAL,
                     (WeightPiece(0, {(0, 0): 1}, (1, 0)),
                      WeightPiece(2, {(1, 1): 1}, (1, 0))))
    p1_c = HodgeData("P1_C", 1, Place.COMPLEX,
                     (WeightPiece(0, {(0, 0): 1}),
                      WeightPiece(2, {(1, 1): 1})))
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
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choices: "
                       f"{', '.join(PRESET_NAMES)}") from None


def direct_sum(a: HodgeData, b: HodgeData) -> HodgeData:
    """Weight-wise sum of Hodge numbers and middle splits.

    Both summands must live over the same place.  The result has
    dim = max(dims), which keeps every weight in range.
    """
    if a.place is not b.place:
        raise ValueError(f"cannot sum data over different places "
                         f"({a.place.value} vs {b.place.value})")
    pieces = []
    for w in sorted({p.w for p in a.weights} | {p.w for p in b.weights}):
        pa, pb = a.piece(w), b.piece(w)
        hpq: dict = {}
        split = None
        for src in (pa, pb):
            if src is None:
                continue
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


def _expect(value, kind: type, path: str):
    # an exact type test: JSON true/false are bools, a subclass of int
    if type(value) is not kind:
        got = (_JSON_NAMES[type(value)] if isinstance(value, (dict, list))
               else repr(value))
        raise ValueError(f"{path}: expected {_JSON_NAMES[kind]}, got {got}")
    return value


def _get(obj: dict, at: str, key: str, kind: type):
    path = f"{at}.{key}" if at else key
    if key not in obj:
        raise ValueError(f"{path}: missing")
    return _expect(obj[key], kind, path)


def from_json_dict(doc) -> HodgeData:
    """Inverse of :func:`to_json_dict`, strict about shape.

    Every level must be an object, every count an integer (never a
    boolean, float or infinity) and every ``hpq`` key ``"p,q"``.  Raises
    ValueError naming the JSON path of the first offending value.
    """
    _expect(doc, dict, "document")
    name = _expect(doc.get("name", "unnamed"), str, "name")
    dim = _get(doc, "", "dim", int)
    place = _get(doc, "", "place", str)
    if place not in {p.value for p in Place}:
        raise ValueError(f'place: expected "real" or "complex", got {place!r}')
    pieces = []
    for i, entry in enumerate(_get(doc, "", "weights", list)):
        at = f"weights[{i}]"
        _expect(entry, dict, at)
        hpq = {}
        for key, h in _get(entry, at, "hpq", dict).items():
            path = f"{at}.hpq[{json.dumps(key)}]"
            try:
                p, q = map(int, key.split(","))
            except ValueError:
                raise ValueError(f'{path}: expected a key "p,q"') from None
            hpq[(p, q)] = _expect(h, int, path)
        split = entry.get("middle_split")
        if split is not None:
            path = f"{at}.middle_split"
            if len(_expect(split, list, path)) != 2:
                raise ValueError(f"{path}: expected [h_plus, h_minus], "
                                 f"got a list of {len(split)}")
            split = tuple(_expect(h, int, f"{path}[{k}]")
                          for k, h in enumerate(split))
        pieces.append(WeightPiece(_get(entry, at, "w", int), hpq, split))
    return HodgeData(name, dim, Place(place), tuple(pieces))
