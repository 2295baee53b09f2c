"""Seeded inputs of the four workloads.

Every generator takes the run's seed and returns plain JSON documents
(the command line's input schema) or plain numbers; archfactor sees
only these.  The seed chooses Hodge numbers, splits, positions inside
fixed bands and evaluation points.  The sizes of the inputs (ladders of
d and dim, counts of entries) are fixed, so that the work of one round
is nearly the same for every seed and runs with different seeds can be
compared.
"""

from __future__ import annotations

import json
import math
import random
from typing import NamedTuple


class Case(NamedTuple):
    """One document of a verify workload.  ``preset`` names the built-in
    geometry the program is given instead of the document, or is None."""

    doc: dict
    preset: str | None = None
    heaviest: bool = False
    known_fault: bool = False

# The 7 built-in geometries, written down from their classical Hodge
# numbers; the references use these, the program uses its own presets.
PRESET_DOCS = {
    "point_R": {"dim": 0, "place": "real", "weights": [
        {"w": 0, "hpq": {"0,0": 1}, "middle_split": [1, 0]}]},
    "point_C": {"dim": 0, "place": "complex", "weights": [
        {"w": 0, "hpq": {"0,0": 1}}]},
    "P1_R": {"dim": 1, "place": "real", "weights": [
        {"w": 0, "hpq": {"0,0": 1}, "middle_split": [1, 0]},
        {"w": 2, "hpq": {"1,1": 1}, "middle_split": [1, 0]}]},
    "P1_C": {"dim": 1, "place": "complex", "weights": [
        {"w": 0, "hpq": {"0,0": 1}}, {"w": 2, "hpq": {"1,1": 1}}]},
    "P2_C": {"dim": 2, "place": "complex", "weights": [
        {"w": 0, "hpq": {"0,0": 1}}, {"w": 2, "hpq": {"1,1": 1}},
        {"w": 4, "hpq": {"2,2": 1}}]},
    "elliptic_R": {"dim": 1, "place": "real", "weights": [
        {"w": 0, "hpq": {"0,0": 1}, "middle_split": [1, 0]},
        {"w": 1, "hpq": {"1,0": 1, "0,1": 1}},
        {"w": 2, "hpq": {"1,1": 1}, "middle_split": [1, 0]}]},
    "elliptic_C": {"dim": 1, "place": "complex", "weights": [
        {"w": 0, "hpq": {"0,0": 1}},
        {"w": 1, "hpq": {"1,0": 1, "0,1": 1}},
        {"w": 2, "hpq": {"1,1": 1}}]},
}
for _name, _doc in PRESET_DOCS.items():
    _doc["name"] = _name

# (d, place) of the full diamonds, over the d = 2..80 ladder; the last
# is the heaviest input of the workload.
DIAMOND_LADDER = (
    (2, "real"), (2, "complex"), (3, "real"), (3, "complex"),
    (4, "real"), (5, "complex"), (6, "real"), (8, "complex"),
    (10, "real"), (12, "complex"), (16, "real"), (20, "complex"),
    (24, "real"), (32, "complex"), (40, "real"), (56, "complex"),
    (80, "real"),
)

# Declared dims of the sparse documents, over dim = 25..400, denser at
# the cheap end so that a run holds well over 100 operations; the last
# is the heaviest input.
SPARSE_DIMS = (25, 27, 29, 31, 33, 36, 39, 42, 45, 49, 53, 57, 62, 67,
               73, 80, 90, 100, 115, 130, 150, 175, 205, 240, 290, 400)

# Cross-checks in one round of the oracle workload.
ORACLE_POINTS = 32


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"archfactor-bench/{workload}/{seed}")


def _entry(w: int, hpq: dict, place: str, rng: random.Random | None) -> dict:
    """One weight of a document; at a real place a nonzero middle Hodge
    number gets a seeded split, or all of it on h_plus without a rng."""
    entry = {"w": w, "hpq": {f"{p},{q}": h for (p, q), h in sorted(hpq.items())}}
    mid = hpq.get((w // 2, w // 2), 0) if w % 2 == 0 else 0
    if place == "real" and mid:
        h_plus = rng.randint(0, mid) if rng is not None else mid
        entry["middle_split"] = [h_plus, mid - h_plus]
    return entry


def diamond_doc(rng: random.Random, d: int, place: str,
                value: int | None = None) -> dict:
    """Full Hodge diamond: every h^{p,q} with 0 <= p, q <= d nonzero,
    seeded in 1..9 (or all equal to ``value``, split all to h_plus)."""
    weights = []
    for w in range(2 * d + 1):
        hpq = {}
        for p in range(max(0, w - d), w // 2 + 1):
            h = value if value is not None else rng.randint(1, 9)
            hpq[(p, w - p)] = hpq[(w - p, p)] = h
        weights.append(_entry(w, hpq, place, rng if value is None else None))
    return {"name": f"diamond_{place[0].upper()}{d}", "dim": d,
            "place": place, "weights": weights}


def sparse_doc(rng: random.Random, dim: int, place: str) -> dict:
    """Three nonzero Hodge pairs under a large declared dim.

    The positions are seeded inside fixed bands of the weight range
    (around w = dim/2, an even middle weight near dim, and w near
    3 dim/2, each with p near a quarter of w), which keeps the work per
    document close to the same for every seed.
    """
    jitter = max(1, dim // 40)
    hpq_by_w: dict = {}
    for frac, middle in ((0.5, False), (1.0, True), (1.5, False)):
        w = round(frac * dim) + rng.randint(-jitter, jitter)
        if middle:
            w += w % 2
            p = w // 2
        else:
            p = max(w - dim, round(w / 4) + rng.randint(-jitter, jitter))
        h = rng.randint(1, 9)
        hpq = hpq_by_w.setdefault(w, {})
        hpq[(p, w - p)] = hpq[(w - p, p)] = h
    weights = [_entry(w, hpq, place, rng) for w, hpq in sorted(hpq_by_w.items())]
    return {"name": f"sparse_{place[0].upper()}{dim}", "dim": dim,
            "place": place, "weights": weights}


def fault_diamonds() -> list:
    """The d = 3 diamonds with every h^{p,q} = 10^6, over R and C.  They
    do not depend on the seed: the verdict's absolute tolerance turns
    them into a false MISMATCH."""
    return [diamond_doc(None, 3, place, value=10 ** 6)
            for place in ("real", "complex")]


def diamonds(seed: int) -> list:
    """The cases of one round of ``diamonds``."""
    rng = _rng("diamonds", seed)
    cases = [Case(PRESET_DOCS[name], preset=name) for name in sorted(PRESET_DOCS)]
    for i, (d, place) in enumerate(DIAMOND_LADDER):
        cases.append(Case(diamond_doc(rng, d, place),
                          heaviest=i == len(DIAMOND_LADDER) - 1))
    cases += [Case(doc, known_fault=True) for doc in fault_diamonds()]
    return cases


def sparse(seed: int) -> list:
    """The cases of one round of ``sparse``."""
    rng = _rng("sparse", seed)
    return [Case(sparse_doc(rng, dim, ("real", "complex")[i % 2]),
                 heaviest=i == len(SPARSE_DIMS) - 1)
            for i, dim in enumerate(SPARSE_DIMS)]


def oracle(seed: int) -> list:
    """[(first, step, multiplicity, s, heaviest)] for one round of
    ``oracle``.  x = (s - first)/step is spread log-uniformly over
    (0.05, 60) in ORACLE_POINTS strata; the first point has the
    smallest x."""
    rng = _rng("oracle", seed)
    points = []
    lo, hi = math.log(0.05), math.log(60.0)
    for i in range(ORACLE_POINTS):
        x = math.exp(lo + (hi - lo) * (i + rng.random()) / ORACLE_POINTS)
        step = 1 + i % 2
        first = rng.randint(-12, 12)
        points.append((first, step, rng.randint(1, 4), first + step * x,
                       i == 0))
    return points


# Malformed documents that must exit 2 with a single "error:" line.
MALFORMED = {
    "missing_dim.json": json.dumps({"place": "real", "weights": []}),
    "bad_place.json": json.dumps({"dim": 1, "place": "quaternion",
                                  "weights": []}),
    "asymmetric.json": json.dumps({"dim": 1, "place": "complex", "weights": [
        {"w": 1, "hpq": {"1,0": 2, "0,1": 1}}]}),
    "not_json.json": '{"dim": 1, "place": ',
}

# Malformed documents on which the command line prints a traceback and
# exits 1 (its mismatch code) instead of exiting 2: known faults of
# hodge.from_json_dict and cli.main, counted as failed operations.
FAULTY = {
    "top_level_list.json": json.dumps([{"dim": 1}]),
    "hpq_list.json": json.dumps({"dim": 1, "place": "complex", "weights": [
        {"w": 0, "hpq": [[0, 0, 1]]}]}),
    "huge_count.json": '{"dim": 1, "place": "complex", "weights": '
                       '[{"w": 0, "hpq": {"0,0": 1e400}}]}',
}


class CliOp(NamedTuple):
    """One command line invocation.  ``argv`` names generated files by
    their bare names; ``kind`` says how the output is checked against
    ``ref``, a reference document or a (first, step, mult, s)
    progression."""

    argv: list
    kind: str
    ref: object = None
    heaviest: bool = False
    known_fault: bool = False


def cli(seed: int) -> tuple:
    """(files, ops) for one round of ``cli``: ``files`` maps the names of
    the generated input files to their text, ``ops`` lists CliOps."""
    rng = _rng("cli", seed)
    small_r = diamond_doc(rng, 2, "real")
    small_c = diamond_doc(rng, 2, "complex")
    large = diamond_doc(rng, 8, "real")
    sparse_c = sparse_doc(rng, 10, "complex")
    docs = {"small_R.json": small_r, "small_C.json": small_c,
            "large.json": large, "sparse_C.json": sparse_c}
    files = {name: json.dumps(doc) for name, doc in docs.items()}
    files.update(MALFORMED)
    files.update(FAULTY)

    first, mult = rng.randint(-6, 6), rng.randint(1, 3)
    prog2 = (first, 2, mult, round(first + 2 * (0.3 + 8 * rng.random()), 6))
    first = rng.randint(-6, 6)
    prog1 = (first, 1, 1, round(first + 0.3 + 8 * rng.random(), 6))
    s_eval = round(small_c["dim"] + 0.25 + 3.0 * rng.random(), 6)
    p = PRESET_DOCS
    ops = [
        CliOp(["verify", "preset:P1_R"], "verify_text", p["P1_R"]),
        CliOp(["verify", "preset:elliptic_C", "--json"], "verify_json",
              p["elliptic_C"]),
        CliOp(["verify", "small_R.json"], "verify_text", small_r),
        CliOp(["verify", "small_C.json", "--json"], "verify_json", small_c),
        CliOp(["verify", "large.json", "--json"], "verify_json", large,
              heaviest=True),
        CliOp(["factors", "small_R.json", "--json"], "factors", small_r),
        CliOp(["factors", "preset:P2_C", "--json"], "factors", p["P2_C"]),
        CliOp(["spectrum", "sparse_C.json", "--json"], "spectrum", sparse_c),
        CliOp(["spectrum", "preset:elliptic_R", "--json"], "spectrum",
              p["elliptic_R"]),
        CliOp(["eval", "small_C.json", "--s", repr(s_eval), "--json"], "eval",
              small_c),
    ]
    for f, step, m, s in (prog2, prog1):
        ops.append(CliOp(["regdet", "--first", str(f), "--step", str(step),
                          "--mult", str(m), "--s", repr(s), "--json"],
                         "regdet", (f, step, m, s)))
    ops += [CliOp(["verify", name], "malformed") for name in MALFORMED]
    ops += [CliOp(["verify", name], "malformed", known_fault=True)
            for name in FAULTY]
    return files, ops
