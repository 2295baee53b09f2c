"""Command line front end.

Inputs are JSON documents describing Hodge-numeric data, or the pseudo
path ``preset:NAME`` for one of the built-in geometries.  Exit codes:
0 success, 1 verification mismatch, 2 malformed input or flags, 3
internal error (any other exception, reported on one ``error:`` line).
"""

import argparse
import json
import math
import sys

from . import gamma
from .cyclic import Progression, theta_spectrum
from .deligne import deligne_dim, pole_order
from .factors import completed_alternating_product, serre_tables
from .gamma import SINGULARITY_GUARD, evaluate_log, render
from .hodge import (HodgeData, PRESET_NAMES, from_json_dict, json_object,
                    preset, to_json_dict, validate)
from .regdet import hurwitz_zeta_deriv0, regdet_progression
from .verify import verify_theorem

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

#: Most rows ``poles``, ``spectrum --depth`` or ``regdet --finite`` may take.
MAX_ROWS = 100_000


class InputError(Exception):
    pass


def load_input(spec: str) -> HodgeData:
    """Either ``preset:NAME`` or a path to a JSON document."""
    if spec.startswith("preset:"):
        try:
            return preset(spec[len("preset:"):])
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=json_object)
    except OSError as exc:
        raise InputError(f"cannot read {spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{spec}: not valid JSON: {exc}") from exc
    data = from_json_dict(doc)
    bad = validate(data)
    if bad:
        raise InputError("invalid data: " + "; ".join(bad))
    return data


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_presets(args) -> int:
    if args.emit:
        _emit(to_json_dict(load_input(f"preset:{args.emit}")))
        return EXIT_OK
    if args.json:
        _emit(list(PRESET_NAMES))
    else:
        for name in PRESET_NAMES:
            print(name)
    return EXIT_OK


def _cmd_factors(args) -> int:
    data = load_input(args.input)
    per_weight = {}
    product = gamma.GammaExpression()
    for piece in data.weights:
        per_weight[piece.w] = x = serre_tables(piece, data.place).clean()
        product.add(x, 1 if piece.w % 2 else -1)
    product.clean()
    if args.json:
        _emit({"name": data.name,
               "weights": {str(w): gamma.expression_to_json(x)
                           for w, x in per_weight.items()},
               "product": gamma.expression_to_json(product)})
    else:
        for w, x in sorted(per_weight.items()):
            print(f"w={w}: {render(x)}")
        print(f"completed alternating product: {render(product)}")
    return EXIT_OK


def _cmd_deligne(args) -> int:
    data = load_input(args.input)
    value = deligne_dim(data, args.w, args.r)
    if args.json:
        _emit({"name": data.name, "w": args.w, "r": args.r, "dim": value})
    else:
        print(value)
    return EXIT_OK


def _cmd_poles(args) -> int:
    data = load_input(args.input)
    lo, hi = args.m_from, args.m_to
    if lo > hi:
        raise InputError(f"--from {lo} exceeds --to {hi}")
    if hi - lo >= MAX_ROWS:
        raise InputError(f"--from {lo} --to {hi}: more than {MAX_ROWS} rows")
    table = {m: pole_order(data, args.w, m) for m in range(lo, hi + 1)}
    if args.json:
        _emit({"name": data.name, "w": args.w,
               "orders": {str(m): o for m, o in table.items()}})
    else:
        for m in range(hi, lo - 1, -1):
            print(f"m={m}: {table[m]}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    data = load_input(args.input)
    measure = theta_spectrum(data, args.weight)
    doc = {}
    for parity, label, tails in ((0, "even", measure.even),
                                 (1, "odd", measure.odd)):
        top = max((first for first, _, _ in tails), default=0)
        head = {str(m): measure.multiplicity(parity, m)
                for m in range(top, top - args.depth, -1)}
        doc[label] = {"head": head, "tails": [
            {"first": first, "step": step, "multiplicity": mult}
            for first, step, mult in tails]}
    if args.json:
        _emit({"name": data.name, "spectrum": doc})
        return EXIT_OK
    for label, part in doc.items():
        print(f"parity {label}:")
        for m, mult in part["head"].items():
            if mult:
                print(f"  m={m}: {mult}")
        for t in part["tails"]:
            print(f"  tail: m = {t['first']}, {t['first'] - t['step']}, ... "
                  f"multiplicity {t['multiplicity']}")
        if not part["tails"]:
            print("  tail: none")
    return EXIT_OK


def _cmd_regdet(args) -> int:
    prog = Progression(args.first, args.step, args.finite, args.mult)
    expr = regdet_progression(prog)
    doc = {"progression": {"first": args.first, "step": args.step,
                           "count": args.finite, "multiplicity": args.mult},
           "determinant": gamma.expression_to_json(expr)}
    if args.s is not None:
        log_val, sign = evaluate_log(expr, args.s, args.guard)
        doc["at_s"] = {"s": args.s, "log_abs": log_val, "sign": sign}
        if args.finite is None and (args.s - args.first) / args.step > 0:
            x = (args.s - args.first) / args.step
            oracle = args.mult * hurwitz_zeta_deriv0(x, 2.0 * math.pi / args.step)
            doc["oracle_log"] = oracle
            doc["oracle_residual"] = log_val - oracle
    if args.json:
        _emit(doc)
    else:
        print(f"determinant: {render(expr)}")
        if args.s is not None:
            print(f"value at s={args.s}: sign {doc['at_s']['sign']}, "
                  f"log|det| = {doc['at_s']['log_abs']:.12g}")
            if "oracle_log" in doc:
                print(f"series oracle: log det = {doc['oracle_log']:.12g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    data = load_input(args.input)
    report = verify_theorem(data, samples=args.samples, guard=args.guard)
    if args.json:
        _emit(report.to_json_dict())
    else:
        print(f"input: {data.name} ({data.place.value} place, dim {data.dim})")
        print(f"divisor match: {'yes' if report.divisor_match else 'no'}"
              + ("" if report.mismatch_witness is None
                 else f" (first mismatch at m={report.mismatch_witness})"))
        weights = " ".join(f"w={w}:{'yes' if match else 'no'}"
                           for w, match in report.per_weight)
        print(f"per weight: {weights if weights else '(no weights)'}")
        print(f"residue LHS/RHS: {render(report.residue)}")
        print(f"constant log(LHS/RHS): {report.constant_log:.12g} "
              f"(spread {report.constant_stddev:.3g})")
        print("verdict: " + ("ok" if report.ok() else "MISMATCH"))
    return EXIT_OK if report.ok() else EXIT_MISMATCH


def _cmd_eval(args) -> int:
    data = load_input(args.input)
    expr = completed_alternating_product(data)
    log_val, sign = evaluate_log(expr, args.s, args.guard)
    if args.json:
        _emit({"name": data.name, "s": args.s,
               "log_abs": log_val, "sign": sign})
    else:
        print(f"{render(expr)}")
        print(f"at s={args.s}: sign {sign}, log|value| = {log_val:.12g}")
    return EXIT_OK


def _checked(kind, accept, expected: str):
    """An argparse type: text that ``kind`` cannot read, or whose value
    ``accept`` refuses, is rejected with one message."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


# every float flag, and the flags that set the size of the output
_finite_float = _checked(float, math.isfinite, "a finite number")
_row_count = _checked(int, lambda n: 0 <= n <= MAX_ROWS,
                      f"an integer from 0 to {MAX_ROWS}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="archfactor",
        description="Gamma factors, pole orders and regularized "
                    "determinants for Hodge-numeric data")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list built-in geometries")
    p.add_argument("--emit", metavar="NAME",
                   help="print the JSON document of one preset")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_presets)

    p = sub.add_parser("factors", help="per-weight local factors")
    p.add_argument("input", help="JSON path or preset:NAME")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_factors)

    p = sub.add_parser("deligne", help="cohomology dimension at (w, r)")
    p.add_argument("input")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_deligne)

    p = sub.add_parser("poles", help="pole orders of one weight factor")
    p.add_argument("input")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--from", dest="m_from", type=int, required=True)
    p.add_argument("--to", dest="m_to", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_poles)

    p = sub.add_parser("spectrum", help="scaling-generator spectrum")
    p.add_argument("input")
    p.add_argument("--weight", type=int, default=None,
                   help="restrict to a single weight")
    p.add_argument("--depth", type=_row_count, default=20,
                   help="head rows to print (default 20)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("regdet",
                       help="closed form of one progression determinant")
    p.add_argument("--first", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--mult", type=int, default=1)
    p.add_argument("--finite", type=_row_count, default=None, metavar="COUNT",
                   help="finite progression with COUNT terms")
    p.add_argument("--s", type=_finite_float, default=None,
                   help="also evaluate at this point")
    p.add_argument("--guard", type=_finite_float, default=SINGULARITY_GUARD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_regdet)

    p = sub.add_parser("verify", help="full factorization check")
    p.add_argument("input")
    p.add_argument("--samples", type=_finite_float, nargs="+", default=None)
    p.add_argument("--guard", type=_finite_float, default=SINGULARITY_GUARD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate the completed product")
    p.add_argument("input")
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--guard", type=_finite_float, default=SINGULARITY_GUARD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
