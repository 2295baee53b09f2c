"""Command line front end.

Inputs are JSON documents describing Hodge-numeric data, or the pseudo
path ``preset:NAME`` for one of the built-in geometries.  Exit codes:
0 success, 1 verification mismatch, 2 bad flags or an ``InputError``
(input the package refuses), 3 internal error (any other exception, a
``ValueError`` from a bug included, reported on one ``error:`` line).

Every command has one shape: ``_cmd_NAME(args, data)`` takes the flags
and the loaded input (None for ``presets`` and ``regdet``) and returns
``(doc, lines)``, its ``--json`` document and its text lines; ``verify``
adds its exit code.  ``main`` alone loads, prints and sets the exit code.
"""

import argparse
import json
import math
import re
import sys

from . import gamma
from .cyclic import Progression, theta_spectrum
from .deligne import deligne_dim, pole_order
from .factors import completed_alternating_product, serre_tables
from .gamma import SINGULARITY_GUARD, evaluate_log, render
from .hodge import (HodgeData, InputError, PRESET_NAMES, from_json_dict,
                    json_object, preset, to_json_dict, validate)
from .regdet import hurwitz_zeta_deriv0, regdet_progression
from .verify import verify_theorem

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

#: Most rows ``poles``, ``spectrum --depth`` or ``regdet --finite`` may take.
MAX_ROWS = 100_000


def load_input(spec: str) -> HodgeData:
    """Either ``preset:NAME`` or a path to a JSON document."""
    if spec.startswith("preset:"):
        return preset(spec[len("preset:"):])
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=json_object)
    except OSError as exc:
        raise InputError(f"cannot read {spec}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 and overlong integers are ValueErrors too
        raise InputError(f"{spec}: not valid JSON: {exc}") from exc
    data = from_json_dict(doc)
    bad = validate(data)
    if bad:
        raise InputError("invalid data: " + "; ".join(bad))
    return data


def _cmd_presets(args, data):
    if args.emit:  # the document itself, with or without --json
        doc = to_json_dict(load_input(f"preset:{args.emit}"))
        return doc, [json.dumps(doc, indent=2, sort_keys=True)]
    return list(PRESET_NAMES), list(PRESET_NAMES)


def _cmd_factors(args, data):
    per_weight = {piece.w: serre_tables(piece, data.place).clean()
                  for piece in data.weights}
    product = gamma.product(x if w % 2 else gamma.GammaExpression().add(x, -1)
                            for w, x in per_weight.items())
    return ({"name": data.name,
             "weights": {str(w): gamma.expression_to_json(x)
                         for w, x in per_weight.items()},
             "product": gamma.expression_to_json(product)},
            [*(f"w={w}: {render(x)}" for w, x in sorted(per_weight.items())),
             f"completed alternating product: {render(product)}"])


def _cmd_deligne(args, data):
    value = deligne_dim(data, args.w, args.r)
    return ({"name": data.name, "w": args.w, "r": args.r, "dim": value},
            [str(value)])


def _cmd_poles(args, data):
    lo, hi = args.m_from, args.m_to
    if lo > hi:
        raise InputError(f"--from {lo} exceeds --to {hi}")
    if hi - lo >= MAX_ROWS:
        raise InputError(f"--from {lo} --to {hi}: more than {MAX_ROWS} rows")
    table = {m: pole_order(data, args.w, m) for m in range(lo, hi + 1)}
    return ({"name": data.name, "w": args.w,
             "orders": {str(m): o for m, o in table.items()}},
            [f"m={m}: {table[m]}" for m in range(hi, lo - 1, -1)])


def _cmd_spectrum(args, data):
    measure = theta_spectrum(data, args.weight)
    doc, lines = {}, []
    for label, tails in (("even", measure.even), ("odd", measure.odd)):
        lines.append(f"parity {label}:")
        starts = {}
        for first, step, mult in tails:
            starts.setdefault(first, []).append((step, mult))
        # a running sum per (step, m mod step): O(depth + #tails) in all
        sums, head = {}, {}
        top = max(starts, default=0)
        for m in range(top, top - args.depth, -1):
            for step, mult in starts.get(m, ()):
                sums[step, m % step] = sums.get((step, m % step), 0) + mult
            head[str(m)] = total = sum(
                mult for (step, r), mult in sums.items() if m % step == r)
            if total:
                lines.append(f"  m={m}: {total}")
        doc[label] = {"head": head, "tails": [
            {"first": first, "step": step, "multiplicity": mult}
            for first, step, mult in tails]}
        lines += [f"  tail: m = {first}, {first - step}, ... "
                  f"multiplicity {mult}" for first, step, mult in tails
                  ] or ["  tail: none"]
    return {"name": data.name, "spectrum": doc}, lines


def _cmd_regdet(args, data):
    prog = Progression(args.first, args.step, args.finite, args.mult)
    expr = regdet_progression(prog)
    doc = {"progression": {"first": args.first, "step": args.step,
                           "count": args.finite, "multiplicity": args.mult},
           "determinant": gamma.expression_to_json(expr)}
    lines = [f"determinant: {render(expr)}"]
    if args.s is not None:
        log_val, sign = evaluate_log(expr, args.s, args.guard)
        doc["at_s"] = {"s": args.s, "log_abs": log_val, "sign": sign}
        lines.append(f"value at s={args.s}: sign {sign}, "
                     f"log|det| = {log_val:.12g}")
        if args.finite is None and (args.s - args.first) / args.step > 0:
            x = (args.s - args.first) / args.step
            oracle = args.mult * hurwitz_zeta_deriv0(x, 2.0 * math.pi / args.step)
            doc["oracle_log"] = oracle
            doc["oracle_residual"] = log_val - oracle
            lines.append(f"series oracle: log det = {oracle:.12g}")
    return doc, lines


def _cmd_verify(args, data):
    report = verify_theorem(data, samples=args.samples, guard=args.guard)
    weights = " ".join(f"w={w}:{'yes' if match else 'no'}"
                       for w, match in report.per_weight)
    return report.to_json_dict(), [
        f"input: {data.name} ({data.place.value} place, dim {data.dim})",
        f"divisor match: {'yes' if report.divisor_match else 'no'}"
        + ("" if report.mismatch_witness is None
           else f" (first mismatch at m={report.mismatch_witness})"),
        f"per weight: {weights if weights else '(no weights)'}",
        f"residue LHS/RHS: {render(report.residue)}",
        f"constant log(LHS/RHS): {report.constant_log:.12g} "
        f"(spread {report.constant_stddev:.3g})",
        "verdict: " + ("ok" if report.ok() else "MISMATCH"),
    ], EXIT_OK if report.ok() else EXIT_MISMATCH


def _cmd_eval(args, data):
    expr = completed_alternating_product(data)
    log_val, sign = evaluate_log(expr, args.s, args.guard)
    return ({"name": data.name, "s": args.s, "log_abs": log_val, "sign": sign},
            [render(expr), f"at s={args.s}: sign {sign}, "
                           f"log|value| = {log_val:.12g}"])


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


# every float and integer flag, and the flags that set the size of the output
_finite_float = _checked(float, math.isfinite, "a finite number")
_integer = _checked(int, lambda n: abs(n) <= 2 ** 53,
                    "an integer with |n| <= 2^53")
_row_count = _checked(int, lambda n: 0 <= n <= MAX_ROWS,
                      f"an integer from 0 to {MAX_ROWS}")
# argparse's own negative-number test takes "-1e3" for an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="archfactor",
        description="Gamma factors, pole orders and regularized "
                    "determinants for Hodge-numeric data")
    sub = ap.add_subparsers(dest="command", required=True)
    # the flags several commands share, each declared once
    json_flag, input_arg, guard_flag = (
        argparse.ArgumentParser(add_help=False) for _ in range(3))
    json_flag.add_argument("--json", action="store_true")
    input_arg.add_argument("input", help="JSON path or preset:NAME")
    guard_flag.add_argument("--guard", type=_finite_float,
                            default=SINGULARITY_GUARD)

    def command(name, fn, help, *shared):
        p = sub.add_parser(name, help=help, parents=[json_flag, *shared])
        p.set_defaults(fn=fn)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        return p

    p = command("presets", _cmd_presets, "list built-in geometries")
    p.add_argument("--emit", metavar="NAME",
                   help="print the JSON document of one preset")

    command("factors", _cmd_factors, "per-weight local factors", input_arg)

    p = command("deligne", _cmd_deligne, "cohomology dimension at (w, r)",
                input_arg)
    p.add_argument("--w", type=_integer, required=True)
    p.add_argument("--r", type=_integer, required=True)

    p = command("poles", _cmd_poles, "pole orders of one weight factor",
                input_arg)
    p.add_argument("--w", type=_integer, required=True)
    p.add_argument("--from", dest="m_from", type=_integer, required=True)
    p.add_argument("--to", dest="m_to", type=_integer, required=True)

    p = command("spectrum", _cmd_spectrum, "scaling-generator spectrum",
                input_arg)
    p.add_argument("--weight", type=_integer, default=None,
                   help="restrict to a single weight")
    p.add_argument("--depth", type=_row_count, default=20,
                   help="head rows to print (default 20)")

    p = command("regdet", _cmd_regdet,
                "closed form of one progression determinant", guard_flag)
    p.add_argument("--first", type=_integer, required=True)
    p.add_argument("--step", type=_integer, default=1)
    p.add_argument("--mult", type=_integer, default=1)
    p.add_argument("--finite", type=_row_count, default=None, metavar="COUNT",
                   help="finite progression with COUNT terms")
    p.add_argument("--s", type=_finite_float, default=None,
                   help="also evaluate at this point")

    p = command("verify", _cmd_verify, "full factorization check",
                input_arg, guard_flag)
    p.add_argument("--samples", type=_finite_float, nargs="+", default=None)

    p = command("eval", _cmd_eval, "evaluate the completed product",
                input_arg, guard_flag)
    p.add_argument("--s", type=_finite_float, required=True)

    return ap


# built once per process; parse_args leaves the parser as it was
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        data = load_input(args.input) if "input" in args else None
        doc, lines, *code = args.fn(args, data)
        print(json.dumps(doc, indent=2, sort_keys=True) if args.json
              else "\n".join(lines))
        return code[0] if code else EXIT_OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
