import ast
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import archfactor.cli as cli_module
import archfactor.factors as factors_module
import archfactor.hodge as hodge_module
import archfactor.verify as verify_module
from archfactor import (InputError, OutOfRegimeError, PRESET_NAMES, Place,
                        SingularEvaluationError, SpectralMeasure,
                        completed_alternating_product, preset, theta_spectrum,
                        to_json_dict, verify_theorem)
from archfactor.cli import main
from archfactor.gamma import EvaluationRangeError, expression_to_json
from helpers import full_diamond

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    assert set(out.split()) == set(PRESET_NAMES)


def test_presets_emit_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "presets", "--emit", "elliptic_R")
    assert code == 0
    doc = json.loads(out)
    assert doc == to_json_dict(preset("elliptic_R"))
    path = tmp_path / "e.json"
    path.write_text(out)
    code, out_file, _ = run(capsys, "spectrum", str(path), "--json")
    code2, out_preset, _ = run(capsys, "spectrum", "preset:elliptic_R", "--json")
    a, b = json.loads(out_file), json.loads(out_preset)
    assert a["spectrum"] == b["spectrum"]


def test_factors_text(capsys):
    code, out, _ = run(capsys, "factors", "preset:elliptic_C")
    assert code == 0
    assert "GC(s+0)^2" in out
    assert "completed alternating product" in out


def test_factors_json(capsys):
    code, out, _ = run(capsys, "factors", "preset:point_R", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"]["0"]["gr"] == {"0": 1}
    assert doc["product"]["gr"] == {"0": -1}


def test_factors_builds_each_local_factor_once(tmp_path, monkeypatch, capsys):
    # the per-weight lines and the product share one Serre pass per weight
    data = full_diamond(Place.REAL, 1, 6)
    path = tmp_path / "d6.json"
    path.write_text(json.dumps(to_json_dict(data)))
    exact = factors_module.serre_tables
    calls = []

    def counted(piece, place, k=1):
        calls.append(piece.w)
        return exact(piece, place, k)

    monkeypatch.setattr(cli_module, "serre_tables", counted)
    monkeypatch.setattr(factors_module, "serre_tables", counted)
    code, out, err = run(capsys, "factors", str(path), "--json")
    assert code == 0 and err == ""
    assert calls == list(range(13))
    monkeypatch.undo()
    assert json.loads(out)["product"] == expression_to_json(
        completed_alternating_product(data))


def test_deligne_command(capsys):
    code, out, _ = run(capsys, "deligne", "preset:elliptic_R",
                       "--w", "1", "--r", "2")
    assert code == 0
    assert out.strip() == "1"


def test_deligne_out_of_regime_is_input_error(capsys):
    code, _, err = run(capsys, "deligne", "preset:elliptic_R",
                       "--w", "1", "--r", "1")
    assert code == 2
    assert "w+1 < 2r" in err


def test_poles_command(capsys):
    code, out, _ = run(capsys, "poles", "preset:elliptic_C",
                       "--w", "1", "--from", "-3", "--to", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == {"-3": 2, "-2": 2, "-1": 2, "0": 2, "1": 0}


def test_spectrum_text_shows_tails(capsys):
    code, out, _ = run(capsys, "spectrum", "preset:point_R")
    assert code == 0
    assert "tail" in out
    assert "multiplicity 1" in out


def _rows(top, *runs):
    """{str(m): multiplicity} for m going down from top, one run of
    (count, multiplicity) after another."""
    rows = {}
    for count, mult in runs:
        for _ in range(count):
            rows[str(top)] = mult
            top -= 1
    return rows


@pytest.mark.parametrize("name, heads, tails, constants", [
    ("elliptic_R",
     {"even": _rows(1, (20, 1)), "odd": _rows(0, (20, 1))},
     {"even": [(0, 2, 1), (1, 2, 1)], "odd": [(0, 2, 1), (-1, 2, 1)]},
     {"even": {0: 1, 1: 1}, "odd": {0: 1, 1: 1}}),
    ("P2_C",
     {"even": _rows(2, (1, 1), (1, 2), (18, 3)), "odd": _rows(0, (20, 0))},
     {"even": [(0, 1, 1), (1, 1, 1), (2, 1, 1)], "odd": []},
     {"even": {0: 3, 1: 3}, "odd": {0: 0, 1: 0}}),
])
def test_spectrum_listing_is_pinned(capsys, name, heads, tails, constants):
    # the head rows and the eventual multiplicities are those of the
    # eigenvalue-by-eigenvalue encoding; the tails list is the new one
    code, out, _ = run(capsys, "spectrum", f"preset:{name}", "--json",
                       "--depth", "20")
    assert code == 0
    doc = json.loads(out)["spectrum"]
    for label in ("even", "odd"):
        assert doc[label]["head"] == heads[label]
        listed = [(t["first"], t["step"], t["multiplicity"])
                  for t in doc[label]["tails"]]
        assert sorted(listed) == sorted(tails[label])
        # the eventual multiplicity per residue class of m mod 2
        measure, far = SpectralMeasure(listed, ()), -10 ** 6
        assert {0: measure.multiplicity(0, far),
                1: measure.multiplicity(0, far - 1)} == constants[label]


@pytest.mark.parametrize("place", list(Place))
def test_spectrum_head_is_linear_in_rows_plus_tails(tmp_path, capsys, place):
    # the d = 80 diamond with every h^{p,q} = 7 has thousands of tails; a
    # head read row by row through SpectralMeasure.multiplicity took
    # seconds at 10,000 rows
    data = full_diamond(place, 7, 80)
    path = tmp_path / "d80.json"
    path.write_text(json.dumps(to_json_dict(data)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", str(path), "--json",
                       "--depth", "10000")
    assert time.perf_counter() - start < 1.5
    assert code == 0
    doc, measure = json.loads(out)["spectrum"], theta_spectrum(data)
    for parity, label in enumerate(("even", "odd")):
        rows = list(doc[label]["head"].items())
        assert len(rows) == 10000
        # every row where tails start, then a sample of the rest
        for m, mult in rows[:200] + rows[200::97]:
            assert mult == measure.multiplicity(parity, int(m)), (label, m)


def test_regdet_command(capsys):
    code, out, _ = run(capsys, "regdet", "--first", "0", "--step", "2",
                       "--mult", "1", "--s", "1.4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["determinant"]["gr"] == {"0": -1}
    assert doc["determinant"]["pre"]["a2"] == "1/2"
    assert abs(doc["oracle_residual"]) < 1e-8


@pytest.mark.parametrize("flag, value, message", [
    ("--step", "0", "step must be >= 1, got 0"),
    ("--mult", "-1", "negative multiplicity -1"),
])
def test_regdet_bad_progression_exit_two(capsys, flag, value, message):
    code, out, err = run(capsys, "regdet", "--first", "0", flag, value)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_regdet_exact_root_with_guard_zero_exit_two(capsys):
    # guard 0 refuses only the root itself, named like any other
    code, out, err = run(capsys, "regdet", "--first", "2", "--finite", "3",
                         "--s", "2", "--guard", "0")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: linear factor root m=2 near s=2.0"]


def test_verify_ok_exit_zero(capsys):
    for name in PRESET_NAMES:
        code, out, _ = run(capsys, "verify", f"preset:{name}")
        assert code == 0, (name, out)
        assert "verdict: ok" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "preset:P2_C", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["divisor_match"] is True


def test_constant_log_is_exact_at_large_samples(capsys):
    # log LHS and log RHS are each about 1e21 at s = 1e20, so their
    # difference cancels; the residue 2^(-1) gives the constant exactly
    exact = -0.693147180560
    code, out, _ = run(capsys, "verify", "preset:P1_R", "--samples", "1e20")
    assert code == 0
    line, = (x for x in out.splitlines() if x.startswith("constant log"))
    assert abs(float(line.split()[2]) - exact) < 1e-12, line
    code, out, _ = run(capsys, "verify", "preset:P1_R", "--samples", "1e20",
                       "--json")
    assert code == 0
    assert abs(json.loads(out)["constant_log"] - exact) < 1e-12


def test_verify_bad_file_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error" in err


def test_verify_invalid_data_exit_two(tmp_path, capsys):
    doc = {"name": "bad", "dim": 1, "place": "real",
           "weights": [{"w": 2, "hpq": {"1,1": 1}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "middle_split" in err


def test_unknown_preset_exit_two(capsys):
    # one unquoted message, from every command that takes a preset name
    for argv in (["presets", "--emit", "torus"], ["factors", "preset:torus"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1, argv
        assert err.startswith("error: unknown preset 'torus'"), argv


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "preset:point_C", "--s", "2.5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sign"] in (1, -1)
    # GC(2.5)^-1 = (2 pi)^{2.5} / Gamma(2.5) > 1
    import math
    expect = 2.5 * math.log(2 * math.pi) - math.lgamma(2.5)
    assert abs(doc["log_abs"] - expect) < 1e-12


def test_eval_at_pole_is_input_error(capsys):
    code, _, err = run(capsys, "eval", "preset:point_C", "--s", "0", "--json")
    assert code == 2
    assert "error" in err


def test_bad_flags_exit_two(capsys):
    assert main(["poles", "preset:point_C", "--w"]) == 2
    capsys.readouterr()


def test_custom_samples(capsys):
    code, out, _ = run(capsys, "verify", "preset:elliptic_R",
                       "--samples", "2.25", "3.75", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [p["s"] for p in doc["samples"]] == [2.25, 3.75]


def error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


def test_sample_on_pole_exit_two(capsys):
    code, out, err = run(capsys, "verify", "preset:P1_C",
                         "--samples", "0", "2.5")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: GC(s-1) singular near s=0.0"]


@pytest.mark.parametrize("argv, s", [
    pytest.param(["verify", "preset:P1_R", "--samples", "1e308"], 1e308,
                 id="verify"),
    pytest.param(["verify", "preset:elliptic_C", "--samples", "2.5", "3e305",
                  "--json"], 3e305, id="verify_second_sample"),
    pytest.param(["eval", "preset:P1_R", "--s", "1e308"], 1e308, id="eval"),
    # each lgamma is finite here, their sum is not
    pytest.param(["eval", "preset:P1_R", "--s", "3e305"], 3e305,
                 id="eval_sum"),
    pytest.param(["regdet", "--first", "0", "--step", "1", "--s", "1e308",
                  "--json"], 1e308, id="regdet"),
])
def test_huge_finite_point_exit_two(capsys, argv, s):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: log|value| overflows a float at s={s}"]


def test_negative_depth_exit_two(capsys):
    code, out, err = run(capsys, "spectrum", "preset:P1_R", "--depth", "-5")
    assert code == 2 and out == ""
    [line] = error_lines(err)
    assert "--depth" in line


@pytest.mark.parametrize("argv, flag", [
    (["poles", "preset:P1_C", "--w", "0",
      "--from", "-1000000000", "--to", "0"], "--from"),
    (["regdet", "--first", "0", "--finite", "100000000", "--s", "0.5"],
     "--finite"),
], ids=["poles_range", "regdet_finite"])
def test_output_size_is_capped(capsys, argv, flag):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    [line] = error_lines(err)
    assert flag in line and str(cli_module.MAX_ROWS) in line


def test_sign_bug_exits_three(monkeypatch, capsys):
    # an allowed constant is positive: differing signs at a sample are a
    # bug of the float evaluation, neither a mismatch nor bad input
    exact = verify_module.evaluate_log
    calls = []

    def rhs_sign_flipped(x, s, guard):
        calls.append(s)
        log_abs, sign = exact(x, s, guard)
        # verify evaluates the LHS, then the RHS, at each sample
        return log_abs, (-sign if len(calls) % 2 == 0 else sign)

    monkeypatch.setattr(verify_module, "evaluate_log", rhs_sign_flipped)
    with pytest.raises(Exception) as info:
        verify_theorem(preset("P1_R"))
    assert not isinstance(info.value, ValueError)
    assert f"s={calls[0]}" in str(info.value)
    calls.clear()
    code, out, err = run(capsys, "verify", "preset:P1_R")
    assert code == 3 and out == ""
    [line] = error_lines(err)
    assert line.startswith("error: internal error: RuntimeError: ")
    assert f"s={calls[0]}" in line


def test_internal_error_exits_three(monkeypatch, capsys):
    # a KeyError or ValueError from a bug is not bad input either
    for exc, line in ((RuntimeError("boom"), "RuntimeError: boom"),
                      (KeyError("boom"), "KeyError: 'boom'"),
                      (ValueError("boom"), "ValueError: boom")):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "verify_theorem", broken)
        code, out, err = run(capsys, "verify", "preset:P1_R")
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: internal error: {line}"]


def test_every_refusal_is_an_input_error():
    # exit 2 means InputError alone, so a deliberate refusal raised as a
    # plain ValueError or KeyError would be reported as a bug
    for path in sorted((SRC / "archfactor").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                assert not (isinstance(exc, ast.Name) and exc.id in
                            ("ValueError", "KeyError")), \
                    f"{path.name}:{node.lineno}"
    for error in (OutOfRegimeError, SingularEvaluationError,
                  EvaluationRangeError):
        assert issubclass(error, InputError)


def test_json_prefactor_keeps_four_keys(capsys):
    # the JSON form of 2^a2 keeps the zero coefficients of 2^s, pi and pi^s
    code, out, _ = run(capsys, "factors", "preset:P1_R", "--json")
    assert code == 0
    doc = json.loads(out)
    pres = [x["pre"] for x in (*doc["weights"].values(), doc["product"])]
    code, out, _ = run(capsys, "regdet", "--first", "0", "--step", "2",
                       "--s", "1.4", "--json")
    assert code == 0
    pres.append(json.loads(out)["determinant"]["pre"])
    assert pres[-1]["a2"] == "1/2"
    for pre in pres:
        assert sorted(pre) == ["a2", "api", "b2", "bpi"]
        assert pre["b2"] == pre["api"] == pre["bpi"] == "0"


# the rejected value comes last, after its flag
@pytest.mark.parametrize("argv", [
    ["verify", "preset:P1_C", "--samples", "inf"],
    ["verify", "preset:P1_C", "--samples", "nan"],
    ["verify", "preset:P1_C", "--guard", "nan"],
    ["eval", "preset:P1_C", "--s", "inf"],
    ["eval", "preset:P1_C", "--s", "nan"],
    ["eval", "preset:P1_C", "--s", "2.5", "--guard", "inf"],
    ["regdet", "--first", "0", "--s", "inf"],
    ["regdet", "--first", "0", "--s", "2.5", "--guard", "inf"],
], ids=lambda argv: " ".join((argv[0], *argv[-2:])))
def test_non_finite_float_flag_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    command, flag, value = argv[0], argv[-2], argv[-1]
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        f"archfactor {command}: error: argument {flag}: "
        f"expected a finite number, got {value!r}"]


# every integer flag, with valid values for the others, its own value last
INTEGER_FLAGS = {
    "--w": ["deligne", "preset:P1_R", "--r", "1", "--w"],
    "--r": ["deligne", "preset:P1_R", "--w", "2", "--r"],
    "--from": ["poles", "preset:P1_R", "--w", "2", "--to", "0", "--from"],
    "--to": ["poles", "preset:P1_R", "--w", "2", "--from", "0", "--to"],
    "--weight": ["spectrum", "preset:P1_R", "--weight"],
    "--first": ["regdet", "--s", "1", "--first"],
    "--step": ["regdet", "--first", "0", "--s", "1", "--step"],
    "--mult": ["regdet", "--first", "0", "--s", "1", "--mult"],
}


def assert_flag_refused(code, out, err, command, flag, value, expected):
    assert code == 2 and out == ""
    assert error_lines(err) == [
        f"archfactor {command}: error: argument {flag}: "
        f"expected {expected}, got {value!r}"]


@pytest.mark.parametrize("flag", INTEGER_FLAGS)
def test_integer_flag_is_bounded_by_two_to_the_53(capsys, flag):
    # a 401-digit --first or --mult exited 3 with float()'s OverflowError
    argv = INTEGER_FLAGS[flag]
    for value in (str(2 ** 53 + 1), str(-2 ** 53 - 1), str(10 ** 400)):
        code, out, err = run(capsys, *argv, value)
        assert_flag_refused(code, out, err, argv[0], flag, value,
                            "an integer with |n| <= 2^53")


def test_integer_flag_at_two_to_the_53_is_accepted(capsys):
    code, out, err = run(capsys, "deligne", "preset:P1_R", "--w", "2",
                         "--r", str(2 ** 53))
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("argv, expected", [
    (["spectrum", "preset:P1_R", "--depth"],
     f"an integer from 0 to {cli_module.MAX_ROWS}"),
    (["eval", "preset:P1_C", "--s"], "a finite number"),
], ids=["depth", "s"])
def test_unparsable_flag_exit_two(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "abc")
    assert_flag_refused(code, out, err, argv[0], argv[-1], "abc", expected)
    assert argv[-1] in err.splitlines()[-1]


@pytest.mark.parametrize("argv, exponent, plain", [
    (["eval", "preset:P1_C", "--s", "X", "--json"], "-2.5e0", "-2.5"),
    (["verify", "preset:P1_R", "--samples", "X", "2.5", "--json"],
     "-1.55e1", "-15.5"),
    (["regdet", "--first", "0", "--s", "X"], "-2.5e0", "-2.5"),
], ids=["eval", "verify", "regdet"])
def test_negative_exponent_notation_is_a_number(capsys, argv, exponent,
                                                plain):
    # argparse's own test would read "-2.5e0" as an option and exit 2
    # with "expected one argument"
    given = run(capsys, *(exponent if a == "X" else a for a in argv))
    assert given == run(capsys, *(plain if a == "X" else a for a in argv))
    assert given[0] == 0 and given[1]


def test_duplicate_weight_exit_two(tmp_path, capsys):
    piece = {"w": 1, "hpq": {"1,0": 1, "0,1": 1}}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(
        {"dim": 1, "place": "complex", "weights": [piece, piece]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: invalid data: weights[w=1]: duplicate weight"]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("build_parser called again")

    monkeypatch.setattr(cli_module, "build_parser", rebuilt)
    assert run(capsys, "presets")[0] == 0
    assert run(capsys, "verify", "preset:P1_R")[0] == 0
    assert run(capsys, "regdet", "--first", "0", "--step", "0")[0] == 2
    assert run(capsys, "eval", "preset:P1_C", "--s", "0")[0] == 2
    assert run(capsys, "poles", "preset:point_C", "--w")[0] == 2
    assert run(capsys, "spectrum", "preset:P1_R", "--json")[0] == 0


@pytest.mark.parametrize("doc", [
    {"dim": 2 ** 53, "place": "complex",
     "weights": [{"w": 10 ** 6, "hpq": {}}]},
    {"dim": 2 ** 53, "place": "complex",
     "weights": [{"w": 2 ** 53, "hpq": {}}]},
    {"dim": 2 ** 53, "place": "complex",
     "weights": [{"w": 2 ** 53, "hpq": {f"{2 ** 52},{2 ** 52}": 1}}]},
    {"dim": 2 ** 53, "place": "real",
     "weights": [{"w": 2 ** 53 - 2, "hpq": {f"{2 ** 52 - 1},{2 ** 52 - 1}": 3},
                  "middle_split": [1, 2]}]},
], ids=["empty_far", "empty_at_limit", "hpp_at_limit", "split_at_limit"])
def test_far_weight_verifies_quickly(tmp_path, capsys, doc):
    # the spectrum of a weight is O(#h^{p,q}) tails, whatever w is
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 0 and err == ""
    assert "verdict: ok" in out


@pytest.mark.parametrize("text, message", [
    pytest.param('[{"dim": 1}]', "document: expected object, got list",
                 id="top_level_list"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": [[0, 0, 1]]}]}',
                 "weights[0].hpq: expected object, got list", id="hpq_list"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1e400}}]}',
                 'weights[0].hpq["0,0"]: expected integer, got inf',
                 id="infinite_count"),
    pytest.param('{"dim": 1.9, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1}}]}',
                 "dim: expected integer, got 1.9", id="float_dim"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": true}}]}',
                 'weights[0].hpq["0,0"]: expected integer, got True',
                 id="bool_count"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1' + "0" * 400 + '}}]}',
                 'weights[0].hpq["0,0"]: integer out of range (|n| > 2^53)',
                 id="huge_count"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"a,b": 1}}]}',
                 'weights[0].hpq["a,b"]: expected a key "p,q"', id="bad_key"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,\\u00e9": 1}}]}',
                 'weights[0].hpq["0,\\u00e9"]: expected a key "p,q"',
                 id="non_ascii_key"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0,0": 1}}]}',
                 'weights[0].hpq["0,0,0"]: expected a key "p,q"',
                 id="three_part_key"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": "1"}}]}',
                 "weights[0].hpq[\"0,0\"]: expected integer, got '1'",
                 id="string_count"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": [1]}}]}',
                 'weights[0].hpq["0,0"]: expected integer, got list',
                 id="list_count"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": null}}]}',
                 'weights[0].hpq["0,0"]: expected integer, got None',
                 id="null_count"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": -9007199254740993}}]}',
                 'weights[0].hpq["0,0"]: integer out of range (|n| > 2^53)',
                 id="negative_huge_count"),
    pytest.param('{"dim": 0, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1, " 0,0": 5}}]}',
                 'weights[0].hpq[" 0,0"]: names the same (p, q) = (0, 0) '
                 'as an earlier key', id="duplicate_key_space"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1}}, {"w": 1, "hpq": '
                 '{"1,0": 1, "0,1": 1, "0,+1": 2}}]}',
                 'weights[1].hpq["0,+1"]: names the same (p, q) = (0, 1) '
                 'as an earlier key', id="duplicate_key_sign"),
    # json keeps the last of two literally equal keys: name the object
    pytest.param('{"dim": 1, "place": "complex", "dim": 0, "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1}}]}',
                 'document: repeats the key "dim"', id="repeat_top_level"),
    pytest.param('{"dim": 1, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1}}, {"w": 2, "hpq": '
                 '{"1,1": 1}, "w": 1}]}',
                 'weights[1]: repeats the key "w"', id="repeat_in_weight"),
    pytest.param('{"dim": 0, "place": "complex", "weights": '
                 '[{"w": 0, "hpq": {"0,0": 1, "0,0": 5}}]}',
                 'weights[0].hpq: repeats the key "0,0"', id="repeat_in_hpq"),
    # a misspelled key is not dropped
    pytest.param('{"dim": 1, "place": "real", "weigths": [], "weights": '
                 '[{"w": 1, "hpq": {"1,0": 2, "0,1": 2}}]}',
                 'document: unknown key "weigths"', id="unknown_top_level"),
    pytest.param('{"dim": 1, "place": "real", "weights": [{"w": 1, "hpq": '
                 '{"1,0": 2, "0,1": 2}}, {"w": 2, "hpq": {"1,1": 1}, '
                 '"midle_split": [1, 0]}]}',
                 'weights[1]: unknown key "midle_split"',
                 id="unknown_in_weight"),
])
def test_verify_malformed_document_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("content", [
    b"[" * 100_000 + b"]" * 100_000,
    '{"dim": 1, "name": "caf\u00e9"}'.encode("latin-1"),
    b'{"dim": ' + b"7" * 5000 + b"}",
], ids=["deep_nesting", "latin_1", "long_integer"])
def test_undecodable_file_exit_two_naming_it(tmp_path, capsys, content):
    # a RecursionError read as exit 3; the other two named no file
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: {path}: not valid JSON: ")


def test_valid_entries_are_checked_once_per_piece(tmp_path, monkeypatch,
                                                  capsys):
    # validate runs twice per verify; it reads the entry faults each
    # constructor recorded and never loops over a piece's entries itself
    validate = hodge_module.validate
    validations, entry_loops = [], []

    class Entries(dict):
        def items(self):
            if sys._getframe(1).f_code is validate.__code__:
                entry_loops.append(self)
            return super().items()

    def counted_validate(data):
        validations.append(data)
        return validate(data)

    exact_load = cli_module.from_json_dict

    def load(doc):
        data = exact_load(doc)
        for piece in data.weights:
            piece.hpq = Entries(piece.hpq)
        return data

    monkeypatch.setattr(cli_module, "from_json_dict", load)
    monkeypatch.setattr(cli_module, "validate", counted_validate)
    monkeypatch.setattr(verify_module, "validate", counted_validate)
    data = full_diamond(Place.REAL, 7, 12)
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(to_json_dict(data)))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == "" and "verdict: ok" in out
    assert len(validations) == 2
    assert entry_loops == []


def _json_spots(doc, path=()):
    """(path, value) of every value below the top of a JSON document."""
    if path:
        yield path, doc
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_spots(value, path + (key,))


def _mutate(rng, doc) -> None:
    """One seeded damage in place: drop a key or entry, swap a value's
    type, negate or over-size an integer, or nest a value in a list."""
    path, value = rng.choice(list(_json_spots(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.choice(["drop", "swap", "negate", "oversize", "nest"])
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = rng.choice(["x", "0,0", 1.5, True, None, [], {}, -1, 0])
    elif kind == "negate" and type(value) is int:
        parent[key] = -value
    elif kind == "oversize" and type(value) is int:
        parent[key] = rng.choice([2 ** 53, 2 ** 53 + 1, 10 ** 30,
                                  value * 10 ** 6, value + 1000])
    else:
        parent[key] = [value]


def test_fuzzed_presets_exit_cleanly(tmp_path, capsys):
    rng = random.Random(805)
    path = tmp_path / "doc.json"
    codes = set()
    for _ in range(300):
        doc = to_json_dict(preset(rng.choice(PRESET_NAMES)))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, doc)
        text = json.dumps(doc)
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path))
        assert code in (0, 1, 2), (text, err)
        assert len(error_lines(err)) <= 1, (text, err)
        codes.add(code)
    assert {0, 2} <= codes  # both valid and refused documents occur


def test_import_pulls_in_no_dataclasses_or_typing():
    # the start-up of every command pays for what the package imports;
    # -S keeps site's own imports out of sys.modules
    code = ("import archfactor.cli, sys; print(' '.join(sorted("
            "{'dataclasses', 'decimal', 'fractions', 'inspect', 'statistics',"
            " 'typing'}"
            " & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_module_run_prints_what_main_prints(capsys):
    # main is the one writer, and python -m archfactor.cli is how users
    # run it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for flags in ([], ["--json"]):
        argv = ["verify", "preset:P1_R", *flags]
        code, out, _ = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "archfactor.cli", *argv],
                              env=env, capture_output=True, check=False)
        assert (proc.returncode, proc.stdout) == (code, out.encode()), argv
