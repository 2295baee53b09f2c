import json
import time

import pytest

import archfactor.cli as cli_module
import archfactor.verify as verify_module
from archfactor import PRESET_NAMES, preset, to_json_dict, verify_theorem
from archfactor.cli import main


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


def test_regdet_command(capsys):
    code, out, _ = run(capsys, "regdet", "--first", "0", "--step", "2",
                       "--mult", "1", "--s", "1.4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["determinant"]["gr"] == {"0": -1}
    assert doc["determinant"]["pre"]["a2"] == "1/2"
    assert abs(doc["oracle_residual"]) < 1e-8


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
    code, _, err = run(capsys, "factors", "preset:torus")
    assert code == 2
    assert "unknown preset" in err


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
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "verify_theorem", broken)
    code, out, err = run(capsys, "verify", "preset:P1_R")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: internal error: RuntimeError: boom"]


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
])
def test_verify_malformed_document_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]
