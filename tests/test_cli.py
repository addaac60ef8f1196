"""CLI behaviour: statuses, exit codes, report schema, exact output."""

import json
import re
import time
from importlib import resources

import pytest

from qeskit.cli import main
from qeskit.dsl import MAX_DEGREE, MAX_EXPONENT, MAX_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def _schema():
    with resources.files("qeskit").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def _validate(rep):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(rep, _schema())


def _assert_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into report: {obj!r}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            _assert_no_floats(v)


def test_check_true_example(capsys):
    code, rep = run_json(capsys, "check", "--space", "V1(2,3,a)",
                         "--op", "Jp(2,3,a)")
    assert code == 0
    assert rep["status"] is True and rep["exit_code"] == 0
    _validate(rep)
    _assert_no_floats(rep)


def test_check_false_example(capsys):
    code, rep = run_json(capsys, "check", "--space", "V1(1,1,a)", "--op", "d")
    assert code == 1
    assert rep["status"] is False
    assert rep["witnesses"][0]["output_exponent"] == "a - 1"
    _validate(rep)
    _assert_no_floats(rep)


def test_fit_example(capsys):
    code, rep = run_json(
        capsys, "fit", "--space", "V1(1,1,a)",
        "--op", "comm(Jp(1,1,a),Jm(1,1,a))",
        "--in", "J0(1,1,a)", "--maxdeg", "3",
    )
    assert code == 0
    coeffs = rep["data"]["fit"]["coeffs"]
    assert len(coeffs) == 4
    assert rep["data"]["fit"]["canonical"] is True
    _validate(rep)
    _assert_no_floats(rep)


def test_parse_error_exit_code(capsys):
    code, rep = run_json(capsys, "check", "--space", "V1(1,1,a)",
                         "--op", "d + * x")
    assert code == 2
    assert rep["exit_code"] == 2
    assert "position" in rep["error"]
    _validate(rep)


def test_usage_error_exit_code(capsys):
    assert main(["check", "--space", "V1(1,1,a)"]) == 2  # missing --op


def test_comm_subcommand(capsys):
    code, rep = run_json(capsys, "comm", "--op1", "d", "--op2", "x")
    assert code == 0
    assert rep["normal_forms"]["commutator"] == "1"
    code, rep = run_json(capsys, "comm", "--op1", "J0(1,1,a)",
                         "--op2", "Jp(1,1,a)", "--space", "V1(1,1,a)")
    assert code == 0
    assert rep["verdicts"]["commutator_invariant"] is True


def test_closure_subcommand(capsys):
    code, rep = run_json(
        capsys, "closure", "--space", "V1(2)",
        "--gens", "jp(2),j0(2),jm()",
    )
    assert code == 0
    assert rep["verdicts"]["closes"] is True
    _validate(rep)
    _assert_no_floats(rep)
    code, rep = run_json(
        capsys, "closure", "--space", "V1(1,1,a)",
        "--gens", "Jp(1,1,a),Jm(1,1,a)",
    )
    assert code == 1
    assert rep["verdicts"]["closes"] is False


def test_closure_quad(capsys):
    code, rep = run_json(
        capsys, "closure", "--space", "SqrtP2(2, 1/2)",
        "--gens", "f*d, f*(x*d - 2), (1-x)*(1-1/2*x)*d - x",
    )
    assert code == 0
    assert rep["verdicts"]["jacobi_ok"] is True
    assert "split" in rep["verdicts"]["classification"]
    _validate(rep)
    _assert_no_floats(rep)


def test_search_subcommand(capsys):
    code, rep = run_json(capsys, "search", "--space", "V1(2,2,a)",
                         "--max-order", "2", "--deg=-1:1")
    assert code == 0
    assert rep["data"]["dimension"] == 5
    _validate(rep)


def test_lame_subcommand(capsys):
    code, rep = run_json(capsys, "lame", "--n", "1", "--k2", "1/2",
                         "--spectrum")
    assert code == 0
    assert rep["verdicts"]["module_invariant"] is True
    assert rep["verdicts"]["plain_truncation_invariant"] is False
    assert rep["verdicts"]["all_roots_real_distinct"] is True
    assert rep["data"]["spectrum"]["degree"] == 2
    _validate(rep)
    _assert_no_floats(rep)


def test_catalog_subcommand(capsys):
    code, rep = run_json(capsys, "catalog", "--space", "V1(1,1,a)")
    assert code == 0
    names = [g["name"] for g in rep["data"]["generators"]]
    assert {"jp", "j0", "jm", "Jp", "J0", "Jm", "K", "Kprime", "Q_0",
            "Qbar_0"} <= set(names)
    _validate(rep)
    code, rep = run_json(capsys, "catalog", "--space", "V1(0,3,2)")
    names = [g["name"] for g in rep["data"]["generators"]]
    assert "Wp" in names and "Wm" in names
    code, rep = run_json(capsys, "catalog", "--space", "SqrtP2(2, lam)")
    assert code == 0
    assert len(rep["data"]["family"]) == 3
    assert rep["data"]["discrepancies"]


def test_catalog_lame_emits_pullback_module(capsys):
    code, rep = run_json(capsys, "catalog", "--space", "Lame(2, 1/2)")
    assert code == 0
    assert rep["verdicts"]["module_invariant"] is True
    assert rep["data"]["module_basis"] == ["1", "x^2", "(1-f)"]
    code, rep = run_json(capsys, "catalog", "--space", "Lame(1, k2)")
    assert code == 0
    assert rep["data"]["module_basis"] == ["x", "(1-f)*x^-1"]


def test_format_flag_position_and_quad_comm(capsys):
    code, rep = run_json(capsys, "comm", "--op1", "f*d", "--op2", "x",
                         "--space", "SqrtP2(2, lam)")
    assert code == 1  # [f d, x] = f, which maps x^n out of the f-ladder
    assert rep["normal_forms"]["commutator"]
    # --format accepted after the subcommand as well
    code = main(["check", "--space", "V1(0,0,a)", "--op", "J0(0,0,a)",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert json.loads(out)["status"] is True


def test_out_file_and_env_format(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    monkeypatch.setenv("QES_FORMAT", "json")
    code = main(["--out", str(target), "check", "--space", "V1(1,1,a)",
                 "--op", "J0(1,1,a)"])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text())
    assert rep["status"] is True
    _validate(rep)


def test_no_float_literals_in_json_text(capsys):
    code, out = run(capsys, "--format", "json", "lame", "--n", "2",
                    "--k2", "3/4", "--spectrum")
    # a float literal would print with a decimal point or exponent
    assert not re.search(r"-?\d+\.\d", out)
    assert not re.search(r"\d[eE][+-]\d", out)


def test_text_format_renders(capsys):
    code, out = run(capsys, "check", "--space", "V1(2,3,a)",
                    "--op", "Jp(2,3,a)")
    assert code == 0
    assert "status: True" in out
    assert "invariant: True" in out


def test_closure_error_strings_for_non_preserving_generator(capsys):
    code, rep = run_json(capsys, "closure", "--space", "V1(2)",
                         "--gens", "jp(2),x^3")
    assert code == 2
    assert rep["error"] == "a generator does not preserve the space"
    _validate(rep)
    code, rep = run_json(capsys, "closure", "--space", "SqrtP2(2, 1/2)",
                         "--gens", "x,d")
    assert code == 2
    assert rep["error"] == "generator does not preserve the space"
    _validate(rep)


def test_unexpected_failure_is_a_usage_error(capsys):
    # deep nesting exhausts the recursive parser: still exit 2, a valid
    # report with the error set, and no traceback
    deep = "(" * 3000 + "x" + ")" * 3000
    code = main(["--format", "json", "check", "--space", "V1(2)", "--op", deep])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 2 and rep["exit_code"] == 2
    assert rep["status"] is False and rep["error"]
    assert "Traceback" not in captured.err
    _validate(rep)


def test_exponent_cap_is_a_usage_error(capsys):
    start = time.monotonic()
    code, rep = run_json(capsys, "check", "--space", "V1(2)", "--op", "x^100000")
    assert time.monotonic() - start < 1.0
    assert code == 2 and rep["exit_code"] == 2
    assert f"cap of {MAX_EXPONENT}" in rep["error"]
    _validate(rep)
    code, rep = run_json(capsys, "check", "--space", "V1(2)",
                         "--op", f"d^-{MAX_EXPONENT + 1}")
    assert code == 2 and f"cap of {MAX_EXPONENT}" in rep["error"]
    code, _ = run_json(capsys, "check", "--space", "V1(2)",
                       "--op", f"x^{MAX_EXPONENT}")
    assert code == 1


def test_intermediate_size_cap_is_a_usage_error(capsys):
    # ((x+d)^8)^8 is (x+d)^64: every exponent is under MAX_EXPONENT, but
    # the predicted order of the outer power is over MAX_ORDER
    start = time.monotonic()
    code, rep = run_json(capsys, "check", "--space", "V1(2)",
                         "--op", "((x+d)^8)^8")
    assert time.monotonic() - start < 1.0
    assert code == 2 and rep["exit_code"] == 2
    assert rep["error"] == f"operator order 64 exceeds the cap of {MAX_ORDER}"
    _validate(rep)
    code, rep = run_json(capsys, "check", "--space", "V1(2)",
                         "--op", "comm(x^20*d, x^20)")
    assert code == 2
    assert rep["error"] == f"x-degree 40 exceeds the cap of {MAX_DEGREE}"
    code, rep = run_json(capsys, "check", "--space", "V1(2)",
                         "--op", "x^-16 * x^-17")
    assert code == 2 and f"cap of {MAX_DEGREE}" in rep["error"]
    # at the caps: order 32 and x-degree 32
    code, rep = run_json(capsys, "check", "--space", "V1(2)",
                         "--op", "(x+d)^32")
    assert code == 1 and rep["error"] is None
