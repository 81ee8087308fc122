"""Command line: dispatch, report shape, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from ktangent.cli import (main, BUILTIN_INSTANCES, make_report, render_json,
                          _parse_sheaf)
from ktangent.parser import load_instance
from ktangent.errors import Unsupported


def run_json(tmp_path, argv, name="r.json"):
    path = tmp_path / name
    code = main(argv + ["--json", str(path), "--quiet"])
    return code, json.loads(path.read_text())


# -- built-ins and shared plumbing --------------------------------------------

def test_builtin_instances_parse():
    for name, text in BUILTIN_INSTANCES.items():
        cfg = load_instance(text)
        assert cfg.cover is not None, name


def test_parse_sheaf():
    assert _parse_sheaf("omega0").r == 0
    assert _parse_sheaf("omega2").r == 2
    assert _parse_sheaf("O(3)").twist == 3
    assert _parse_sheaf("O(-4)").twist == -4
    with pytest.raises(Unsupported):
        _parse_sheaf("bogus")


def test_report_shape():
    rep = make_report("demo", {"p": 1}, [{"name": "a", "status": "pass"}])
    assert set(rep) == {"command", "config", "checks", "runtime_ms"}
    assert rep["runtime_ms"] == 0
    check = rep["checks"][0]
    for key in ("name", "status", "witnesses", "dims", "matrix"):
        assert key in check
    json.loads(render_json(rep))


# -- commands ------------------------------------------------------------------

def test_verify_codifferential(tmp_path):
    code, rep = run_json(tmp_path, ["verify", "lemma2.6", "--p", "3", "--seed", "7"])
    assert code == 0
    assert rep["command"] == "verify lemma2.6"
    (check,) = rep["checks"]
    assert check["status"] == "pass"
    assert check["count"] >= 50


def test_verify_alpha_delta(tmp_path):
    code, rep = run_json(tmp_path, ["verify", "alpha-delta", "--p", "2"])
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_splitting(tmp_path):
    code, rep = run_json(tmp_path, ["verify", "lemma2.4", "--instance", "p1"])
    assert code == 0
    (check,) = rep["checks"]
    assert check["stabilized"] is True


def test_cech_example(tmp_path):
    code, rep = run_json(
        tmp_path, ["cech", "--instance", "p2", "--sheaf", "omega1", "--D", "4"])
    assert code == 0
    (check,) = rep["checks"]
    assert check["dims"] == [0, 1, 0]
    assert check["stabilized"] is True


def test_cech_twist(tmp_path):
    code, rep = run_json(
        tmp_path, ["cech", "--instance", "p1", "--sheaf", "O(3)", "--D", "3"])
    assert code == 0
    assert rep["checks"][0]["dims"] == [4, 0]


def test_hypercoh(tmp_path):
    code, rep = run_json(tmp_path, ["hypercoh", "--instance", "p1", "--p", "1"])
    assert code == 0
    assert rep["checks"][0]["dims"] == {"1": 1, "2": 0}


def test_tangent_chow(tmp_path):
    code, rep = run_json(tmp_path, ["tangent-chow", "--instance", "elliptic"])
    assert code == 0
    assert rep["checks"][0]["dim"] == 1


def test_delta_r_vacuous_on_the_line(tmp_path):
    code, rep = run_json(tmp_path, ["delta-r", "--instance", "p1"])
    assert code == 0
    assert rep["checks"][0]["verdict"] == "vacuous"


def test_composed_example(tmp_path):
    code, rep = run_json(tmp_path, ["composed", "--instance", "elliptic", "--p", "1"])
    assert code == 0
    (check,) = rep["checks"]
    assert check["verdict"] == "injective"
    assert check["kernel_dim"] == 0
    assert check["matrix"] == [["1"]]


def test_relations(tmp_path):
    code, rep = run_json(tmp_path, ["relations", "--seed", "5"])
    assert code == 0
    assert rep["checks"][0]["count"] >= 100


# -- exit codes ----------------------------------------------------------------

def test_missing_instance_file_is_usage_error(capsys):
    assert main(["cech", "--instance", "nosuch.inst", "--quiet"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_sheaf_is_usage_error(capsys):
    assert main(["cech", "--instance", "p1", "--sheaf", "bogus", "--quiet"]) == 2


def test_unstabilized_window_fails(tmp_path):
    code, rep = run_json(
        tmp_path,
        ["cech", "--instance", "p1", "--sheaf", "O(-5)", "--D", "2", "--delta", "2"])
    assert code == 1
    assert rep["checks"][0]["status"] == "fail"
    assert rep["checks"][0]["witnesses"]


def test_transcendental_refusal_is_structured(tmp_path):
    inst = tmp_path / "qs.inst"
    inst.write_text(
        "[tower]\ngen s = transcendental\n\n[cover]\nkind = projective-plane\n")
    code, rep = run_json(tmp_path, ["composed", "--instance", str(inst), "--p", "1"])
    assert code == 1
    (check,) = rep["checks"]
    assert check["status"] == "error"
    assert "NotNumberField" in check["witnesses"][0]
    assert "ds" in check["witnesses"][0]


_POLICY_D0 = "[cover]\nkind = projective-line\n\n[policy]\nD = 0\n"
_CHECKS_P0 = "[cover]\nkind = projective-line\n\n[checks]\np = 0\n"
_CHECKS_OMEGA_NEG = "[cover]\nkind = projective-line\n\n[checks]\nsheaf = omega-1\n"


@pytest.mark.parametrize("argv, instance", [
    pytest.param(["cech", "--D", "0"], None, id="cech-D0"),
    pytest.param(["cech", "--delta", "0"], None, id="cech-delta0"),
    pytest.param(["cech"], _POLICY_D0, id="cech-file-D0"),
    pytest.param(["hypercoh", "--instance", "p2", "--p", "0"], None, id="hypercoh-p0"),
    pytest.param(["verify", "lemma2.6", "--p", "0"], None, id="lemma2.6-p0"),
    pytest.param(["verify", "lemma2.6", "--p", "-2"], None, id="lemma2.6-p-2"),
    pytest.param(["tangent-chow", "--p", "0"], None, id="tangent-chow-p0"),
    pytest.param(["delta-r", "--p", "0"], None, id="delta-r-p0"),
    pytest.param(["composed", "--p", "0"], None, id="composed-p0"),
    pytest.param(["verify", "lemma2.4"], _CHECKS_P0, id="lemma2.4-file-p0"),
    pytest.param(["cech", "--instance", "p1", "--sheaf", "omega-1"], None,
                 id="cech-omega-1"),
    pytest.param(["cech"], _CHECKS_OMEGA_NEG, id="cech-file-omega-1"),
    pytest.param(["relations", "--p", "5"], None, id="relations-p5"),
])
def test_bad_window_or_weight_is_usage_error(tmp_path, capsys, argv, instance):
    if instance is not None:
        inst = tmp_path / "bad.inst"
        inst.write_text(instance)
        argv = argv + ["--instance", str(inst)]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_forms_above_the_dimension_are_zero(tmp_path):
    code, rep = run_json(tmp_path, ["cech", "--instance", "p1", "--sheaf", "omega3"])
    assert code == 0
    assert rep["checks"][0]["dims"] == [0, 0]


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


# -- instance files through the command line ------------------------------------

def test_instance_file_roundtrip(tmp_path):
    inst = tmp_path / "line.inst"
    inst.write_text("""
[cover]
kind = projective-line

[policy]
D = 3
delta = 1

[checks]
p = 1
sheaf = O(2)
""")
    code, rep = run_json(tmp_path, ["cech", "--instance", str(inst)])
    assert code == 0
    assert rep["config"]["policy"] == {"D": 3, "delta": 1}
    assert rep["config"]["sheaf"] == "O(2)"
    assert rep["checks"][0]["dims"] == [3, 0]


def test_json_instance_mirror(tmp_path):
    inst = tmp_path / "plane.json"
    inst.write_text(json.dumps({
        "cover": {"kind": "projective-plane"},
        "policy": {"D": 2, "delta": 2},
        "checks": {"p": 1}}))
    code, rep = run_json(tmp_path, ["cech", "--instance", str(inst)])
    assert code == 0
    assert rep["checks"][0]["dims"] == [1, 0, 0]


def test_flag_overrides_instance(tmp_path):
    code, rep = run_json(
        tmp_path, ["cech", "--instance", "p1", "--D", "4", "--delta", "1"])
    assert code == 0
    assert rep["config"]["policy"] == {"D": 4, "delta": 1}


# -- output modes ----------------------------------------------------------------

def test_json_on_stdout(capsys):
    code = main(["cech", "--instance", "p1", "--json", "-"])
    assert code == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["command"] == "cech"


def test_quiet_suppresses_output(capsys):
    code = main(["cech", "--instance", "p1", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_human_summary(capsys):
    code = main(["cech", "--instance", "p1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "1/1 checks passed" in out


def test_byte_identical_reports(tmp_path):
    argv = ["verify", "lemma2.6", "--p", "2", "--seed", "9"]
    code1, _ = run_json(tmp_path, argv, name="a.json")
    code2, _ = run_json(tmp_path, argv, name="b.json")
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ktangent.cli", "verify", "alpha-delta",
         "--p", "2", "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
