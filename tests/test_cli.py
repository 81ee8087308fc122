"""Command line: dispatch, report shape, exit codes, determinism."""

import hashlib
import json
import re
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


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_json_path_is_usage_error(tmp_path, capsys, where):
    path = tmp_path / "no" / "such" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["cech", "--instance", "p1", "--json", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report to {path}: ")
    assert "Traceback" not in err


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


_LINE = {"kind": "projective-line"}
_CURVE = {"kind": "plane-curve"}


def _algebraic(minpoly):
    return {"tower": [{"name": "r", "kind": "algebraic", "minpoly": minpoly}]}


@pytest.mark.parametrize("obj", [
    pytest.param({"policy": None}, id="policy-null"),
    pytest.param({"cover": None}, id="cover-null"),
    pytest.param({"policy": [1]}, id="policy-list"),
    pytest.param({"tower": "abc"}, id="tower-string"),
    pytest.param({"tower": ["t"]}, id="tower-step-string"),
    pytest.param({"tower": [{"name": 5, "kind": "transcendental"}]}, id="tower-name-int"),
    pytest.param(_algebraic(5), id="minpoly-int"),
    pytest.param(_algebraic(["x", 0, 1]), id="minpoly-word"),
    pytest.param(_algebraic(["1/0", 0, 1]), id="minpoly-zero-denominator"),
    pytest.param(_algebraic([float("nan"), 0, 1]), id="minpoly-nan"),
    pytest.param({"cover": {**_CURVE, "weierstrass": 5}}, id="weierstrass-int"),
    pytest.param({"cover": {**_CURVE, "weierstrass": [1, "x", 2]}}, id="weierstrass-word"),
    pytest.param({"cover": {**_CURVE, "weierstrass": [0, -1, "1/0"]}},
                 id="weierstrass-zero-denominator"),
    pytest.param({"ring": {"vars": 5}}, id="ring-vars-int"),
    pytest.param({"cover": _LINE, "foo": 1}, id="unknown-key"),
    pytest.param({"cover": _LINE, "checks": {"sheaf": 5}}, id="sheaf-int"),
])
def test_malformed_json_instance_is_usage_error(tmp_path, capsys, obj):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(obj))
    assert main(["cech", "--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


_CHECKS_LINE = "[cover]\nkind = projective-line\n\n[checks]\np = 1\n"


@pytest.mark.parametrize("name, text", [
    pytest.param("bad.inst", _CHECKS_LINE + "tower = none\n", id="text-tower"),
    pytest.param("bad.inst", _CHECKS_LINE + "cover = torus\n", id="text-cover"),
    pytest.param("bad.inst", _CHECKS_LINE + "instance = x\n", id="text-instance"),
    pytest.param("bad.json", json.dumps({"cover": _LINE, "checks": {"policy": 5}}),
                 id="json-policy"),
])
def test_unknown_checks_key_is_usage_error(tmp_path, capsys, name, text):
    # [checks] holds p, seed and sheaf; any other key would only be echoed
    # into the report's config, over the values that actually ran
    inst = tmp_path / name
    inst.write_text(text)
    assert main(["cech", "--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown checks key") and "Traceback" not in err


_ECHO_TEXT = """
[tower]
gen r = algebraic -2, 0, 1

[cover]
kind = plane-curve
weierstrass = 0, -1, 11/10

[policy]
D = 3
delta = 1

[checks]
p = 2
seed = 5
sheaf = omega0
"""

_ECHO_JSON = {"tower": [{"name": "r", "kind": "algebraic", "minpoly": [-2, 0, 1.0]}],
              "cover": {"kind": "plane-curve", "weierstrass": [0, -1, 1.1]},
              "policy": {"D": 3, "delta": 1},
              "checks": {"p": 2, "seed": 5, "sheaf": "omega0"}}


@pytest.mark.parametrize("name, text", [
    pytest.param("curve.inst", _ECHO_TEXT, id="text"),
    pytest.param("curve.json", json.dumps(_ECHO_JSON), id="json"),
])
def test_config_echo_states_what_ran(tmp_path, name, text):
    inst = tmp_path / name
    inst.write_text(text)
    code, rep = run_json(tmp_path, ["cech", "--instance", str(inst)])
    assert code == 0
    assert rep["config"] == {"cover": "plane-curve 0,-1,11/10",
                             "instance": str(inst),
                             "p": 2,
                             "policy": {"D": 3, "delta": 1},
                             "seed": 5,
                             "sheaf": "omega0",
                             "tower": [["r", "algebraic"]]}
    assert rep["checks"][0]["name"] == "cech Omega^0"


def test_sheaf_is_echoed_only_by_cech(tmp_path, capsys):
    # [checks] sheaf configures cech alone; hypercoh computes no sheaf
    inst = tmp_path / "line.inst"
    inst.write_text(_CHECKS_LINE + "sheaf = omega1\n")
    assert main(["hypercoh", "--instance", str(inst), "--json", "-"]) == 0
    assert "sheaf" not in json.loads(capsys.readouterr().out)["config"]
    for flag, want in (([], "omega1"), (["--sheaf", "O(2)"], "O(2)")):
        assert main(["cech", "--instance", str(inst), "--json", "-"] + flag) == 0
        assert json.loads(capsys.readouterr().out)["config"]["sheaf"] == want


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
    assert "[pass]" in out
    assert re.fullmatch(r"1/1 checks passed in \d+\.\d{3} s", out.splitlines()[-1])
    # the timing is console-only: the quiet and JSON paths print none of it
    assert main(["cech", "--instance", "p1", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["cech", "--instance", "p1", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" not in out and json.loads(out)["runtime_ms"] == 0


def test_successive_calls_parse_independently(tmp_path, capsys):
    assert main(["cech", "--instance", "p1", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["cech", "--instance", "p1"]) == 0
    assert "checks passed" in capsys.readouterr().out
    _, rep = run_json(tmp_path, ["cech", "--instance", "p1", "--sheaf", "omega1"])
    assert rep["config"]["sheaf"] == "omega1"
    assert rep["checks"][0]["name"] == "cech Omega^1"
    _, rep = run_json(tmp_path, ["cech", "--instance", "p1"])
    assert "sheaf" not in rep["config"]
    assert rep["checks"][0]["name"] == "cech Omega^0"


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


# -- report bytes --------------------------------------------------------------

# sha256 of the ``--json -`` output of every cover command on the built-in
# instances at p = 1, 2, with its exit code.  A change to the arithmetic that
# keeps every value canonical leaves these bytes as they are.
_REPORT_SHA256 = [
    ("verify lemma2.4", "p1", 1, 0, "6a4c1f806a2958e000dbad6c1a65602305a2ccdc6d981175b8860337615f56b1"),
    ("verify lemma2.4", "p1", 2, 0, "3c50634d327a72b7a8ab5ab0828813d96a75f03a5aba694ff15e9ca2096a9d7c"),
    ("cech", "p1", 1, 0, "fe67fa7ae4196caf318ba06d851d6f1041cb8889feea8fcabeb38ac0b247afe2"),
    ("cech", "p1", 2, 0, "45d62b3ee813f491882940aef54a15f97758f181e67f6d8279ebdea32e58b060"),
    ("hypercoh", "p1", 1, 0, "b55e20ddad461c4e48c04466bf120b340dbe1c75da58271ad9ecf124256164b1"),
    ("hypercoh", "p1", 2, 0, "8a03e682565493e654c7e38d2c64a9e9c1cc283ea42abbe5b2eaa4935cc7490a"),
    ("tangent-chow", "p1", 1, 0, "3bdc4b2b0a1d8af23d0f9032e527930f3586fe988f8ecb6a4e35bf3de3825b18"),
    ("tangent-chow", "p1", 2, 0, "71d18c74ea12c0e859e239ec0894367bbdc7320288b4c5c99878b7b27f6dc1eb"),
    ("delta-r", "p1", 1, 0, "635adcd684a8fb63b37eb20cbc18150c40bf3abeb25b475f18d3eceb26c7f110"),
    ("delta-r", "p1", 2, 0, "f5a2119de543f68815fab27e1627f944c3d11abc51833badf363aab02f3fd876"),
    ("composed", "p1", 1, 0, "bdeb275dfdb284edbf6b6b2cc1f087030ee592d94dd8e65fc02e33dae2ee1c0a"),
    ("composed", "p1", 2, 0, "cfd457993f232b4ba117f2890cf2ab642d247191e371593693d0628b92d50282"),
    ("verify lemma2.4", "p2", 1, 0, "407d2aa312b3aa9ea42e7ee7845c8dbc7e2b50d3d159ab6567897f22eb5f819d"),
    ("verify lemma2.4", "p2", 2, 0, "b8ffbcb1d978ffe12a41c3459e17cc9b77db132778c8532354e6eedd6ed5942a"),
    ("cech", "p2", 1, 0, "febcfae6d2d8daf035a3536fcac54e0d9c83f51504e4739928c7c883e89b3826"),
    ("cech", "p2", 2, 0, "f73d25956a04c1c9c9cb2a1ce56c73fc68d53054313b96bdfb65ea5b0a75881e"),
    ("hypercoh", "p2", 1, 0, "36b823581b741c26dc261ac2bc4e428548659c97d20cf13ef296419763cf2e80"),
    ("hypercoh", "p2", 2, 0, "9b0e24fb2c6e61f5c32a35372998b1329eea7e92131b52ed5d17f87e33a4b00e"),
    ("tangent-chow", "p2", 1, 0, "d70c251460fea4fe0b2abfa8b732a55fc3a3f37b0178a8bd3f8c36409361c8f1"),
    ("tangent-chow", "p2", 2, 0, "9cd58dbf35eb59c9404a9c45ad16a3d19c8051bcdf84698b204d2f2bd22e65e6"),
    ("delta-r", "p2", 1, 0, "6365183fd82c1763d3118baa8dbea32445d5dfd8d28e2a3734f4b3b58c9cc93c"),
    ("delta-r", "p2", 2, 0, "586cdcc7923f76768ccf246727dcdafd4f4962664da89241ec0c2e5b38fc723e"),
    ("composed", "p2", 1, 0, "c11a69efde417cd0c9411ef347e6fdf0f6c5920d57a976417e71a6b3678c4d0b"),
    ("composed", "p2", 2, 0, "80484d8f9fc43fa56ba0c47168fdeeadb08d8fb355ea72c58b26edfecd70cd6d"),
    ("verify lemma2.4", "elliptic", 1, 0, "1b2a6580cf5e349fc3edcb45747257dc3b6a930fe797a8c1631ec06db37d0ca9"),
    ("verify lemma2.4", "elliptic", 2, 1, "7b2b7877c28571f90776cfa21d9ce3143bc84c0d6cb076a038ca308dfd15922d"),
    ("cech", "elliptic", 1, 0, "6f7abc54f6c0e094c80482036817b1e2d6c0341d94a17f02d7e5e15a1734a185"),
    ("cech", "elliptic", 2, 0, "3f9bf5328bbab48f573edc498cafcd9d2a8c34c55201f43797f3cb29f5ae6b7d"),
    ("hypercoh", "elliptic", 1, 0, "9d3c6bb1060b3851fec8fc9bf6730c725f118d256e03762f8e20d9bee3c79f01"),
    ("hypercoh", "elliptic", 2, 1, "eee98efe3fe81c232d2ff09dab54d48c217725e64a241d6c2e90dbffb4027856"),
    ("tangent-chow", "elliptic", 1, 0, "19a65f9bd2e172ebf6c6b71d10511083e499b188c249bd98a1549044507b62b2"),
    ("tangent-chow", "elliptic", 2, 1, "4437d565c3a1eddc0187d9a2f2b0c1bd2111fe4d8d8a437407959c8e468cfb2c"),
    ("delta-r", "elliptic", 1, 0, "1df09e7ac0315812c964f274c62b164877f0f23558e7b919bf9cabfa4b83b8ce"),
    ("delta-r", "elliptic", 2, 1, "39a9d62d838eab2f321e68158132dc520d58fdefd50997bae45ac4deda13ba38"),
    ("composed", "elliptic", 1, 0, "78f820406581f48e2f0699a9317a84feab73b34ae417bfc42ac45fc12ace6a58"),
    ("composed", "elliptic", 2, 1, "222dda35bddd20628d868fa3dbc05a10ec01c022f15df61bb8476cc1c07333f5"),
]


@pytest.mark.parametrize("cmd, instance, p, code, digest", _REPORT_SHA256,
                         ids=[f"{c.replace(' ', '-')}-{i}-p{p}"
                              for c, i, p, _, _ in _REPORT_SHA256])
def test_builtin_report_bytes(capsys, cmd, instance, p, code, digest):
    argv = cmd.split() + ["--instance", instance, "--p", str(p), "--json", "-", "--quiet"]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
