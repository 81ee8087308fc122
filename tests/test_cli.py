"""Command line: dispatch, report shape, exit codes, determinism."""

import hashlib
import json
import random
import re
import resource
import subprocess
import sys

import pytest

from ktangent.cech import CechEngine, Sheaf, TruncationPolicy, check_window
from ktangent.cli import (main, BUILTIN_INSTANCES, _COMMANDS, build_arg_parser, make_report,
                          render_json)
from ktangent.parser import load_instance
from ktangent.errors import Unsupported, VacuousCheck


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
    assert Sheaf.parse("omega0").r == 0
    assert Sheaf.parse("omega2").r == 2
    assert Sheaf.parse("O(3)").twist == 3
    assert Sheaf.parse("O(-4)").twist == -4
    with pytest.raises(Unsupported):
        Sheaf.parse("bogus")


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


def test_verify_beta_agreement_at_its_top_weight(tmp_path):
    # beta of a weight-5 symbol is a 4-form, and the symbol ring has 4 variables
    code, rep = run_json(tmp_path, ["verify", "beta-agreement", "--p", "5"])
    assert code == 0
    (check,) = rep["checks"]
    assert check["status"] == "pass" and check["count"] == 51


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


def test_non_utf8_instance_file_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "bad.ini"
    inst.write_bytes(b"\xff\xfe[cover]\nkind = projective-line\n")
    assert main(["cech", "--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read instance file {str(inst)!r}: ")
    assert "Traceback" not in err


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


def test_unstable_witness_lists_both_windows_alike(tmp_path):
    code, rep = run_json(
        tmp_path,
        ["cech", "--instance", "p1", "--sheaf", "O(-4)", "--D", "1", "--delta", "6"])
    assert code == 1
    (check,) = rep["checks"]
    assert check["dims"] == [0, 0]
    assert check["witnesses"] == ["dims [0, 0] moved to [0, 3] at the larger window"]


@pytest.mark.parametrize("instance, sheaf", [("p1", "O(-9)"), ("p2", "O(-13)")])
def test_empty_windows_are_refused_before_any_label(monkeypatch, capsys, instance, sheaf):
    # no label of either window exists at D + delta = 4 (H^top has
    # dimension 8 and 66), so two empty windows would "stabilize" at 0
    built = []
    monkeypatch.setattr(CechEngine, "__init__", lambda *a, **k: built.append(a))
    assert main(["cech", "--instance", instance, "--sheaf", sheaf, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: empty window: {sheaf} at D + delta = 4 has no Čech label")
    assert built == []
    cover = load_instance(BUILTIN_INSTANCES[instance]).cover
    with pytest.raises(VacuousCheck):
        check_window(cover, Sheaf.parse(sheaf).twist, TruncationPolicy(2, 2))


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
    pytest.param(["cech", "--instance", "p1", "--sheaf", ""], None, id="cech-empty-sheaf"),
    # weights at which every compared form has more degree than the ring has
    # variables, so a pass would test nothing
    pytest.param(["verify", "lemma2.6", "--p", "5", "--seed", "1"], None,
                 id="lemma2.6-p5-vacuous"),
    pytest.param(["verify", "beta-agreement", "--p", "6"], None,
                 id="beta-agreement-p6-vacuous"),
    pytest.param(["verify", "diagram2.7", "--p", "6"], None, id="diagram2.7-p6-vacuous"),
    pytest.param(["verify", "alpha-delta", "--p", "5"], None, id="alpha-delta-p5-vacuous"),
])
def test_bad_window_or_weight_is_usage_error(tmp_path, capsys, argv, instance):
    if instance is not None:
        inst = tmp_path / "bad.inst"
        inst.write_text(instance)
        argv = argv + ["--instance", str(inst)]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


_ABSURD_WINDOW = ("[cover]\nkind = projective-line\n\n[policy]\nD = 99999999999999999999\n"
                  "\n[checks]\nsheaf = O(99999999999)\n")


def _cap_address_space():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("command", ["hypercoh", "cech"])
def test_absurd_window_is_refused_before_it_is_enumerated(tmp_path, command):
    # the run is a child under a 1 GB address-space cap, so a window that is
    # enumerated after all fails this test instead of exhausting the machine
    inst = tmp_path / "absurd.inst"
    inst.write_text(_ABSURD_WINDOW)
    proc = subprocess.run(
        [sys.executable, "-m", "ktangent.cli", command, "--instance", str(inst), "--quiet"],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: window too large: ")
    assert "Traceback" not in proc.stderr


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


def test_json_instance_nested_past_the_stack_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "deep.json"
    inst.write_text('{"tower": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["cech", "--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad JSON instance: nested too deeply (line 1, col 1)\n"


_HUGE = "[tower]\ngen a = algebraic -2, 0, {}\n\n[cover]\nkind = projective-line\n"
_HUGE_JSON = ('{{"tower": [{{"name": "a", "kind": "algebraic", "minpoly": [-2, 0, {}]}}], '
              '"cover": {{"kind": "projective-line"}}}}')


@pytest.mark.parametrize("name, text, spelled, line", [
    pytest.param("huge.inst", _HUGE.format("1e999999999"), "1e999999999", 2, id="text"),
    pytest.param("huge.inst", _HUGE.format("1E-999999999"), "1E-999999999", 2,
                 id="text-negative"),
    pytest.param("huge.json", _HUGE_JSON.format("1e999999999"), "1e999999999", 1,
                 id="json-number"),
    pytest.param("huge.json", _HUGE_JSON.format('"1e999999999"'), "1e999999999", 1,
                 id="json-string"),
    # read in no time, but 10**4300 has one digit too many to print
    pytest.param("huge.inst", "[cover]\nkind = plane-curve\nweierstrass = 0, -1, 1e4300\n",
                 "1e4300", 3, id="text-weierstrass"),
])
def test_rational_past_the_digit_cap_is_usage_error(tmp_path, capsys, name, text,
                                                    spelled, line):
    # 10**999999999 would take minutes to build; the reader refuses it unbuilt
    inst = tmp_path / name
    inst.write_text(text)
    assert main(["cech", "--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {spelled!r} has more than 4300 digits (line {line}, col 1)\n"


_CHECKS_LINE = "[cover]\nkind = projective-line\n\n[checks]\np = 1\n"


@pytest.mark.parametrize("name, text", [
    pytest.param("bad.inst", _CHECKS_LINE + "tower = none\n", id="text-tower"),
    pytest.param("bad.inst", _CHECKS_LINE + "cover = torus\n", id="text-cover"),
    pytest.param("bad.inst", _CHECKS_LINE + "instance = x\n", id="text-instance"),
    pytest.param("bad.json", json.dumps({"cover": _LINE, "checks": {"policy": 5}}),
                 id="json-policy"),
    pytest.param("bad.inst", _CHECKS_LINE + "seed = 5\n", id="text-seed"),
    pytest.param("bad.json", json.dumps({"cover": _LINE, "checks": {"seed": 5}}),
                 id="json-seed"),
])
def test_unknown_checks_key_is_usage_error(tmp_path, capsys, name, text):
    # [checks] holds p and sheaf; any other key would only be echoed into
    # the report's config, over the values that actually ran (no command
    # that loads an instance draws a seed)
    inst = tmp_path / name
    inst.write_text(text)
    assert main(["cech", "--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown checks key") and "Traceback" not in err


@pytest.mark.parametrize("name, text, message", [
    pytest.param("ring.inst", _CHECKS_LINE + "[ring]\nvars = x, y\n",
                 "unknown section [ring]", id="text"),
    pytest.param("ring.json", json.dumps({"cover": _LINE, "ring": {"vars": ["x", "y"]}}),
                 "JSON instance: unknown key 'ring'", id="json"),
])
def test_ring_section_is_usage_error(tmp_path, capsys, name, text, message):
    # no command reads a bare function ring, so an instance cannot declare one
    inst = tmp_path / name
    inst.write_text(text)
    assert main(["hypercoh", "--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


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
sheaf = omega0
"""

_ECHO_JSON = {"tower": [{"name": "r", "kind": "algebraic", "minpoly": [-2, 0, 1.0]}],
              "cover": {"kind": "plane-curve", "weierstrass": [0, -1, 1.1]},
              "policy": {"D": 3, "delta": 1},
              "checks": {"p": 2, "sheaf": "omega0"}}


@pytest.mark.parametrize("name, text", [
    pytest.param("curve.inst", _ECHO_TEXT, id="text"),
    pytest.param("curve.json", json.dumps(_ECHO_JSON), id="json"),
])
def test_config_echo_states_what_ran(tmp_path, name, text):
    inst = tmp_path / name
    inst.write_text(text)
    code, rep = run_json(tmp_path, ["cech", "--instance", str(inst)])
    assert code == 0
    # cech reads no weight, so the instance's p is not echoed
    assert rep["config"] == {"cover": "plane-curve 0,-1,11/10",
                             "instance": str(inst),
                             "policy": {"D": 3, "delta": 1},
                             "sheaf": "omega0",
                             "tower": [["r", "algebraic"]]}
    assert rep["checks"][0]["name"] == "cech Omega^0"


@pytest.mark.parametrize("name, text", [
    pytest.param("bad.inst", _CHECKS_LINE + "sheaf = bogus\n", id="text"),
    pytest.param("bad.json", json.dumps({"cover": _LINE, "checks": {"sheaf": "bogus"}}),
                 id="json"),
])
@pytest.mark.parametrize("command", ["verify lemma2.4", "cech", "hypercoh",
                                     "tangent-chow", "delta-r", "composed"])
def test_unknown_sheaf_in_an_instance_is_usage_error(tmp_path, capsys, name, text,
                                                      command):
    # the sheaf is checked when the instance loads, whichever command reads it
    inst = tmp_path / name
    inst.write_text(text)
    assert main(command.split() + ["--instance", str(inst), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown sheaf 'bogus'") and "Traceback" not in err


def test_hypercoh_computes_no_representatives(tmp_path, monkeypatch):
    # the report carries dims and stabilized only
    calls = []
    real = CechEngine.express_span
    monkeypatch.setattr(CechEngine, "express_span",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    code, rep = run_json(tmp_path, ["hypercoh", "--instance", "p2"])
    assert code == 0 and rep["checks"][0]["stabilized"]
    assert calls == []


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


# each command declares only the settings it reads, plus --json and --quiet;
# any other of these five is a usage error: 54 command/flag pairs parse, 24 do not
_FLAG_VALUES = {"--instance": "nosuch.inst", "--p": "1", "--D": "0",
                "--delta": "0", "--seed": "1"}
_COVER_FLAGS = {"--instance", "--p", "--D", "--delta"}
_DECLARED = {
    "verify lemma2.6": {"--p", "--seed"},
    "verify beta-agreement": {"--p", "--seed"},
    "verify diagram2.7": {"--p", "--seed"},
    "verify alpha-delta": {"--p"},
    "verify lemma2.4": _COVER_FLAGS,
    "cech": {"--instance", "--D", "--delta", "--sheaf"},
    "hypercoh": _COVER_FLAGS,
    "tangent-chow": _COVER_FLAGS,
    "delta-r": _COVER_FLAGS,
    "composed": _COVER_FLAGS,
    "relations": {"--seed"},
}
_UNDECLARED = [(cmd, flag) for cmd, flags in _DECLARED.items()
               for flag in _FLAG_VALUES if flag not in flags]


def test_each_command_declares_its_own_flags():
    assert len(_UNDECLARED) == 24
    values = {**_FLAG_VALUES, "--sheaf": "omega1", "--json": "-"}
    kept = 0
    for cmd, flags in _DECLARED.items():
        for flag in sorted(flags) + ["--json"]:
            args = build_arg_parser().parse_args(cmd.split() + [flag, values[flag]])
            assert args.run == cmd
            kept += 1
        assert build_arg_parser().parse_args(cmd.split() + ["--quiet"]).quiet
        kept += 1
    assert kept == 54


@pytest.mark.parametrize("cmd, flag", _UNDECLARED,
                         ids=[f"{c.replace(' ', '-')}{f}" for c, f in _UNDECLARED])
def test_undeclared_flag_is_usage_error(cmd, flag):
    # argparse refuses it before anything runs; its wording varies across
    # Python versions, so only the exit code is checked
    with pytest.raises(SystemExit) as exc:
        main(cmd.split() + [flag, _FLAG_VALUES[flag], "--quiet"])
    assert exc.value.code == 2


# -- the exit-code contract at random ------------------------------------------

# (a - 10)(a^3 + 2) has the rational root 10, so its ring has zero divisors
_QUARTIC = "[tower]\ngen a = algebraic -20, 2, 0, -10, 1\n\n[cover]\nkind = projective-line\n"
_TRANSCENDENTAL = "[tower]\ngen s = transcendental\n\n[cover]\nkind = projective-plane\n"
_VALID_FILES = [*BUILTIN_INSTANCES.values(), _TRANSCENDENTAL,
                "[tower]\ngen r = algebraic -2, 0, 1\n\n[cover]\nkind = projective-line\n"
                "\n[checks]\np = 2\nsheaf = O(-3)\n",
                "[tower]\ngen a = algebraic -2, 0, 0, 1\n\n[cover]\nkind = projective-plane\n"]
_EDIT_CHARS = "0123456789 -,=/#[]\nOpaDx()"
_SHEAVES = ("omega0", "omega1", "omega2", "O(2)", "O(-3)", "omega-1", "sheaf")


def _one_edit(rng, text):
    """text with one character deleted, replaced or inserted, most often in
    the value of a ``key = value`` line."""
    i = rng.randrange(len(text))
    if rng.random() < 0.7:
        i = rng.choice([j for m in re.finditer(r"(?<== ).+", text) for j in range(*m.span())])
    c = rng.choice(_EDIT_CHARS)
    return rng.choice((text[:i] + text[i + 1:], text[:i] + c + text[i + 1:],
                       text[:i] + c + text[i:]))


def _random_argv(rng, commands, path):
    """One of the commands with a value for each flag it declares (D and
    delta at most 3), the instance a built-in, a valid instance file or a
    one-edit mutation of one, written to path; now and then an undeclared
    flag."""
    cmd = rng.choice(commands)
    argv = cmd.split()
    for key in _COMMANDS[cmd][1]:
        if key == "instance":
            value = rng.choice(sorted(BUILTIN_INSTANCES))
            if rng.random() < 0.75:
                text = rng.choice(_VALID_FILES)
                path.write_text(_one_edit(rng, text) if rng.random() < 0.8 else text)
                value = str(path)
        elif key == "sheaf":
            value = rng.choice(_SHEAVES)
        else:
            # 0, a usage error for p, D and delta, one time in ten
            value = str(rng.choice((0,) + (1, 2, 3) * 3) if key != "seed"
                        else rng.randint(1, 99))
        argv += [f"--{key}", value]
    return argv + (["--bogus"] if rng.random() < 0.05 else [])


def _exit_code(argv):
    """main's exit code, an argparse ``SystemExit`` counted as its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_exit_code_contract_holds_at_random(tmp_path, capsys):
    # every run ends in 0, 1 or 2 with no other exception and no traceback;
    # a report exists exactly for 0 and 1, and a second run writes the same
    # bytes
    (tmp_path / "quartic.inst").write_text(_QUARTIC)
    (tmp_path / "qs.inst").write_text(_TRANSCENDENTAL)
    runs = [(["composed", "--instance", str(tmp_path / "quartic.inst")], 2),
            (["composed", "--instance", str(tmp_path / "qs.inst")], 1)]
    rng = random.Random(31)
    # every command, then more runs of the cheap ones that read an instance
    on_files = [cmd for cmd, (_, keys, _) in _COMMANDS.items() if "instance" in keys]
    runs += [(_random_argv(rng, sorted(_COMMANDS) if i < 40 else on_files,
                           tmp_path / f"{i}.inst"), None) for i in range(120)]
    seen = set()
    for i, (argv, want) in enumerate(runs):
        outcomes = []
        for again in (0, 1):
            report = tmp_path / f"{i}-{again}.json"
            code = _exit_code(argv + ["--json", str(report), "--quiet"])
            assert code in (0, 1, 2), argv
            assert "Traceback" not in capsys.readouterr().err, argv
            assert report.exists() == (code != 2), argv
            outcomes.append((code, report.read_bytes() if report.exists() else None))
        assert outcomes[0] == outcomes[1], argv
        assert want in (None, code), argv
        seen.add(code)
    assert seen == {0, 1, 2}


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
# instances at p = 1, 2 (cech, which reads no weight, once), with its exit
# code.  A change to the arithmetic that keeps every value canonical leaves
# these bytes as they are.
_REPORT_SHA256 = [
    ("verify lemma2.4", "p1", 1, 0, "4e531cef2a9c891cbdc8a2ef65338afda43212f73a836cbc06df9b73bdb4e5e9"),
    ("verify lemma2.4", "p1", 2, 0, "13b54438bd828a5529fbd99b23493374ec4ccbbe3787596acaa0bac1135dc623"),
    ("cech", "p1", None, 0, "6bdacaf5b23edfb68702c28d084c8d3e46f04379360faf6367d55d934e64a0af"),
    ("hypercoh", "p1", 1, 0, "24220c710e9b97a438ef3f885038b02c8580bbff5a3ccbbd41a803d8bad78fb0"),
    ("hypercoh", "p1", 2, 0, "4d0379a30c12cd577a41242223470ad893381231bbafabca4a8aef3d6298b7d9"),
    ("tangent-chow", "p1", 1, 0, "685f8a8ec7117fbfaa77a25f265bcbec77b9abb25bead588a5a48be5cd6ed64c"),
    ("tangent-chow", "p1", 2, 0, "e5ff9f62e357f285118ae537b551f00b42abca3c97d28a90ebc943b5e2e4bb70"),
    ("delta-r", "p1", 1, 0, "e4ad9184b0d1b72f25f23b70020468145935849dfde4a9a73b73c7358cf866a9"),
    ("delta-r", "p1", 2, 0, "42468c737fb8215c97277861694d4d6dddf48b69befc6a0d0cd41ac0fcd12fcf"),
    ("composed", "p1", 1, 0, "309d7f924239025f1ea9159a12ffa92d7592974d2b134596f09d7bc217e41c53"),
    ("composed", "p1", 2, 0, "f14e90f46076d96688787bfb5c63a047f408b961aecf94518a873e48e591f893"),
    ("verify lemma2.4", "p2", 1, 0, "4ead144141f9bdd9e4d8d0de1ac8e7961768cbe1f25bbf8122fa5a9831b453de"),
    ("verify lemma2.4", "p2", 2, 0, "7159f92c1afa37d84f1e9e65c2532abe1f9b0189ac808e1449e6eac90ddb1ee7"),
    ("cech", "p2", None, 0, "cf934fc4f20ecf8ba92f9248293bd740c15ced63f78a80141121e9e8be20ced5"),
    ("hypercoh", "p2", 1, 0, "d11e769436a1d16f65bb4fa857bec1a8000c61cc0a147889235463fdbbe245cf"),
    ("hypercoh", "p2", 2, 0, "199b68ad2ed0681efd0cbd622801b00378ea3b26bbbebb8b5dc334dbd547787e"),
    ("tangent-chow", "p2", 1, 0, "e256dbdb7b80996b47f079a59345cf180ab7a95d4267100e47e008483c51bec3"),
    ("tangent-chow", "p2", 2, 0, "4e8d8a06d1c9778b5182abbe06f86a2051486ef58dc3594e0f529950b7cf868b"),
    ("delta-r", "p2", 1, 0, "74e113f9a7ae4e292713352e9c306c3b10c33f9c0db4666b6e89317fff1dec4b"),
    ("delta-r", "p2", 2, 0, "be5c6d8fa81d2ced37e51a768af5ebd51a8b01fdb47ccc698e855b76093d46b0"),
    ("composed", "p2", 1, 0, "1d2e87fa25cec5bb54e008ac719f238e7fa311635b37b861ba18ada695af4521"),
    ("composed", "p2", 2, 0, "0adc626c1c99d58a53eefded46b563845ff277e54b593a67e3f9a53e3d391178"),
    ("verify lemma2.4", "elliptic", 1, 0, "a4b78519e48f7b9728c2ab0ed94f0be3fd07efdc638d5c4ccc39e4fdb0c73549"),
    ("verify lemma2.4", "elliptic", 2, 1, "5a3792257d0cbe342eb96ee189e06dc872273f7001d758d0e26408281fd9e82c"),
    ("cech", "elliptic", None, 0, "16aeb4020b0762d716ebefb766c1aa0b564053cdeed4693952ed506c676ff93c"),
    ("hypercoh", "elliptic", 1, 0, "37f05835831625f9a7463b9a900cec8685d121d27a1a7ba798b69bc81c4b73c6"),
    ("hypercoh", "elliptic", 2, 1, "be5b58820e73ab774bb9523fe8c7db8bba6317c5283653e6b3a3ad24ca8480ee"),
    ("tangent-chow", "elliptic", 1, 0, "53bf17422a17b814930e6ada249616d13f1a6e60c76c99e8038b019f445d2b00"),
    ("tangent-chow", "elliptic", 2, 1, "41824290b476192d3f35eb4789e9e8b8126a2c5c1428cac2a8cf67de0471479c"),
    ("delta-r", "elliptic", 1, 0, "b70d2ae5b00f473bcefeb95b31798fea5da0fbb0442cb277bcaba15bea728f3c"),
    ("delta-r", "elliptic", 2, 1, "734eb2c37a34fd9451b395aeff549c361095b5ca47dc33225a1e83b5dd64cc15"),
    ("composed", "elliptic", 1, 0, "c9be1bdd85339c65de5c44c85ba053f801fa6ff372e64d73fce3150be2c6402e"),
    ("composed", "elliptic", 2, 1, "1a438c65a4820f49aec35ac7e7e1f6010ab19160b67cc4f0bffd21a480ee3075"),
]


@pytest.mark.parametrize("cmd, instance, p, code, digest", _REPORT_SHA256,
                         ids=[f"{c.replace(' ', '-')}-{i}" + (f"-p{p}" if p else "")
                              for c, i, p, _, _ in _REPORT_SHA256])
def test_builtin_report_bytes(capsys, cmd, instance, p, code, digest):
    weight = ["--p", str(p)] if p else []
    argv = cmd.split() + ["--instance", instance] + weight + ["--json", "-", "--quiet"]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
