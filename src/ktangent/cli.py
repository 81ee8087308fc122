"""Command dispatch and structured reports for the verification suite.

Reports are JSON objects ``{command, config, checks, runtime_ms}`` with one
entry per check: ``{name, status, witnesses, dims, matrix, ...}``.  Keys are
sorted and ``runtime_ms`` is pinned to 0, so a fixed seed and configuration
produce byte-identical output.  Exit status: 0 when every check passes, 1
when any check fails (or a run refuses an instance), 2 for usage or
instance-file errors.
"""

import argparse
import functools
import json
import sys
import time

from .errors import KTangentError
from .parser import load_instance
from .cech import (Sheaf, TruncationPolicy, check_window, sheaf_cohomology,
                   hypercohomology, verify_splitting)
from .complexes import tangent_deligne
from .cycletangent import formal_tangent_chow, delta_r, composed_infinitesimal
from . import suites
from .errors import Unsupported

# built-in instances, written in the instance grammar they exercise
BUILTIN_INSTANCES = {
    "p1": """\
[cover]
kind = projective-line

[policy]
D = 2
delta = 2

[checks]
p = 1
""",
    "p2": """\
[cover]
kind = projective-plane

[policy]
D = 2
delta = 2

[checks]
p = 1
""",
    "elliptic": """\
# the cubic y^2 z = x^3 - x z^2 + z^3
[cover]
kind = plane-curve
weierstrass = 0, -1, 1

[policy]
D = 2
delta = 2

[checks]
p = 1
""",
}


def _load(args):
    name = args.instance or "p1"
    if name in BUILTIN_INSTANCES:
        cfg = load_instance(BUILTIN_INSTANCES[name])
    else:
        try:
            with open(name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise KTangentError(f"cannot read instance file {name!r}: {exc}")
        cfg = load_instance(text)
    if getattr(args, "p", None) is not None:
        cfg.p = args.p
    if getattr(args, "sheaf", None) is not None:
        cfg.sheaf = args.sheaf
    if args.D is not None or args.delta is not None:
        D = args.D if args.D is not None else cfg.policy.D
        delta = args.delta if args.delta is not None else cfg.policy.delta
        cfg.policy = TruncationPolicy(D, delta)
    return cfg


def _dims_list(dims):
    ks = sorted(dims)
    return [dims.get(k, 0) for k in range(ks[-1] + 1)] if ks else []


# -- command bodies ----------------------------------------------------------
#
# Each body returns (config-or-None, checks).  Configuration problems are
# raised and exit with status 2; anything that goes wrong while a check
# runs is captured as a structured check with status "error" (exit 1).

def _guard(name, fn):
    try:
        return fn()
    except KTangentError as exc:
        return [{"name": name, "status": "error",
                 "witnesses": [f"{type(exc).__name__}: {exc}"]}]


def _suite(fn):
    """The body of a seeded suite: ``fn`` gets exactly the settings declared,
    once its weight is known to leave something to check."""
    def body(args):
        settings = _settings(args)
        suites.check_weight(fn, settings.get("p"))
        return None, _guard(args.run.rpartition(" ")[2], lambda: fn(**settings))
    return body


def _on_cover(name, check):
    """The body of a command on the instance's cover.

    ``check(cfg, sheaf)`` returns the command's one check, named ``name``
    (formatted with the weight p and the sheaf) unless it names itself; the
    same name marks the error check when it raises.
    """
    def body(args):
        cfg = _load(args)
        if cfg.cover is None:
            raise Unsupported(f"{args.run} needs a [cover] instance")
        sheaf = Sheaf.parse("omega0" if cfg.sheaf is None else cfg.sheaf)
        check_window(cfg.cover, sheaf.twist if "sheaf" in vars(args) else 0, cfg.policy)
        label = name.format(p=cfg.p, sheaf=sheaf.describe())
        return cfg, _guard(label, lambda: [{"name": label, **check(cfg, sheaf)}])
    return body


def _cech(cfg, sheaf):
    rep = sheaf_cohomology(cfg.cover, sheaf, cfg.policy)
    check = {"status": "pass" if rep.stabilized else "fail",
             "dims": _dims_list(rep.dims),
             "stabilized": rep.stabilized,
             "representatives": rep.to_dict()["representatives"]}
    if not rep.stabilized:
        check["witnesses"] = [
            f"dims {_dims_list(rep.dims)} moved to "
            f"{_dims_list(rep.dims_again)} at the larger window"]
    return check


def _hypercoh(cfg, _):
    cx = tangent_deligne(cfg.p, cfg.cover.charts[0])
    rep = hypercohomology(cfg.cover, cx, cfg.policy, with_reps=False)
    return {"status": "pass" if rep.stabilized else "fail",
            "dims": {str(k): v for k, v in sorted(rep.dims.items())},
            "stabilized": rep.stabilized}


def _tangent_chow(cfg, _):
    rep = formal_tangent_chow(cfg.cover, cfg.p, cfg.policy)
    return {"status": "pass",
            "dims": {str(k): v for k, v in sorted(rep.dims.items())},
            "dim": rep.dim(cfg.p),
            "representatives": rep.to_dict()["representatives"]}


def _composed(cfg, _):
    rep = composed_infinitesimal(cfg.cover, cfg.p, cfg.policy)
    out = rep.to_dict()
    out["status"] = "pass" if rep.verdict == "injective" else "fail"
    if out["status"] == "fail":
        out["witnesses"] = [f"kernel dimension {rep.kernel_dim}"]
    return out


# -- report assembly ---------------------------------------------------------

def _normalize(check):
    out = {"name": check.get("name", "?"),
           "status": check.get("status", "error"),
           "witnesses": list(check.get("witnesses", [])),
           "dims": check.get("dims"),
           "matrix": check.get("matrix")}
    for k, v in check.items():
        if k not in out:
            out[k] = v
    return out


def _config_echo(args, cfg):
    """The settings that ran: those the command declares, and no other."""
    settings = _settings(args)
    if cfg is None:
        config = settings
        if "p" in config and config["p"] is None:
            config["p"] = "2,3,4"  # the suites' weights when none is given
    else:
        config = cfg.describe()
        config["instance"] = args.instance or "p1"
        if "p" not in settings:
            del config["p"]
        if "sheaf" in settings and cfg.sheaf is not None:
            config["sheaf"] = cfg.sheaf
    if "what" in vars(args):
        config["what"] = args.what
    return config


def make_report(command, config, checks):
    return {"command": command, "config": config,
            "checks": [_normalize(c) for c in checks], "runtime_ms": 0}


def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _print_human(report, out, seconds):
    for c in report["checks"]:
        line = f"[{c['status']}] {c['name']}"
        if c.get("count") is not None:
            line += f" ({c['count']} instances)"
        if c.get("dims") is not None:
            line += f" dims={c['dims']}"
        if c.get("verdict"):
            line += f" verdict={c['verdict']}"
        if c.get("stabilized") is not None:
            line += f" stabilized={c['stabilized']}"
        print(line, file=out)
        for w in c.get("witnesses", []):
            print(f"    witness: {w}", file=out)
    n = len(report["checks"])
    good = sum(1 for c in report["checks"] if c["status"] == "pass")
    print(f"{good}/{n} checks passed in {seconds:.3f} s", file=out)


# -- the commands and the settings each one reads ------------------------------

_SETTINGS = {
    "instance": {"help": "built-in name (p1, p2, elliptic) or instance file"},
    "p": {"type": int, "help": "weight / symbol length"},
    "D": {"type": int, "help": "truncation window size"},
    "delta": {"type": int, "help": "window growth for the stability check"},
    "seed": {"type": int, "default": suites.DEFAULT_SEED,
             "help": "seed for the randomized families"},
    "sheaf": {"help": "omegaR or O(d); default omega0"},
}
_ON_A_COVER = ("instance", "p", "D", "delta")

# name -> (help, the settings it reads, body); "verify X" is X under verify
_COMMANDS = {
    "verify lemma2.6": ("tilde_dlog = +-d(beta) on seeded symbol families",
                        ("p", "seed"), _suite(suites.codifferential_suite)),
    "verify beta-agreement": ("beta via truncation agrees with beta",
                              ("p", "seed"), _suite(suites.beta_agreement_suite)),
    "verify diagram2.7": ("the absolute comparison square up the tower",
                          ("p", "seed"), _suite(suites.absolute_square_suite)),
    "verify alpha-delta": ("the alpha/delta comparison diagram",
                           ("p",), _suite(suites.diagram_suite)),
    "verify lemma2.4": ("the tangent complex splits on a cover", _ON_A_COVER,
                        _on_cover("splitting p={p}", lambda cfg, _: verify_splitting(
                            cfg.p, cfg.cover, cfg.policy))),
    "cech": ("sheaf cohomology dimensions on a cover",
             ("instance", "D", "delta", "sheaf"), _on_cover("cech {sheaf}", _cech)),
    "hypercoh": ("hypercohomology of the tangent complex", _ON_A_COVER,
                 _on_cover("hypercohomology p={p}", _hypercoh)),
    "tangent-chow": ("formal tangent space of the cycle group", _ON_A_COVER,
                     _on_cover("formal tangent space p={p}", _tangent_chow)),
    "delta-r": ("the map out of the formal tangent space", _ON_A_COVER,
                _on_cover("delta_r p={p}", lambda cfg, _: {
                    **delta_r(cfg.cover, cfg.p, cfg.policy).to_dict(), "status": "pass"})),
    "composed": ("the composed infinitesimal regulator map", _ON_A_COVER,
                 _on_cover("composed p={p}", _composed)),
    "relations": ("symbol relations die under the form maps",
                  ("seed",), _suite(suites.relations_suite)),
}


def _settings(args):
    """The parsed settings: the namespace holds only the command's own flags."""
    return {k: v for k, v in vars(args).items() if k in _SETTINGS}


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="ktangent",
        description="exact verification of symbol maps, Cech cohomology, "
                    "and tangent-space comparisons")
    sub = ap.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run one of the identity suites")
    suites_sub = verify.add_subparsers(dest="what", required=True)
    for name, (help_text, settings, _) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        sp = (suites_sub if group else sub).add_parser(leaf, help=help_text)
        for key in settings:
            sp.add_argument(f"--{key}", **_SETTINGS[key])
        sp.add_argument("--json", help="write the JSON report to this path ('-' for stdout)")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")
        sp.set_defaults(run=name)
    return ap


@functools.lru_cache(maxsize=1)
def _arg_parser():
    # parse_args leaves the parser unchanged, so one parser serves every call
    return build_arg_parser()


def main(argv=None):
    start = time.perf_counter()
    args = _arg_parser().parse_args(argv)
    try:
        p = getattr(args, "p", None)
        if p is not None and p < 1:
            raise Unsupported(f"weight p must be at least 1, got {p}")
        cfg, checks = _COMMANDS[args.run][2](args)
    except KTangentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = make_report(args.run, _config_echo(args, cfg), checks)
    payload = render_json(report)
    if args.json == "-":
        sys.stdout.write(payload)
    elif args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report to {args.json}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    if not args.quiet and args.json != "-":
        _print_human(report, sys.stdout, time.perf_counter() - start)
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
