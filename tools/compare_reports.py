"""Compare the JSON reports of two ktangent source trees, command by command.

    python3 tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories (say, of a ``git archive`` of
the parent commit and of this checkout).  Each tree runs the same commands
in-process through ``cli.main``, in its own subprocess, one tree after the
other in the same scratch directory, so that instance paths echo alike.
For every command the script checks that

* the exit codes agree;
* the ``checks`` arrays are byte-identical;
* ``config`` differs exactly by the keys in ``DROPPED`` for that command:
  each of them is gone, and no key is added, changed or otherwise removed.

The commands are:

* every cover command on the built-in instances at p = 1, 2 (36 rows; the
  new tree's ``cech`` reads no weight, so its run drops ``--p``);
* the 23 commands of the benchmark's ``commands`` workload at seeds 1-3;
* the four seeded ``verify`` suites and ``relations`` at their default seed.

Prints one line per difference and a summary; exits 1 on any difference.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COVER_COMMANDS = ("verify lemma2.4", "cech", "hypercoh", "tangent-chow",
                  "delta-r", "composed")
SUITES = ("verify lemma2.6", "verify beta-agreement", "verify diagram2.7",
          "verify alpha-delta", "relations")

# config keys the new tree no longer echoes, because the command reads no
# such setting: seed on every command that loads an instance, p on cech,
# seed on verify alpha-delta, p on relations
DROPPED = {**{c: {"seed"} for c in COVER_COMMANDS},
           "cech": {"p", "seed"},
           "verify alpha-delta": {"seed"},
           "relations": {"p"}}


def rows(kt, work):
    """(id, command, old argv, new argv) for every compared run."""
    out = []
    for inst in ("p1", "p2", "elliptic"):
        for cmd in COVER_COMMANDS:
            for p in (1, 2):
                old = cmd.split() + ["--instance", inst, "--p", str(p)]
                new = old[:-2] if cmd == "cech" else old
                out.append((f"{cmd} {inst} p={p}", cmd, old, new))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    for seed in (1, 2, 3):
        kt.workdir = os.path.join(work, f"seed{seed}")
        os.makedirs(kt.workdir)
        specs = workloads.Commands().setup(kt, seed)["specs"]
        for cid, argv, _, _ in specs:
            argv = argv[:argv.index("--json")]
            cmd = " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
            out.append((f"commands seed={seed}: {cid}", cmd, argv, argv))
    for cmd in SUITES:
        out.append((cmd, cmd, cmd.split(), cmd.split()))
    return out


def worker(src, side, work, dest):
    """Run every row's argv for ``side`` with the package under ``src``."""
    sys.path.insert(0, src)
    from ktangent import cech, cli, errors, scalars
    kt = types.SimpleNamespace(cech=cech, cli=cli, errors=errors, scalars=scalars)
    results = {}
    report = os.path.join(work, "report.json")
    for rid, cmd, old, new in rows(kt, work):
        argv = old if side == "old" else new
        rc = cli.main(argv + ["--json", report, "--quiet"])
        with open(report, encoding="utf-8") as fh:
            results[rid] = {"command": cmd, "rc": rc, "report": fh.read()}
        os.remove(report)
    with open(dest, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def run_side(src, side, scratch):
    work = os.path.join(scratch, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    dest = os.path.join(scratch, f"{side}.json")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                    os.path.abspath(src), side, work, dest], check=True)
    with open(dest, encoding="utf-8") as fh:
        return json.load(fh)


def checks_text(report_text):
    """The serialized ``checks`` array, cut from the report's own bytes."""
    start = report_text.index('\n  "checks": ')
    end = report_text.index('\n  "command": ', start)
    return report_text[start:end]


def compare(old, new):
    problems = []
    for rid, o in old.items():
        n = new.get(rid)
        if n is None:
            problems.append(f"{rid}: missing from the new run")
            continue
        if o["rc"] != n["rc"]:
            problems.append(f"{rid}: exit code {o['rc']} -> {n['rc']}")
        if checks_text(o["report"]) != checks_text(n["report"]):
            problems.append(f"{rid}: checks differ")
        oc = json.loads(o["report"])["config"]
        nc = json.loads(n["report"])["config"]
        gone = set(oc) - set(nc)
        want = DROPPED.get(o["command"], set()) & set(oc)
        if gone != want:
            problems.append(f"{rid}: config dropped {sorted(gone)}, want {sorted(want)}")
        if set(nc) - set(oc) or any(nc[k] != oc[k] for k in nc if k in oc):
            problems.append(f"{rid}: config {oc} -> {nc}")
    return problems


def main(argv):
    if argv[:1] == ["--worker"]:
        worker(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix="compare-reports-")
    try:
        old = run_side(argv[0], "old", scratch)
        new = run_side(argv[1], "new", scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems = compare(old, new)
    for line in problems:
        print(line)
    print(f"{len(old)} reports compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
