"""Compare the JSON reports of two ktangent source trees, command by command.

    python3 tools/compare_reports.py OLD NEW

OLD and NEW are ``src`` directories, or git revisions of this repository
whose ``src`` is extracted with ``git archive`` into a temporary directory;
``python3 tools/compare_reports.py HEAD~1 src`` compares this checkout with
its parent commit.  Each tree runs the same argv list
in-process through ``cli.main``, in its own subprocess, one tree after the
other in the same scratch directory, so that instance paths echo alike.
For every run the script checks that the exit codes agree and that the
report files are byte-identical (a run that writes no report, such as a
usage error, must write none on both sides).

The runs are:

* every cover command on the built-in instances, at p = 1, 2 for the
  commands that read a weight, and ``cech`` at two sheaves;
* a few cover commands at wider windows (``WIDE``), whose eliminations
  meet pivots other than +-1 (among them the cubic at D = 20, whose
  partial fractions g^(-e) reach the largest exponents of any run), a few
  whose delta exceeds D, so that most labels of the larger window are new
  to it, and a few twisted sheaves O(d), one of them unstable (exit 1);
* ``cech``, ``composed`` and ``verify lemma2.4`` on three instance files
  (``TOWERS``): towers of degree 3 and 4, where every other run meets a
  quadratic or transcendental tower or none, and a tower of two quadratic
  generators, the one run whose tower checks shift an earlier generator
  and whose values are lifted past an irrational level;
* ``delta-r`` at p = 1 and p = 2 on P^1 and P^2 over Q(s) (``OVER_QS``),
  and on the tower of two quadratic generators: its source complex is
  also its target except at p = 2 over Q(s), where the labels of the
  source carry ds;
* ``tangent-chow`` at p = 2 on P^1 and P^2 over Q(s), the reports whose
  representatives sit on labels that carry ds and no coordinate
  differential, which restrict to themselves;
* the commands of the benchmark's ``commands`` workload at seeds 1-3;
* the four ``verify`` suites and ``relations`` at their default seed, and
  the three seeded ``verify`` suites and ``relations`` again at seeds 7 and
  11, two symbol families drawn apart from the default one; seed 11 draws
  its values through the sums and products of Q(t) values with equal or
  polynomial denominators and the gcds with a side linear in a variable
  over Q(sqrt 2) (``verify alpha-delta`` reads no seed);
* ``verify beta-agreement`` and ``verify diagram2.7`` at p = 5, the
  highest weight they accept, whose long tails repeat the most products.

That is 148 runs in all.

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

WEIGHTED = ("verify lemma2.4", "hypercoh", "tangent-chow", "delta-r", "composed")
WIDE = ("cech --instance p2 --sheaf omega1 --D 8",
        "cech --instance elliptic --D 10",
        "cech --instance elliptic --D 20",
        "hypercoh --instance p2 --p 2 --D 6",
        "composed --instance elliptic --D 6",
        "cech --instance elliptic --D 2 --delta 7",
        "cech --instance p2 --sheaf omega2 --D 1 --delta 5",
        "hypercoh --instance p2 --p 2 --D 2 --delta 4",
        "cech --instance p1 --sheaf O(-3)",
        "cech --instance p2 --sheaf O(2)",
        "cech --instance p2 --sheaf O(-4) --D 2",
        "cech --instance p1 --sheaf O(-4) --D 1 --delta 6")
TOWERS = {"cube-root-2.inst": "[tower]\ngen a = algebraic -2, 0, 0, 1\n\n"
                              "[cover]\nkind = projective-plane\n",
          "fourth-root-of-minus-1.inst": "[tower]\ngen a = algebraic 1, 0, 0, 0, 1\n\n"
                                         "[cover]\nkind = projective-line\n",
          "two-generators.inst": "[tower]\ngen r = algebraic -2, 0, 1\n"
                                 "gen s = algebraic -3, 0, 1\n\n"
                                 "[cover]\nkind = projective-line\n"}
# delta-r where its source complex is also its target (p = 1, or no
# transcendental generator) and where it is not (p = 2 over Q(s))
OVER_QS = {"line-over-Qs.inst": "[tower]\ngen s = transcendental\n\n"
                                "[cover]\nkind = projective-line\n",
           "plane-over-Qs.inst": "[tower]\ngen s = transcendental\n\n"
                                 "[cover]\nkind = projective-plane\n"}
DELTA_R = [(name, ["--p", str(p)]) for name in OVER_QS for p in (1, 2)]
DELTA_R.append(("two-generators.inst", []))
SEEDED = ("verify lemma2.6", "verify beta-agreement", "verify diagram2.7", "relations")
SUITES = SEEDED + ("verify alpha-delta",)
TOP_WEIGHT = ("verify beta-agreement --p 5", "verify diagram2.7 --p 5")


def rows(kt, work):
    """(id, argv) for every compared run."""
    out = []
    for inst in ("p1", "p2", "elliptic"):
        for cmd in WEIGHTED:
            for p in (1, 2):
                out.append((f"{cmd} {inst} p={p}",
                            cmd.split() + ["--instance", inst, "--p", str(p)]))
        for sheaf in ("omega0", "omega1"):
            out.append((f"cech {inst} {sheaf}",
                        ["cech", "--instance", inst, "--sheaf", sheaf]))
    out += [(cmd, cmd.split()) for cmd in WIDE]
    for name, text in {**TOWERS, **OVER_QS}.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for name in TOWERS:
        for cmd in ("cech", "composed", "verify lemma2.4"):
            out.append((f"{cmd} {name}",
                        cmd.split() + ["--instance", os.path.join(work, name)]))
    for name, extra in DELTA_R:
        out.append((f"delta-r {name} {' '.join(extra)}".rstrip(),
                    ["delta-r", "--instance", os.path.join(work, name)] + extra))
    for name in OVER_QS:
        out.append((f"tangent-chow {name} --p 2",
                    ["tangent-chow", "--instance", os.path.join(work, name), "--p", "2"]))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    for seed in (1, 2, 3):
        kt.workdir = os.path.join(work, f"seed{seed}")
        os.makedirs(kt.workdir)
        specs = workloads.Commands().setup(kt, seed)["specs"]
        for cid, argv, _, _ in specs:
            out.append((f"commands seed={seed}: {cid}", argv[:argv.index("--json")]))
    for cmd in SUITES:
        out.append((cmd, cmd.split()))
    for seed in (7, 11):
        for cmd in SEEDED:
            out.append((f"{cmd} seed={seed}", cmd.split() + ["--seed", str(seed)]))
    out += [(cmd, cmd.split()) for cmd in TOP_WEIGHT]
    return out


def worker(src, work, dest):
    """Run every row's argv with the package under ``src``."""
    sys.path.insert(0, src)
    from ktangent import cech, cli, errors, scalars
    kt = types.SimpleNamespace(cech=cech, cli=cli, errors=errors, scalars=scalars)
    results = {}
    report = os.path.join(work, "report.json")
    for rid, argv in rows(kt, work):
        rc = cli.main(argv + ["--json", report, "--quiet"])
        text = None
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(report)
        results[rid] = {"rc": rc, "report": text}
    with open(dest, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def source_tree(spec, scratch, beside=()):
    """The ``src`` directory spec, or the ``src`` of the git revision spec
    extracted under scratch, with the revision's directories ``beside``
    extracted next to it; None when spec is neither."""
    if os.path.isdir(spec):
        return spec
    archive = subprocess.run(["git", "-C", ROOT, "archive", spec, "src", *beside],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if archive.returncode:
        return None
    dest = tempfile.mkdtemp(prefix="rev-", dir=scratch)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return os.path.join(dest, "src")


def run_side(src, side, scratch):
    work = os.path.join(scratch, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    dest = os.path.join(scratch, f"{side}.json")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                    os.path.abspath(src), work, dest], check=True)
    with open(dest, encoding="utf-8") as fh:
        return json.load(fh)


def compare(old, new):
    problems = []
    for rid, o in old.items():
        n = new.get(rid)
        if n is None:
            problems.append(f"{rid}: missing from the new run")
            continue
        if o["rc"] != n["rc"]:
            problems.append(f"{rid}: exit code {o['rc']} -> {n['rc']}")
        if o["report"] != n["report"]:
            problems.append(f"{rid}: report bytes differ")
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
        trees = [source_tree(spec, scratch) for spec in argv]
        for spec, tree in zip(argv, trees):
            if tree is None:
                print(f"error: {spec!r} is neither a directory nor a git revision",
                      file=sys.stderr)
                return 2
        old = run_side(trees[0], "old", scratch)
        new = run_side(trees[1], "new", scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems = compare(old, new)
    for line in problems:
        print(line)
    print(f"{len(old)} reports compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
