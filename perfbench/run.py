"""Benchmark for ktangent: end-to-end runs, a traced per-layer run, compare.

Run one workload for a fixed time and print its metrics::

    python3 perfbench/run.py --workload symbols --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give each metric with its unit and sample count.  Every run also
appends a full record (environment, chosen inputs, samples) to
``.perfbench/results.jsonl`` or to ``--out``.

``--workload all`` runs every workload, each in its own process, one after
the other.  ``--compare A B`` compares two result files.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("scalars", "mpoly", "funcrings", "differentials", "milnor", "complexes",
           "linalg", "cech", "cycletangent", "parser", "suites", "errors", "cli")


# set-ups per untraced run: passes set up once each, and a run with fewer
# passes than this sets up alone until it has this many
MIN_SETUPS = 9


class MissingPackage(Exception):
    """The checkout holds no importable ktangent package under src/."""


# -- the CPU a check runs on -------------------------------------------------------


def _reference_loop():
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return total


class CpuPicker:
    """Pins this process, before each check, to the CPU that is fastest now.

    The CPUs of a shared host each switch, independently and for seconds at
    a time, between a fast and a slow state about 1.4x apart (README,
    Noise).  ``settle`` times a short reference loop (about 0.25 ms, best of
    two) on every CPU the process may use and pins the process to the
    fastest; it stays put unless another CPU is at least 10% faster, so a
    check moves only when that buys speed.  With one CPU, or where affinity
    cannot be set, it does nothing.
    """

    def __init__(self):
        self.start = os.sched_getaffinity(0)
        self.cpus = sorted(self.start)
        self.current = None
        self.moves = 0
        self.probe_us = []

    def _probe(self, cpu):
        os.sched_setaffinity(0, {cpu})
        best = None
        for _ in range(2):
            t0 = perf_counter()
            _reference_loop()
            t = perf_counter() - t0
            best = t if best is None else min(best, t)
        return best

    def settle(self):
        if len(self.cpus) < 2:
            return
        try:
            order = sorted(self.cpus, key=lambda c: c != self.current)
            times = {cpu: self._probe(cpu) for cpu in order}
            best = min(times, key=times.get)
            if self.current is not None and times[best] > 0.9 * times[self.current]:
                best = self.current
            os.sched_setaffinity(0, {best})
        except OSError:
            self.cpus = self.cpus[:1]
            return
        self.moves += best != self.current
        self.current = best
        self.probe_us.append(times[best] * 1e6)

    def release(self):
        """Back to every CPU the process started with."""
        try:
            os.sched_setaffinity(0, self.start)
        except OSError:
            pass

    def summary(self):
        return {"cpus": len(self.cpus), "moves": self.moves,
                "probe_us_median": (statistics.median(self.probe_us)
                                    if self.probe_us else None)}


# -- a pass: fresh import, set-up, timed checks, gates ------------------------------


def fresh_import():
    """Import ktangent from this checkout's src/, dropping any earlier import.

    Every pass starts from a fresh import, so module-level caches start
    empty on each pass, as they do for a user's CLI run.
    """
    if not os.path.isfile(os.path.join(SRC, "ktangent", "__init__.py")):
        raise MissingPackage(f"no ktangent package under {SRC}")
    for name in [n for n in sys.modules if n == "ktangent" or n.startswith("ktangent.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("ktangent")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise MissingPackage(f"ktangent was imported from {pkg.__file__}, not {SRC}")
    kt = argparse.Namespace(pkg=pkg)
    for name in MODULES:
        setattr(kt, name, importlib.import_module("ktangent." + name))
    return kt


def set_up(workload, seed, workdir, cpus):
    """A fresh import plus the workload's inputs; returns them and the time."""
    gc.collect()
    cpus.settle()
    t0 = perf_counter()
    kt = fresh_import()
    kt.workdir = workdir
    inputs = workload.setup(kt, seed)
    return kt, inputs, perf_counter() - t0


def run_pass(workload, seed, workdir, memory, cpus, tracer=None):
    """One pass over the workload's inputs; returns timings and failures."""
    kt, inputs, setup_s = set_up(workload, seed, workdir, cpus)
    if tracer is not None:
        tracer.install()
    checks = workload.checks(kt, inputs)
    outcomes, latencies = [], []
    if tracer is not None:
        tracer.on = True
    for cid, thunk in checks:
        cpus.settle()
        c0 = perf_counter()
        try:
            out = thunk() if tracer is None else tracer.run_check(cid, thunk)
            err = None
        except Exception:
            out, err = None, f"{cid}: raised\n{traceback.format_exc(limit=6)}"
        latencies.append(perf_counter() - c0)
        outcomes.append((out, err))
    wall = sum(latencies)
    if tracer is not None:
        tracer.on = False
    fails, gates = workload.judge(kt, inputs, outcomes, memory)
    return {"setup_s": setup_s, "wall_s": wall, "latencies": latencies,
            "failures": [f for f in fails + gates if f],
            "attempted": len(fails) + len(gates), "inputs": workload.describe(inputs)}


def measure(workload, seed, seconds, trace, workdir):
    """Passes over the workload for about ``seconds`` (at least one pass).

    Another pass starts only if the longest pass so far still fits in the
    time, so a run overshoots ``seconds`` only when a pass runs longer than
    every pass before it.
    Untraced: end-to-end metrics from each check's fastest latency over the
    passes (see ``end_to_end``).  Traced: one untraced pass for the overhead
    figure, then traced passes; per-layer metrics are medians over the
    traced passes.
    """
    memory = {}
    cpus = CpuPicker()
    passes, traced, lengths = [], [], []
    start = perf_counter()
    while True:
        begun = perf_counter()
        if trace and passes:
            tr = tracing.Tracer()
            p = run_pass(workload, seed, workdir, memory, cpus, tr)
            p["layers"] = tr.layer_metrics()
            p["self_sum_s"] = tr.self_sum()
            p["table"] = tr.table()
            p["missing"] = tr.missing
            p["spans"] = tr.spans
            traced.append(p)
        else:
            passes.append(run_pass(workload, seed, workdir, memory, cpus))
        now = perf_counter()
        if trace and not traced:
            continue
        lengths.append(now - begun)
        if now - start + max(lengths) > seconds:
            break
    allp = passes + traced
    failures = [f for p in allp for f in p["failures"]]
    attempted = sum(p["attempted"] for p in allp)
    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(bool(trace)), "inputs": allp[0]["inputs"],
              "passes": len(allp), "attempted": attempted, "failed": len(failures),
              "fail_ratio": len(failures) / attempted, "failures": failures[:5]}
    if not trace:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(set_up(workload, seed, workdir, cpus)[2])
        result["metrics"] = end_to_end(passes, setups)
        result["pass_wall_s"] = [p["wall_s"] for p in passes]
        result["pass_setup_s"] = setups
        result["pass_latencies_ms"] = [[x * 1000 for x in p["latencies"]] for p in passes]
    else:
        names = sorted(traced[0]["layers"])
        layers = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = traced_wall - passes[0]["wall_s"]
        result["metrics"] = {n: _m(v, _layer_unit(n), len(traced))
                             for n, v in sorted(layers.items())}
        result["trace_detail"] = {
            "untraced_wall_s": passes[0]["wall_s"],
            "traced_wall_s": [p["wall_s"] for p in traced],
            "self_sum_s": [p["self_sum_s"] for p in traced],
            "missing_targets": traced[0]["missing"],
            "table": traced[-1]["table"],
        }
        result["spans"] = traced[-1]["spans"]
    cpus.release()
    result["cpu_picker"] = cpus.summary()
    return result


def end_to_end(passes, setups):
    """The end-to-end metrics of an untraced run.

    Every pass runs the same checks in the same order from a cold import,
    so a check costs the same on every pass, apart from the host.  The host
    switches between speed states about 1.4x apart that last seconds to
    minutes (see README, Noise), so each check is taken at its fastest
    pass: a check is slow on every pass only if the host was slow
    at each of its passes.  ``wall_s`` is the sum of these per-check times,
    a pass with every check at its best; the latency quantiles are over
    them.  ``setup_s`` is the median of the run's set-ups.
    """
    per_pass = [[x * 1000 for x in p["latencies"]] for p in passes]
    best = [min(c) for c in zip(*per_pass)]
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    samples = len(best) * len(per_pass)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": _m(sum(best) / 1000, "s", samples),
        "check_p50_ms": _m(deciles[4], "ms", samples),
        "check_p90_ms": _m(deciles[8], "ms", samples),
        "setup_s": _m(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": _m(rss, "MB", 1),
    }


def _m(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- environment and output ------------------------------------------------------


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "git_commit": git_commit(ROOT), "loadavg_start": list(os.getloadavg())}


def print_result(result):
    print(f"# {result['workload']} seed={result['seed']} passes={result['passes']} "
          f"trace={result['trace']} inputs={json.dumps(result['inputs'])}")
    env = result["env"]
    print(f"# python {env['python']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"commit={env['git_commit']} load={env['loadavg_start']}->{env['loadavg_end']}")
    pick = result["cpu_picker"]
    print(f"# cpu picker: {pick['cpus']} cpus, {pick['moves']} moves, reference loop "
          f"{pick['probe_us_median']} us (median)")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:9s} {name:32s} {m['value']:.6g} {m['unit']} "
              f"(n={m['samples']})")
    print(f"{result['workload']:9s} {'fail_ratio':32s} {result['fail_ratio']:.6g} 1 "
          f"({result['failed']}/{result['attempted']})")
    if result["trace"]:
        d = result["trace_detail"]
        print(f"# tracing overhead {result['metrics']['trace.overhead_s']['value']:.3f} s "
              f"(traced {statistics.median(d['traced_wall_s']):.3f} s, untraced "
              f"{d['untraced_wall_s']:.3f} s); traced self times sum to "
              f"{statistics.median(d['self_sum_s']):.3f} s")
        if d["missing_targets"]:
            print(f"# targets not found: {', '.join(d['missing_targets'])}")
    for f in result["failures"]:
        print(f"# FAIL {f}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                                  for n, m in result["metrics"].items()}}))


def run_one(args):
    os.makedirs(STATE, exist_ok=True)
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = environment()
    try:
        result = measure(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                         args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    result["env"] = env
    spans = result.pop("spans", None)
    if spans is not None:
        path = os.path.join(STATE, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
        result["trace_detail"]["spans_file"] = os.path.relpath(path, ROOT)
    with open(args.out or os.path.join(STATE, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(result) + "\n")
    print_result(result)
    return 0 if result["failed"] == 0 else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append result records here "
                                  "(default .perfbench/results.jsonl)")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two result files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
