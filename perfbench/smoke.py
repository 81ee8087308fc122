"""Smoke test of the benchmark at a tiny size (a few seconds).

    python3 perfbench/smoke.py

It runs each workload once untraced and once traced, at tiny sizes, and
asserts that:

* every metric named in BENCHMARK.json is emitted, and the printed result
  line has the keys correct, attempted, failed and metrics;
* no check fails;
* traced self times sum to no more than the traced wall time;
* the predicted zeros hold: no gcd, RingElem or Scalar work inside cech_q's
  timed checks, and no elimination or Cech column in symbols;
* every traced function is wrapped once, aliases included;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run
import tracer as tracing
import workloads

TINY = {
    "symbols": workloads.Symbols(family_size=3, relation_count=4, diagram_ps=(2,)),
    "cech_q": workloads.CechQ(d_line=2, d_plane=2, d_curve=2, twists=(-2, 0, 2),
                              splittings=(("plane", 1), ("cubic", 1))),
    "commands": workloads.Commands(builtins=("p1",), extras=False),
}
ZEROS = {
    "cech_q": ("mpoly.gcd_calls", "funcrings.elem_new", "scalars.ops"),
    "symbols": ("linalg.adds", "cech.columns"),
}


def check_workload(name, workload, spec, workdir):
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for trace in (0, 1):
        res = run.measure(workload, 7, 0, trace, workdir)
        res["env"] = dict(run.environment(), loadavg_end=[0, 0, 0])
        res.pop("spans", None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.print_result(res)
        line = json.loads(out.getvalue().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
        assert set(line["metrics"]) == names[trace], (
            name, trace, set(line["metrics"]) ^ names[trace])
        assert line["correct"] and line["failed"] == 0, res["failures"]
        if trace:
            detail = res["trace_detail"]
            assert not detail["missing_targets"], detail["missing_targets"]
            for self_s, wall in zip(detail["self_sum_s"], detail["traced_wall_s"]):
                assert self_s <= wall, (name, self_s, wall)
            for metric in ZEROS.get(name, ()):
                assert line["metrics"][metric]["value"] == 0, (name, metric, line)
        print(f"ok {name} trace={trace}")


def check_single_wrap():
    """Aliases such as ``__radd__ = __add__`` must be wrapped once, not twice."""
    run.fresh_import()
    tracing.Tracer().install()
    for name, mod in sys.modules.items():
        if name.startswith("ktangent"):
            spaces = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                    if isinstance(c, type)]
            for ns in spaces:
                for attr, val in ns.items():
                    inner = getattr(val, "__wrapped__", None)
                    assert not hasattr(inner, "__wrapped__"), (name, attr)
    print("ok every target wrapped once")


def check_bare_directory():
    """Without src/ the benchmark must fail fast and print no result."""
    bare = os.path.join(run.STATE, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "symbols", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok bare directory exits", proc.returncode)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(run.STATE, f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, workload in TINY.items():
            check_workload(name, workload, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_single_wrap()
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
