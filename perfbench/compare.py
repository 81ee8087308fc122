"""Compare two benchmark result files, one row per workload and metric.

Each file holds result records, one JSON object per line, as written by
``run.py``.  For every workload and metric present in both files this prints
the medians, quartiles, the relative delta and a verdict:

* ``unresolved``: the spread (quartile distance over median) of either side
  exceeds the metric's bound, and AFTER does not beat BEFORE on every run;
* ``worse``: AFTER's median is worse than BEFORE's by more than the bound;
* ``better``: AFTER wins at least nine tenths of all run pairs and the
  medians differ by more than BEFORE's quartile distance;
* ``within bound`` otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Per-layer metrics have
no bound; they get a delta and the verdict ``n/a``.
"""

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(before, after, better, bound):
    if bound is None:
        return "n/a"
    sign = 1 if better == "lower" else -1   # sign * (a - b) > 0 means b improved
    mb, ma = statistics.median(before), statistics.median(after)
    q1b, q3b = quartiles(before)
    q1a, q3a = quartiles(after)
    spread = max((q3b - q1b) / abs(mb) if mb else 0.0,
                 (q3a - q1a) / abs(ma) if ma else 0.0)
    dominates = all(sign * (a - b) > 0 for a in before for b in after)
    if spread > bound and not dominates:
        return "unresolved"
    if mb and sign * (ma - mb) / abs(mb) > bound:
        return "worse"
    wins = sum(sign * (a - b) > 0 for a in before for b in after)
    if wins >= 0.9 * len(before) * len(after) and sign * (mb - ma) > q3b - q1b:
        return "better"
    return "within bound"


def main(before_path, after_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(before_path), load(after_path)
    print(f"{'workload':9s} {'metric':32s} {'unit':6s} {'before median [q1, q3]':>30s} "
          f"{'after median [q1, q3]':>30s} {'delta':>8s} {'bound':>6s} verdict")
    for key in sorted(set(before) & set(after)):
        workload, name = key
        b, a = before[key], after[key]
        m = meta.get(name, {})
        bound = m.get("bound")
        mb, ma = statistics.median(b), statistics.median(a)
        delta = (ma - mb) / abs(mb) if mb else float("nan")
        side = ["{:.4g} [{:.4g}, {:.4g}] n={}".format(statistics.median(xs),
                                                     *quartiles(xs), len(xs))
                for xs in (b, a)]
        print(f"{workload:9s} {name:32s} {m.get('unit', '?'):6s} {side[0]:>30s} "
              f"{side[1]:>30s} {delta:+8.1%} {'' if bound is None else bound:>6} "
              f"{verdict(b, a, m.get('better', 'lower'), bound)}")
    return 0
