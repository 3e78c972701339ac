"""Summarise or compare sets of benchmark results written by run.py --out.

    python3 perfbench/compare.py RUNS              # spread of one set
    python3 perfbench/compare.py PARENT CHANGE     # verdict per metric

One set: for each workload and metric, the median, the quartiles and the
spread (distance between the quartiles as a share of the median), against
the metric's bound in BENCHMARK.json.

Two sets: runs are paired by seed (in seed order when the seeds differ).  For
each workload and metric it prints both sides' median and quartiles, the
pairs the change wins and loses (ties count for neither), and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more than
              the bound (per-layer metrics, which have no bound: the change
              loses 9 of 10 pairs by more than the parent's quartile distance);
  unresolved  the parent's spread is wider than the bound and not every
              change run is better than every parent run;
  no worse    otherwise.
"""

import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    """{(workload, trace): {seed: result}}"""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out.setdefault((doc["workload"], doc["trace"]), {})[doc["seed"]] = doc
    if not out:
        sys.exit(f"no results in {directory}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(spec):
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def values_of(runs, name):
    return [runs[s]["metrics"][name]["value"] for s in sorted(runs) if name in runs[s]["metrics"]]


def summarise(spec, sets):
    specs = metric_specs(spec)
    for (workload, trace), runs in sorted(sets.items()):
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(f"\n{workload} (trace {trace}): {len(runs)} runs, failed {failed}/{attempted}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name in next(iter(runs.values()))["metrics"]:
            vals = values_of(runs, name)
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = specs[name].get("bound")
            flag = ""
            if bound is not None:
                flag = "steady" if spread <= bound / 3 else ("ok" if spread <= bound else "NOISY")
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6} {flag}")


def pairs_of(parent, change):
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip((parent[s] for s in sorted(parent)), (change[s] for s in sorted(change))))


def verdict(parent_vals, change_vals, better, bound):
    """Section 8 of the choosing-metrics guide, per metric; the two lists
    are paired by index."""
    pairs = list(zip(parent_vals, change_vals))
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is better
    p1, pm, p3 = quartiles(parent_vals)
    cm = statistics.median(change_vals)
    gain = sign * (pm - cm)  # positive: the change is better
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    iqr = p3 - p1
    enough = 0.9 * len(pairs)
    if wins >= enough and gain > iqr:
        return wins, losses, "improved"
    if bound is not None:
        if -gain > bound * abs(pm):
            return wins, losses, "worse"
    elif losses >= enough and -gain > iqr:
        return wins, losses, "worse"
    all_better = all(sign * (c - p) < 0 for c in change_vals for p in parent_vals)
    if bound is not None and pm and iqr / abs(pm) > bound and not all_better:
        return wins, losses, "unresolved"
    return wins, losses, "no worse"


def compare(spec, parent_sets, change_sets):
    specs = metric_specs(spec)
    for key in sorted(set(parent_sets) & set(change_sets)):
        workload, trace = key
        pairs = pairs_of(parent_sets[key], change_sets[key])
        pf = sum(p["failed"] for p, _ in pairs)
        cf = sum(c["failed"] for _, c in pairs)
        print(f"\n{workload} (trace {trace}): {len(pairs)} pairs, failed parent {pf} change {cf}")
        print(f"  {'metric':34s} {'parent med [q1, q3]':>36s} {'change med [q1, q3]':>36s}"
              f" {'won':>4s} {'lost':>4s}  verdict")
        for name in pairs[0][0]["metrics"]:
            if name not in pairs[0][1]["metrics"]:
                continue
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            m = specs[name]
            wins, losses, word = verdict(pv, cv, m["better"], m.get("bound"))
            (p1, pm, p3), (c1, cm, c3) = quartiles(pv), quartiles(cv)
            print(f"  {name:34s} {pm:12.6g} [{p1:10.5g}, {p3:10.5g}] "
                  f"{cm:12.6g} [{c1:10.5g}, {c3:10.5g}] {wins:4d} {losses:4d}  {word}")


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [load_runs(d) for d in argv]
    if len(sets) == 1:
        summarise(spec, sets[0])
    else:
        compare(spec, *sets)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
